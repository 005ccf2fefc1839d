// Tests for the model zoo and the Fig. 1 static analysis.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "data/synth.hpp"
#include "models/analysis.hpp"
#include "models/deep_caps.hpp"
#include "models/lenet.hpp"
#include "models/model_cache.hpp"
#include "models/shallow_caps.hpp"
#include "nn/serialize.hpp"

namespace qcaps::models {
namespace {

TEST(ShallowCaps, PaperConfigDimensions) {
  const auto cfg = ShallowCapsConfig::paper();
  EXPECT_EQ(cfg.conv_channels, 256);
  EXPECT_EQ(cfg.primary_types, 32);
  // 6x6 grid x 32 types = 1152 capsules into DigitCaps, as in [21].
  EXPECT_EQ(cfg.num_primary_caps(), 1152);
}

TEST(ShallowCaps, ExperimentConfigBuildsAndRuns) {
  common::Rng rng(1);
  auto net = build_shallow_caps(ShallowCapsConfig::experiment(), rng);
  const tensor::Tensor x({2, 1, 28, 28});
  const tensor::Tensor y = net->forward(x, nn::Phase::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 10, 16}));
  // Exactly the paper's three quantization layers: L1, L2, L3.
  EXPECT_EQ(net->weighted_layers().size(), 3u);
}

TEST(DeepCaps, ExperimentConfigBuildsAndRuns) {
  common::Rng rng(2);
  const auto cfg = DeepCapsConfig::experiment(32, 3);
  auto net = build_deep_caps(cfg, rng);
  const tensor::Tensor x({1, 3, 32, 32});
  const tensor::Tensor y = net->forward(x, nn::Phase::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 10, cfg.out_caps_dim}));
  // Quantization granularity: L1, B2..B5, L6 (Fig. 12 columns).
  EXPECT_EQ(net->weighted_layers().size(), 6u);
}

TEST(DeepCaps, GridHalvesPerBlock) {
  const auto cfg32 = DeepCapsConfig::experiment(32, 3);
  EXPECT_EQ(cfg32.final_grid(), 2);
  const auto cfg28 = DeepCapsConfig::experiment(28, 1);
  EXPECT_EQ(cfg28.final_grid(), 2);
  EXPECT_EQ(cfg28.num_final_caps(), cfg28.block_types * 4);
}

TEST(DeepCaps, RoutingLayersAreLastBlockAndHead) {
  common::Rng rng(3);
  auto net = build_deep_caps(DeepCapsConfig::experiment(28, 1), rng);
  const tensor::Tensor x({1, 1, 28, 28});
  net->forward(x, nn::Phase::kEval);
  const auto widx = net->weighted_layers();
  std::vector<bool> routing;
  for (const auto i : widx) routing.push_back(net->layer(i).has_routing());
  // L1, B2, B3, B4: no routing. B5 (routed skip) and L6: routing.
  EXPECT_EQ(routing, (std::vector<bool>{false, false, false, false, true, true}));
}

TEST(LeNet, BuildsAndClassifiesShape) {
  common::Rng rng(4);
  auto net = build_lenet(rng);
  const tensor::Tensor x({3, 1, 28, 28});
  const tensor::Tensor y = net->forward(x, nn::Phase::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{3, 10}));
  EXPECT_THROW(build_lenet(rng, 1, 30), qcaps::Error);
}

// ---- Fig. 1 static descriptors ------------------------------------------------

TEST(Fig1, ShallowCapsMatchesPaperMemory) {
  const ArchDesc d = shallow_caps_desc();
  // Paper: ~217 Mbit at FP32 (6.8M parameters).
  EXPECT_NEAR(d.memory_mbit(), 217.0, 5.0);
  EXPECT_NEAR(static_cast<double>(d.total_params()), 6.8e6, 0.2e6);
}

TEST(Fig1, ShallowCapsComputeIntensity) {
  const ArchDesc d = shallow_caps_desc();
  // ~200M MACs; MACs/memory ratio around 30 (the tallest bar in Fig. 1).
  EXPECT_NEAR(static_cast<double>(d.total_macs()), 2.0e8, 0.2e8);
  EXPECT_GT(d.macs_per_memory(), 25.0);
}

TEST(Fig1, AlexNetMatchesPublishedScale) {
  const ArchDesc d = alexnet_desc();
  EXPECT_NEAR(static_cast<double>(d.total_params()), 6.1e7, 0.4e7);
  EXPECT_NEAR(static_cast<double>(d.total_macs()), 7.2e8, 1.0e8);
  // Fig. 1: AlexNet has more memory but lower MACs/memory than ShallowCaps.
  EXPECT_GT(d.memory_mbit(), shallow_caps_desc().memory_mbit());
  EXPECT_LT(d.macs_per_memory(), shallow_caps_desc().macs_per_memory());
}

TEST(Fig1, LeNetIsSmallest) {
  const ArchDesc d = lenet_desc();
  EXPECT_NEAR(static_cast<double>(d.total_params()), 6.2e4, 0.4e4);
  EXPECT_LT(d.memory_mbit(), 3.0);
  EXPECT_LT(d.macs_per_memory(), shallow_caps_desc().macs_per_memory());
}

TEST(Fig1, OrderingMatchesPaperFigure) {
  // Memory: AlexNet > ShallowCaps > LeNet; intensity: ShallowCaps highest.
  const auto sc = shallow_caps_desc(), an = alexnet_desc(), ln = lenet_desc();
  EXPECT_GT(an.memory_mbit(), sc.memory_mbit());
  EXPECT_GT(sc.memory_mbit(), ln.memory_mbit());
  EXPECT_GT(sc.macs_per_memory(), an.macs_per_memory());
  EXPECT_GT(sc.macs_per_memory(), ln.macs_per_memory());
}

TEST(Analysis, DescribeNetworkMatchesStaticCounts) {
  common::Rng rng(5);
  auto cfg = ShallowCapsConfig::paper();
  cfg.conv_channels = 16;  // shrink so the probe is fast
  cfg.primary_types = 2;
  auto net = build_shallow_caps(cfg, rng);
  const tensor::Tensor probe({1, 1, 28, 28});
  const ArchDesc d = describe_network(*net, probe);
  EXPECT_EQ(d.layers.size(), net->num_layers());
  EXPECT_EQ(d.total_params(), net->param_count());
  // Conv L1: 20x20x16 activations.
  EXPECT_EQ(d.layers[0].activations, 20 * 20 * 16);
  EXPECT_GT(d.total_macs(), 0);
}

TEST(Analysis, TableRendering) {
  const std::string table = to_table(lenet_desc());
  EXPECT_NE(table.find("LeNet"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("MACs/memory"), std::string::npos);
}

TEST(ModelCache, DirectoryHonorsEnvironmentOverride) {
  const char* prev = std::getenv("QCAPS_MODEL_CACHE");
  setenv("QCAPS_MODEL_CACHE", "test_cache_dir_xyz", 1);
  const std::string dir = model_cache_dir();
  EXPECT_EQ(dir, "test_cache_dir_xyz");
  EXPECT_TRUE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
  if (prev != nullptr) {
    setenv("QCAPS_MODEL_CACHE", prev, 1);
  } else {
    unsetenv("QCAPS_MODEL_CACHE");
  }
}

TEST(ModelCache, CapsuleNetworkParametersRoundTrip) {
  // Serialization across the full capsule stack (conv + BN + routing W),
  // including the batch-norm running statistics: a loaded model must produce
  // bit-identical eval outputs — losing the BN buffers silently destroys
  // accuracy (regression test).
  common::Rng rng(7);
  auto cfg = DeepCapsConfig::experiment(28, 1);
  cfg.conv_channels = 8;
  cfg.block_types = 2;
  cfg.block_dims = {2, 2, 2, 2};
  cfg.out_caps_dim = 4;
  auto a = build_deep_caps(cfg, rng);
  // Run one train-phase forward so the BN running stats move off their
  // initial values.
  const tensor::Tensor probe = tensor::Tensor::uniform({4, 1, 28, 28}, rng);
  a->forward(probe, nn::Phase::kTrain);
  const std::string path = "test_deepcaps_params.bin";
  nn::save_params(*a, path);

  common::Rng rng2(99);
  auto b = build_deep_caps(cfg, rng2);
  ASSERT_TRUE(nn::load_params(*b, path));
  const auto pa = a->params();
  const auto pb = b->params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i]->numel(); ++j)
      ASSERT_EQ((*pa[i])[j], (*pb[i])[j]) << "param tensor " << i;
  // Eval outputs must match exactly (exercises the BN running stats).
  const tensor::Tensor ya = a->forward(probe, nn::Phase::kEval);
  const tensor::Tensor yb = b->forward(probe, nn::Phase::kEval);
  for (std::int64_t j = 0; j < ya.numel(); ++j) ASSERT_EQ(ya[j], yb[j]);
  std::filesystem::remove(path);
}

// A cache file that cannot be loaded is a cache miss: the model is rebuilt
// from its initial seed (not from the half-loaded damaged weights),
// retrained, and the file replaced so the next call loads it.
TEST(ModelCache, DamagedCacheFileIsRetrainedAndReplaced) {
  const char* prev = std::getenv("QCAPS_MODEL_CACHE");
  const std::string dir = "test_cache_heal_dir";
  std::filesystem::remove_all(dir);
  setenv("QCAPS_MODEL_CACHE", dir.c_str(), 1);
  data::SynthConfig dcfg;
  dcfg.train_size = 32;
  dcfg.test_size = 16;
  const data::DataSplit split = data::make_digits_split(dcfg);
  nn::TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.verbose = false;
  const TrainedModel first = get_trained_shallow_caps(split, "heal", tcfg);
  EXPECT_FALSE(first.from_cache);
  const std::string path = dir + "/shallowcaps_heal_s11.bin";
  {
    const auto mid =
        static_cast<std::streamoff>(std::filesystem::file_size(path) / 2);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(mid);
    const char byte = static_cast<char>(f.get());
    f.seekp(mid);
    f.put(static_cast<char>(byte ^ 0x01));
  }
  const TrainedModel healed = get_trained_shallow_caps(split, "heal", tcfg);
  EXPECT_FALSE(healed.from_cache);
  const auto pf = first.net->params();
  const auto ph = healed.net->params();
  ASSERT_EQ(pf.size(), ph.size());
  for (std::size_t i = 0; i < pf.size(); ++i)
    for (std::int64_t j = 0; j < pf[i]->numel(); ++j)
      ASSERT_EQ((*pf[i])[j], (*ph[i])[j]) << "param tensor " << i;
  EXPECT_TRUE(get_trained_shallow_caps(split, "heal", tcfg).from_cache);

  std::filesystem::remove_all(dir);
  if (prev != nullptr) {
    setenv("QCAPS_MODEL_CACHE", prev, 1);
  } else {
    unsetenv("QCAPS_MODEL_CACHE");
  }
}

TEST(Datasets, ModelsRunOnAllThreeSynthDatasets) {
  common::Rng rng(6);
  // 28x28x1 digits and fashion through ShallowCaps; 32x32x3 through DeepCaps.
  const auto digits = data::make_synth_digits(2, 1);
  const auto fashion = data::make_synth_fashion(2, 1);
  const auto cifar = data::make_synth_cifar(2, 1);
  auto sc_cfg = models::ShallowCapsConfig::experiment();
  sc_cfg.conv_channels = 8;
  sc_cfg.primary_types = 1;
  auto sc = build_shallow_caps(sc_cfg, rng);
  EXPECT_NO_THROW(sc->forward(digits.images, nn::Phase::kEval));
  EXPECT_NO_THROW(sc->forward(fashion.images, nn::Phase::kEval));
  auto dc = build_deep_caps(DeepCapsConfig::experiment(32, 3), rng);
  EXPECT_NO_THROW(dc->forward(cifar.images, nn::Phase::kEval));
}

}  // namespace
}  // namespace qcaps::models
