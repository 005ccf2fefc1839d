// Integration tests for the training stack: Adam, LR decay, trainer loops,
// Network container, serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/rng.hpp"
#include "data/loader.hpp"
#include "data/synth.hpp"
#include "models/lenet.hpp"
#include "models/shallow_caps.hpp"
#include "nn/activation_layers.hpp"
#include "nn/conv2d_layer.hpp"
#include "nn/cross_entropy.hpp"
#include "nn/dense_layer.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "test_util.hpp"

namespace qcaps::nn {
namespace {

TEST(ExponentialDecay, MatchesClosedForm) {
  ExponentialDecay lr;
  lr.initial = 0.001f;
  lr.decay_rate = 0.96f;
  lr.decay_steps = 2000;
  EXPECT_FLOAT_EQ(lr.at(0), 0.001f);
  EXPECT_NEAR(lr.at(2000), 0.00096f, 1e-7f);
  EXPECT_LT(lr.at(10000), lr.at(5000));
}

TEST(Adam, MinimizesQuadratic) {
  // Minimize ||x - t||^2 with Adam; gradients fed manually.
  tensor::Tensor x({4}, {5.0f, -3.0f, 2.0f, 0.0f});
  const tensor::Tensor target({4}, {1.0f, 1.0f, 1.0f, 1.0f});
  tensor::Tensor g({4});
  AdamOptimizer opt;
  for (int step = 0; step < 800; ++step) {
    for (std::int64_t i = 0; i < 4; ++i) g[i] = 2.0f * (x[i] - target[i]);
    opt.step({&x}, {&g}, 0.05f);
  }
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], 1.0f, 0.02f);
}

TEST(Adam, ZeroesGradientsAfterStep) {
  tensor::Tensor x({2}, {1.0f, 1.0f});
  tensor::Tensor g({2}, {3.0f, -3.0f});
  AdamOptimizer opt;
  opt.step({&x}, {&g}, 0.01f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_EQ(opt.step_count(), 1);
}

TEST(Adam, RejectsChangingParameterSet) {
  tensor::Tensor a({2}), ga({2});
  tensor::Tensor b({3}), gb({3});
  AdamOptimizer opt;
  opt.step({&a}, {&ga}, 0.01f);
  EXPECT_THROW(opt.step({&a, &b}, {&ga, &gb}, 0.01f), qcaps::Error);
}

TEST(Network, ForwardBackwardChain) {
  common::Rng rng(1);
  Network net("tiny");
  net.add<Conv2dLayer>("c", 1, 2, 3, 1, 0, true, rng);
  net.add<ReluLayer>("r");
  net.add<DenseLayer>("d", 2 * 3 * 3, 4, true, rng);
  const tensor::Tensor x = tensor::Tensor::randn({2, 1, 5, 5}, rng);
  const tensor::Tensor y = net.forward(x, Phase::kTrain);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 4}));
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.weighted_layers(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(net.params().size(), 4u);
  EXPECT_GT(net.param_count(), 0);
  net.backward(tensor::Tensor(y.shape(), 1.0f));  // must not throw
}

TEST(Network, PredictUsesCapsuleLengths) {
  tensor::Tensor v({2, 3, 2});
  v.at({0, 1, 0}) = 0.9f;                         // sample 0 -> class 1
  v.at({1, 2, 0}) = 0.5f;
  v.at({1, 2, 1}) = 0.5f;                         // sample 1 -> class 2
  const auto pred = Network::predict(v);
  EXPECT_EQ(pred[0], 1);
  EXPECT_EQ(pred[1], 2);
}

TEST(Serialize, RoundTripRestoresParameters) {
  common::Rng rng(2);
  Network a("net");
  a.add<DenseLayer>("d", 6, 4, true, rng);
  const std::string path = "test_serialize_roundtrip.bin";
  save_params(a, path);

  Network b("net");
  b.add<DenseLayer>("d", 6, 4, true, rng);  // different init
  ASSERT_TRUE(load_params(b, path));
  testutil::expect_tensor_near(*b.params()[0], *a.params()[0], 0.0f);
  testutil::expect_tensor_near(*b.params()[1], *a.params()[1], 0.0f);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileReturnsFalse) {
  common::Rng rng(3);
  Network net("n");
  net.add<DenseLayer>("d", 2, 2, false, rng);
  EXPECT_FALSE(load_params(net, "does_not_exist.bin"));
}

TEST(Serialize, ShapeMismatchThrows) {
  common::Rng rng(4);
  Network a("a");
  a.add<DenseLayer>("d", 6, 4, false, rng);
  const std::string path = "test_serialize_mismatch.bin";
  save_params(a, path);
  Network b("b");
  b.add<DenseLayer>("d", 6, 5, false, rng);
  EXPECT_THROW(load_params(b, path), qcaps::Error);
  std::filesystem::remove(path);
}

// A checkpoint whose bytes were damaged is refused with a typed error: one
// flipped tensor byte (checksum), a truncated write, a trailing byte, and
// the previous format version's magic. The undamaged bytes still load.
TEST(Serialize, DamagedFileThrowsCheckpointError) {
  common::Rng rng(5);
  Network a("net");
  a.add<DenseLayer>("d", 6, 4, true, rng);
  const std::string path = "test_serialize_damaged.bin";
  save_params(a, path);
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto load_bytes = [&](const std::string& bytes) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Network b("net");
    b.add<DenseLayer>("d", 6, 4, true, rng);
    return load_params(b, path);
  };
  // magic, tensor count, rank, dims, then the first tensor's floats.
  const std::size_t first_float = 3 * 8 + 8 * a.params()[0]->shape().size();
  std::string flipped = good;
  flipped[first_float + 1] ^= 0x10;
  EXPECT_THROW(load_bytes(flipped), CheckpointError) << "flipped tensor byte";
  EXPECT_THROW(load_bytes(good.substr(0, good.size() / 2)), CheckpointError)
      << "truncated inside a tensor";
  EXPECT_THROW(load_bytes(good.substr(0, good.size() - 1)), CheckpointError)
      << "truncated checksum";
  EXPECT_THROW(load_bytes(good + '\0'), CheckpointError) << "trailing byte";
  std::string v2 = good;
  v2[0] = '2';  // "QCAPSNE3" is stored little-endian: '3' comes first
  EXPECT_THROW(load_bytes(v2), CheckpointError) << "version-2 magic";
  EXPECT_TRUE(load_bytes(good));
  std::filesystem::remove(path);
}

TEST(Serialize, SaveReplacesFileWithoutLeavingTemporaries) {
  common::Rng rng(6);
  Network a("net");
  a.add<DenseLayer>("d", 3, 2, true, rng);
  const std::filesystem::path dir = "test_serialize_atomic_dir";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "model.bin").string();
  save_params(a, path);
  a.params()[0]->data()[0] += 1.0f;
  save_params(a, path);  // over an existing file
  Network b("net");
  b.add<DenseLayer>("d", 3, 2, true, rng);
  ASSERT_TRUE(load_params(b, path));
  EXPECT_EQ(b.params()[0]->data()[0], a.params()[0]->data()[0]);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir), {}), 1);
  std::filesystem::remove_all(dir);
}

TEST(TrainerIntegration, LeNetLearnsSynthDigits) {
  // Conventional-CNN path: manual loop with cross-entropy.
  data::SynthConfig cfg;
  cfg.train_size = 300;
  cfg.test_size = 100;
  const data::DataSplit split = data::make_digits_split(cfg);
  common::Rng rng(5);
  auto net = models::build_lenet(rng);
  CrossEntropyLoss loss;
  AdamOptimizer opt;
  data::BatchLoader loader(split.train, 32, true, 6);
  for (int epoch = 0; epoch < 6; ++epoch) {
    loader.start_epoch();
    for (std::int64_t b = 0; b < loader.num_batches(); ++b) {
      const data::Batch batch = loader.batch(b);
      const tensor::Tensor out = net->forward(batch.images, Phase::kTrain);
      loss.forward(out, batch.labels);
      net->backward(loss.backward());
      opt.step(net->params(), net->grads(), 1e-3f);
    }
  }
  int correct = 0;
  const tensor::Tensor out = net->forward(split.test.images, Phase::kEval);
  const auto pred = predict_logits(out);
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == split.test.labels[i]) ++correct;
  EXPECT_GT(correct, 80) << "LeNet accuracy " << correct << "/100";
}

TEST(TrainerIntegration, ShallowCapsLearnsSynthDigits) {
  // The full capsule path through train(): margin loss + routing backprop.
  data::SynthConfig dcfg;
  dcfg.train_size = 300;
  dcfg.test_size = 100;
  const data::DataSplit split = data::make_digits_split(dcfg);
  auto mcfg = models::ShallowCapsConfig::experiment();
  mcfg.conv_channels = 16;
  mcfg.primary_types = 2;
  common::Rng rng(7);
  auto net = models::build_shallow_caps(mcfg, rng);
  TrainConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batch_size = 32;
  tcfg.verbose = false;
  const TrainResult result = nn::train(*net, split.train, split.test, tcfg);
  EXPECT_GT(result.test_accuracy, 0.8f)
      << "ShallowCaps accuracy " << result.test_accuracy;
  EXPECT_GT(result.steps, 0);
}

TEST(Evaluate, SubsetCapRespected) {
  data::SynthConfig cfg;
  cfg.train_size = 10;
  cfg.test_size = 50;
  const data::DataSplit split = data::make_digits_split(cfg);
  auto mcfg = models::ShallowCapsConfig::experiment();
  mcfg.conv_channels = 8;
  mcfg.primary_types = 1;
  common::Rng rng(8);
  auto net = models::build_shallow_caps(mcfg, rng);
  // Untrained net: accuracy near chance but evaluate() must work on subsets.
  const float acc = evaluate(*net, split.test, 16, 20);
  EXPECT_GE(acc, 0.0f);
  EXPECT_LE(acc, 1.0f);
}

}  // namespace
}  // namespace qcaps::nn
