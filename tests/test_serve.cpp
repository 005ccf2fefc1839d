// Tests for the batching inference server (src/serve): request-queue FIFO
// and shutdown semantics, batcher stacking, bit-identical batched-vs-
// sequential inference on both the fp32 and the integer deployment paths,
// server end-to-end behaviour (coalescing, compute tiling, error isolation,
// graceful drain), and a multi-threaded stress run with concurrent clients.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/quant_spec.hpp"
#include "models/deep_caps.hpp"
#include "models/shallow_caps.hpp"
#include "nn/serialize.hpp"
#include "qengine/qgraph.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/model_backend.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace {

using namespace qcaps;
using namespace std::chrono_literals;

tensor::Tensor tiny_image(float value) {
  tensor::Tensor t({1, 2, 2});
  t.fill(value);
  return t;
}

tensor::Tensor image_row(const tensor::Tensor& batch, std::int64_t b) {
  tensor::Shape shape(batch.shape().begin() + 1, batch.shape().end());
  tensor::Tensor out(shape);
  std::memcpy(out.data(), batch.data() + b * out.numel(),
              sizeof(float) * static_cast<std::size_t>(out.numel()));
  return out;
}

// Deterministic stub backend: label = round(100 * image[0]) % 10. Records
// the size of every forward it runs; optional per-forward delay (to force
// queue buildup) and a poison value that throws (error-isolation tests).
class EchoBackend final : public serve::ModelBackend {
 public:
  explicit EchoBackend(std::chrono::milliseconds delay = 0ms,
                       float poison = -1.0f)
      : name_("echo"), delay_(delay), poison_(poison) {}

  const std::string& name() const override { return name_; }

  std::vector<serve::Prediction> predict_batch(
      const tensor::Tensor& images) override {
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    const std::int64_t b = images.dim(0);
    const std::int64_t per = images.numel() / b;
    forwards.fetch_add(1);
    std::int64_t prev = largest_forward.load();
    while (b > prev && !largest_forward.compare_exchange_weak(prev, b)) {
    }
    std::vector<serve::Prediction> out;
    for (std::int64_t i = 0; i < b; ++i) {
      const float v = images[i * per];
      if (v == poison_) throw qcaps::Error("poisoned request");
      out.push_back(serve::Prediction{
          static_cast<int>(std::lround(100.0f * v)) % 10, v});
    }
    return out;
  }

  std::unique_ptr<serve::ModelBackend> clone() const override {
    return std::make_unique<EchoBackend>(delay_, poison_);
  }

  // Shared across clones so pool-wide totals are observable.
  static inline std::atomic<std::int64_t> forwards{0};
  static inline std::atomic<std::int64_t> largest_forward{0};

 private:
  std::string name_;
  std::chrono::milliseconds delay_;
  float poison_;
};

// ---- RequestQueue ----------------------------------------------------------

TEST(RequestQueue, PopBatchPreservesFifoOrder) {
  serve::RequestQueue queue;
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(queue.push(tiny_image(0.1f * static_cast<float>(i))));

  auto batch = queue.pop_batch(3);
  ASSERT_EQ(batch.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].sequence,
              static_cast<std::uint64_t>(i));
    EXPECT_FLOAT_EQ(batch[static_cast<std::size_t>(i)].image[0],
                    0.1f * static_cast<float>(i));
  }
  batch = queue.pop_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].sequence, 3u);
  EXPECT_EQ(batch[1].sequence, 4u);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.total_pushed(), 5u);
}

TEST(RequestQueue, CoalescingWindowWaitsForLateArrivals) {
  serve::RequestQueue queue;
  queue.push(tiny_image(0.5f));
  std::thread late([&] {
    std::this_thread::sleep_for(20ms);
    queue.push(tiny_image(0.7f));
  });
  // The window is generous so the late push coalesces into this batch.
  auto batch = queue.pop_batch(2, std::chrono::microseconds(2'000'000));
  late.join();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(RequestQueue, CloseRejectsPushesButDrainsPending) {
  serve::RequestQueue queue;
  auto fut = queue.push(tiny_image(0.5f));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_THROW(queue.push(tiny_image(0.1f)), qcaps::Error);

  // Pending requests stay poppable after close ...
  auto batch = queue.pop_batch(4);
  ASSERT_EQ(batch.size(), 1u);
  // ... and a drained closed queue returns empty (the worker exit signal).
  EXPECT_TRUE(queue.pop_batch(4).empty());
}

TEST(RequestQueue, CloseWakesBlockedConsumer) {
  serve::RequestQueue queue;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    EXPECT_TRUE(queue.pop_batch(4).empty());
    returned = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(returned.load());
  queue.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(RequestQueue, BoundedCapacityBlocksProducerUntilPop) {
  serve::RequestQueue queue(/*capacity=*/2);
  queue.push(tiny_image(0.1f));
  queue.push(tiny_image(0.2f));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    queue.push(tiny_image(0.3f));  // blocks until the consumer pops
    third_pushed = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(queue.pop_batch(1).size(), 1u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.size(), 2u);
}

// ---- Batcher ---------------------------------------------------------------

TEST(Batcher, StackConcatenatesRowsInOrder) {
  serve::RequestQueue queue;
  for (int i = 0; i < 3; ++i)
    queue.push(tiny_image(static_cast<float>(i) + 1.0f));
  serve::Batcher batcher(queue, serve::BatcherConfig{8,
                                                     std::chrono::microseconds{0}});
  auto batch = batcher.next();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->size(), 3);
  EXPECT_EQ(batch->images.shape(), (tensor::Shape{3, 1, 2, 2}));
  for (std::int64_t b = 0; b < 3; ++b)
    for (std::int64_t j = 0; j < 4; ++j)
      EXPECT_FLOAT_EQ(batch->images[b * 4 + j], static_cast<float>(b) + 1.0f);
}

TEST(Batcher, StackRejectsMixedShapes) {
  std::vector<serve::InferenceRequest> reqs(2);
  reqs[0].image = tensor::Tensor({1, 2, 2});
  reqs[1].image = tensor::Tensor({1, 3, 3});
  EXPECT_THROW(serve::Batcher::stack(reqs), qcaps::Error);
}

TEST(Batcher, MixedShapeBatchFailsItsRequestsAndNextKeepsGoing) {
  serve::RequestQueue queue;
  auto f1 = queue.push(tensor::Tensor({1, 2, 2}));
  auto f2 = queue.push(tensor::Tensor({1, 3, 3}));
  queue.close();
  serve::Batcher batcher(queue, serve::BatcherConfig{8,
                                                     std::chrono::microseconds{0}});
  // The unstackable batch is skipped (its promises carry the error), and
  // next() proceeds to the drained-queue exit instead of throwing.
  EXPECT_FALSE(batcher.next().has_value());
  EXPECT_THROW(f1.get(), qcaps::Error);
  EXPECT_THROW(f2.get(), qcaps::Error);
}

// ---- Batched inference is bit-identical to sequential ----------------------

TEST(BatchDeterminism, ShallowCapsFp32BatchedMatchesSequentialBitExact) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(11);
  auto net = models::build_shallow_caps(cfg, rng);
  const std::int64_t b = 6;
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);

  const tensor::Tensor batched = net->forward(images, nn::Phase::kEval);
  std::vector<float> batched_scores;
  const std::vector<int> batched_labels =
      net->predict_batch(images, &batched_scores);

  for (std::int64_t i = 0; i < b; ++i) {
    tensor::Tensor one = image_row(images, i);
    one.reshape({1, 1, 28, 28});
    const tensor::Tensor single = net->forward(one, nn::Phase::kEval);
    const std::int64_t per = single.numel();
    for (std::int64_t j = 0; j < per; ++j)
      ASSERT_EQ(batched[i * per + j], single[j])
          << "fp32 batched forward diverges at sample " << i << " elem " << j;
    std::vector<float> s1;
    const std::vector<int> l1 = net->predict_batch(one, &s1);
    EXPECT_EQ(batched_labels[static_cast<std::size_t>(i)], l1[0]);
    EXPECT_EQ(batched_scores[static_cast<std::size_t>(i)], s1[0]);
  }
}

TEST(BatchDeterminism, DeepCapsFp32BatchedMatchesSequentialBitExact) {
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(13);
  auto net = models::build_deep_caps(cfg, rng);
  const std::int64_t b = 3;
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);

  const tensor::Tensor batched = net->forward(images, nn::Phase::kEval);
  for (std::int64_t i = 0; i < b; ++i) {
    tensor::Tensor one = image_row(images, i);
    one.reshape({1, 1, 28, 28});
    const tensor::Tensor single = net->forward(one, nn::Phase::kEval);
    const std::int64_t per = single.numel();
    for (std::int64_t j = 0; j < per; ++j)
      ASSERT_EQ(batched[i * per + j], single[j])
          << "DeepCaps batched forward diverges at sample " << i;
  }
}

TEST(BatchDeterminism, QuantizedBatchedMatchesSequentialBitExact) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(17);
  auto net = models::build_shallow_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 6, fixed::RoundingScheme::kRoundToNearest);
  const auto qmodel = qengine::QuantizedGraph::compile(*net, spec);

  const std::int64_t b = 6;
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);

  const qengine::QTensor batched = qmodel.forward(images);
  std::vector<float> batched_scores;
  const std::vector<int> batched_labels =
      qmodel.predict_batch(images, &batched_scores);

  for (std::int64_t i = 0; i < b; ++i) {
    tensor::Tensor one = image_row(images, i);
    one.reshape({1, 1, 28, 28});
    const qengine::QTensor single = qmodel.forward(one);
    const std::int64_t per = single.numel();
    for (std::int64_t j = 0; j < per; ++j)
      ASSERT_EQ(batched.raw[static_cast<std::size_t>(i * per + j)],
                single.raw[static_cast<std::size_t>(j)])
          << "integer batched forward diverges at sample " << i << " elem "
          << j;
    std::vector<float> s1;
    const std::vector<int> l1 = qmodel.predict_batch(one, &s1);
    EXPECT_EQ(batched_labels[static_cast<std::size_t>(i)], l1[0]);
    EXPECT_EQ(batched_scores[static_cast<std::size_t>(i)], s1[0]);
  }
}

// The wide-format (int16-tier) conv fast path must agree with the exact
// int64 scalar path as well; lock one case where the tier differs from the
// int8 default exercised above.
TEST(BatchDeterminism, QuantizedWideFormatsMatchSequential) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(19);
  auto net = models::build_shallow_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 10, fixed::RoundingScheme::kRoundToNearest);  // Q1.10: int16 tier
  const auto qmodel = qengine::QuantizedGraph::compile(*net, spec);

  const tensor::Tensor images =
      tensor::Tensor::uniform({4, 1, 28, 28}, rng, 0.0f, 1.0f);
  const qengine::QTensor batched = qmodel.forward(images);
  for (std::int64_t i = 0; i < 4; ++i) {
    tensor::Tensor one = image_row(images, i);
    one.reshape({1, 1, 28, 28});
    const qengine::QTensor single = qmodel.forward(one);
    const std::int64_t per = single.numel();
    for (std::int64_t j = 0; j < per; ++j)
      ASSERT_EQ(batched.raw[static_cast<std::size_t>(i * per + j)],
                single.raw[static_cast<std::size_t>(j)]);
  }
}

// The second model family: quantized DeepCaps on the graph executor must be
// batch-invariant too — BN folding, the ConvCaps3D vote path and the
// residual adds all run per sample in order-exact integer arithmetic.
TEST(BatchDeterminism, DeepCapsGraphBatchedMatchesSequentialBitExact) {
  const auto cfg = models::DeepCapsConfig::experiment(28, 1);
  common::Rng rng(41);
  auto net = models::build_deep_caps(cfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      6, 8, fixed::RoundingScheme::kRoundToNearest);
  const auto qmodel = qengine::QuantizedGraph::compile(*net, spec);

  const std::int64_t b = 4;
  const tensor::Tensor images =
      tensor::Tensor::uniform({b, 1, 28, 28}, rng, 0.0f, 1.0f);
  std::vector<float> batched_scores;
  const std::vector<int> batched_labels =
      qmodel.predict_batch(images, &batched_scores);
  const qengine::QTensor batched = qmodel.forward(images);

  for (std::int64_t i = 0; i < b; ++i) {
    tensor::Tensor one = image_row(images, i);
    one.reshape({1, 1, 28, 28});
    const qengine::QTensor single = qmodel.forward(one);
    const std::int64_t per = single.numel();
    for (std::int64_t j = 0; j < per; ++j)
      ASSERT_EQ(batched.raw[static_cast<std::size_t>(i * per + j)],
                single.raw[static_cast<std::size_t>(j)])
          << "quantized DeepCaps batched forward diverges at sample " << i
          << " elem " << j;
    std::vector<float> s1;
    const std::vector<int> l1 = qmodel.predict_batch(one, &s1);
    EXPECT_EQ(batched_labels[static_cast<std::size_t>(i)], l1[0]);
    EXPECT_EQ(batched_scores[static_cast<std::size_t>(i)], s1[0]);
  }
}

// ---- Model replication -----------------------------------------------------

TEST(Replication, ReplicaForwardIsBitIdentical) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(23);
  auto net = models::build_shallow_caps(cfg, rng);
  auto replica = models::replicate_shallow_caps(cfg, *net);

  const tensor::Tensor images =
      tensor::Tensor::uniform({2, 1, 28, 28}, rng, 0.0f, 1.0f);
  const tensor::Tensor a = net->forward(images, nn::Phase::kEval);
  const tensor::Tensor b = replica->forward(images, nn::Phase::kEval);
  ASSERT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Replication, CopyParametersRejectsMismatchedArchitectures) {
  common::Rng rng(29);
  auto a = models::build_shallow_caps(models::ShallowCapsConfig::experiment(),
                                      rng);
  models::ShallowCapsConfig other = models::ShallowCapsConfig::experiment();
  other.conv_channels = 16;
  auto b = models::build_shallow_caps(other, rng);
  EXPECT_THROW(nn::copy_parameters(*b, *a), qcaps::Error);
}

// ---- InferenceServer end-to-end --------------------------------------------

TEST(InferenceServer, ServesRequestsWithCorrectResultsAndFifoSequences) {
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>());
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 20; ++i)
    futures.push_back(
        server.submit("echo", tiny_image(0.01f * static_cast<float>(i))));
  for (int i = 0; i < 20; ++i) {
    const serve::InferenceResult res =
        futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(res.prediction.label, i % 10);
    EXPECT_EQ(res.sequence, static_cast<std::uint64_t>(i));
    EXPECT_GE(res.batch_size, 1);
  }
  const serve::ModelStats stats = server.stats("echo");
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_EQ(stats.images, 20u);
  EXPECT_GE(stats.batches, 1u);
  server.shutdown();
}

TEST(InferenceServer, CoalescesConcurrentRequestsIntoBatches) {
  EchoBackend::forwards = 0;
  EchoBackend::largest_forward = 0;
  serve::ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.batch_window = std::chrono::microseconds(2000);
  serve::InferenceServer server;
  // The 20 ms per-forward delay guarantees a queue builds up behind the
  // first batch, so later batches must coalesce.
  server.add_model("echo", std::make_unique<EchoBackend>(20ms), cfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 24; ++i)
    futures.push_back(server.submit("echo", tiny_image(0.05f)));
  std::int64_t max_batch_size = 0;
  for (auto& f : futures)
    max_batch_size = std::max(max_batch_size, f.get().batch_size);
  EXPECT_GT(max_batch_size, 1);
  EXPECT_LT(EchoBackend::forwards.load(), 24);
  const serve::ModelStats stats = server.stats("echo");
  EXPECT_EQ(stats.images, 24u);
  EXPECT_GT(stats.mean_batch, 1.0);
  EXPECT_EQ(stats.max_batch_seen, max_batch_size);
  server.shutdown();
}

TEST(InferenceServer, ComputeBatchTilesLargeBatches) {
  EchoBackend::forwards = 0;
  EchoBackend::largest_forward = 0;
  serve::ServerConfig cfg;
  cfg.max_batch = 16;
  cfg.compute_batch = 4;
  cfg.batch_window = std::chrono::microseconds(2000);
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(5ms), cfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(
        server.submit("echo", tiny_image(0.01f * static_cast<float>(i))));
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().prediction.label,
              i % 10);
  // Forwards never exceeded the compute tile even when coalescing beyond it.
  EXPECT_LE(EchoBackend::largest_forward.load(), 4);
  server.shutdown();
}

TEST(InferenceServer, FailedBatchFailsOnlyItsRequests) {
  serve::ServerConfig cfg;
  cfg.max_batch = 1;  // isolate the poisoned request in its own batch
  serve::InferenceServer server;
  server.add_model("echo",
                   std::make_unique<EchoBackend>(0ms, /*poison=*/0.5f), cfg);
  auto ok_before = server.submit("echo", tiny_image(0.2f));
  auto poisoned = server.submit("echo", tiny_image(0.5f));
  auto ok_after = server.submit("echo", tiny_image(0.3f));
  EXPECT_EQ(ok_before.get().prediction.label, 0);  // 20 % 10
  EXPECT_THROW(poisoned.get(), qcaps::Error);
  EXPECT_EQ(ok_after.get().prediction.label, 0);  // 30 % 10
  server.shutdown();
}

TEST(InferenceServer, ShutdownDrainsPendingRequests) {
  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(5ms), cfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(server.submit("echo", tiny_image(0.07f)));
  server.shutdown();  // close + drain + join
  for (auto& f : futures) EXPECT_EQ(f.get().prediction.label, 7);
  EXPECT_EQ(server.stats("echo").images, 12u);
}

TEST(InferenceServer, RejectsUnknownModelAndDuplicateRegistration) {
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>());
  EXPECT_THROW(server.submit("nope", tiny_image(0.1f)), qcaps::Error);
  EXPECT_THROW(server.add_model("echo", std::make_unique<EchoBackend>()),
               qcaps::Error);
  server.shutdown();
}

TEST(InferenceServer, RemoveModelDrainsAndFreesTheName) {
  // The qgraph search registers one short-lived model per candidate graph;
  // remove_model must drain in-flight work, reject later submits, and let
  // the name be reused for the next candidate.
  serve::InferenceServer server;
  server.add_model("cand", std::make_unique<EchoBackend>(5ms));
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(server.submit("cand", tiny_image(0.04f)));
  server.remove_model("cand");
  for (auto& f : futures) EXPECT_EQ(f.get().prediction.label, 4);
  EXPECT_THROW(server.submit("cand", tiny_image(0.1f)), qcaps::Error);
  EXPECT_THROW(server.remove_model("cand"), qcaps::Error);

  server.add_model("cand", std::make_unique<EchoBackend>());
  EXPECT_EQ(server.submit("cand", tiny_image(0.07f)).get().prediction.label, 7);
  server.shutdown();
}

// Records the OpenMP team size each forward would get.
class TeamSizeBackend final : public serve::ModelBackend {
 public:
  const std::string& name() const override { return name_; }
  std::vector<serve::Prediction> predict_batch(
      const tensor::Tensor& images) override {
#ifdef _OPENMP
    std::lock_guard<std::mutex> lk(mu);
    seen.push_back(omp_get_max_threads());
#endif
    return std::vector<serve::Prediction>(
        static_cast<std::size_t>(images.dim(0)), serve::Prediction{0, 0.0f});
  }
  std::unique_ptr<serve::ModelBackend> clone() const override {
    return std::make_unique<TeamSizeBackend>();
  }

  static inline std::mutex mu;
  static inline std::vector<int> seen;

 private:
  std::string name_ = "team";
};

TEST(InferenceServer, DefaultIntraOpThreadsSplitsTheCallersTeam) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  for (int workers : {1, 2}) {
    TeamSizeBackend::seen.clear();
    serve::InferenceServer server;
    serve::ServerConfig cfg;
    cfg.num_workers = workers;
    server.add_model("team", std::make_unique<TeamSizeBackend>(), cfg);
    std::vector<std::future<serve::InferenceResult>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(server.submit("team", tiny_image(0.0f)));
    for (auto& f : futures) f.get();
    server.shutdown();
    ASSERT_FALSE(TeamSizeBackend::seen.empty());
    for (int team : TeamSizeBackend::seen)
      EXPECT_EQ(team, 4 / workers) << workers << " workers";
  }
  omp_set_num_threads(saved);
#endif
}

TEST(InferenceServer, ServedFp32PredictionsMatchDirectModel) {
  const auto cfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(31);
  auto net = models::build_shallow_caps(cfg, rng);

  serve::ServerConfig scfg;
  scfg.max_batch = 4;
  serve::InferenceServer server;
  server.add_model("shallow",
                   std::make_unique<serve::NetworkBackend>(
                       "shallow",
                       [&cfg, src = net.get()] {
                         return models::replicate_shallow_caps(cfg, *src);
                       }),
                   scfg);

  const tensor::Tensor images =
      tensor::Tensor::uniform({5, 1, 28, 28}, rng, 0.0f, 1.0f);
  std::vector<float> direct_scores;
  const std::vector<int> direct = net->predict_batch(images, &direct_scores);

  std::vector<std::future<serve::InferenceResult>> futures;
  for (std::int64_t i = 0; i < 5; ++i)
    futures.push_back(server.submit("shallow", image_row(images, i)));
  for (std::int64_t i = 0; i < 5; ++i) {
    const serve::InferenceResult res =
        futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(res.prediction.label, direct[static_cast<std::size_t>(i)]);
    EXPECT_EQ(res.prediction.score,
              direct_scores[static_cast<std::size_t>(i)]);
  }
  server.shutdown();
}

// ---- Quantized DeepCaps through the server ---------------------------------
//
// The int8 serving path must cover both model families: the QuantizedBackend
// compiles DeepCaps through the same quantized-graph executor, and every
// server guarantee (batching bit-exactness, graceful drain, per-request
// error isolation, multi-client concurrency) holds unchanged.

struct DeepCapsServeFixture {
  DeepCapsServeFixture()
      : rng(43),
        net(models::build_deep_caps(models::DeepCapsConfig::experiment(28, 1),
                                    rng)),
        spec(core::NetworkQuantSpec::uniform(
            6, 8, fixed::RoundingScheme::kRoundToNearest)),
        direct(qengine::QuantizedGraph::compile(*net, spec)) {}

  tensor::Tensor image(float seed_value) const {
    tensor::Tensor t({1, 28, 28});
    for (std::int64_t i = 0; i < t.numel(); ++i)
      t[i] = 0.5f + 0.4f * std::sin(seed_value + 0.01f * static_cast<float>(i));
    return t;
  }

  common::Rng rng;
  std::unique_ptr<nn::Network> net;
  core::NetworkQuantSpec spec;
  qengine::QuantizedGraph direct;
};

TEST(InferenceServerDeepCaps, ServedQuantizedPredictionsMatchDirectModel) {
  DeepCapsServeFixture fx;
  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window = std::chrono::microseconds(500);
  serve::InferenceServer server;
  server.add_model("deepcaps-int8",
                   std::make_unique<serve::QuantizedBackend>("deepcaps-int8",
                                                             *fx.net, fx.spec),
                   cfg);
  constexpr int kRequests = 8;
  tensor::Tensor stacked({kRequests, 1, 28, 28});
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    const tensor::Tensor img = fx.image(static_cast<float>(i));
    std::memcpy(stacked.data() + i * img.numel(), img.data(),
                sizeof(float) * static_cast<std::size_t>(img.numel()));
    futures.push_back(server.submit("deepcaps-int8", img));
  }
  std::vector<float> direct_scores;
  const std::vector<int> direct = fx.direct.predict_batch(stacked,
                                                          &direct_scores);
  bool coalesced = false;
  for (int i = 0; i < kRequests; ++i) {
    const serve::InferenceResult res =
        futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(res.prediction.label, direct[static_cast<std::size_t>(i)]);
    EXPECT_EQ(res.prediction.score,
              direct_scores[static_cast<std::size_t>(i)]);
    coalesced = coalesced || res.batch_size > 1;
  }
  server.shutdown();
  // Not asserted (timing-dependent), but batching usually engages:
  (void)coalesced;
}

TEST(InferenceServerDeepCaps, ShutdownDrainsPendingQuantizedRequests) {
  DeepCapsServeFixture fx;
  serve::ServerConfig cfg;
  cfg.max_batch = 2;
  serve::InferenceServer server;
  server.add_model("deepcaps-int8",
                   std::make_unique<serve::QuantizedBackend>("deepcaps-int8",
                                                             *fx.net, fx.spec),
                   cfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  tensor::Tensor stacked({6, 1, 28, 28});
  for (int i = 0; i < 6; ++i) {
    const tensor::Tensor img = fx.image(0.3f * static_cast<float>(i));
    std::memcpy(stacked.data() + i * img.numel(), img.data(),
                sizeof(float) * static_cast<std::size_t>(img.numel()));
    futures.push_back(server.submit("deepcaps-int8", img));
  }
  server.shutdown();  // close + drain + join: every future must resolve
  const std::vector<int> direct = fx.direct.predict_batch(stacked);
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().prediction.label,
              direct[static_cast<std::size_t>(i)]);
  EXPECT_EQ(server.stats("deepcaps-int8").images, 6u);
}

TEST(InferenceServerDeepCaps, MalformedRequestFailsWithoutPoisoningOthers) {
  DeepCapsServeFixture fx;
  serve::ServerConfig cfg;
  cfg.max_batch = 1;  // isolate each request in its own forward
  serve::InferenceServer server;
  server.add_model("deepcaps-int8",
                   std::make_unique<serve::QuantizedBackend>("deepcaps-int8",
                                                             *fx.net, fx.spec),
                   cfg);
  auto ok_before = server.submit("deepcaps-int8", fx.image(0.1f));
  // Wrong channel count: the integer conv rejects it inside the backend.
  auto bad = server.submit("deepcaps-int8", tensor::Tensor({3, 28, 28}));
  auto ok_after = server.submit("deepcaps-int8", fx.image(0.2f));
  EXPECT_NO_THROW(ok_before.get());
  EXPECT_THROW(bad.get(), qcaps::Error);
  EXPECT_NO_THROW(ok_after.get());
  server.shutdown();
}

TEST(InferenceServerDeepCapsStress, ConcurrentClientsBitExactOnWorkerPool) {
  DeepCapsServeFixture fx;
  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.num_workers = 2;
  cfg.batch_window = std::chrono::microseconds(200);
  serve::InferenceServer server;
  server.add_model("deepcaps-int8",
                   std::make_unique<serve::QuantizedBackend>("deepcaps-int8",
                                                             *fx.net, fx.spec),
                   cfg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  // Direct answers for every distinct image code, computed once up front.
  tensor::Tensor stacked({kClients * kPerClient, 1, 28, 28});
  for (int code = 0; code < kClients * kPerClient; ++code) {
    const tensor::Tensor img = fx.image(0.17f * static_cast<float>(code));
    std::memcpy(stacked.data() + code * img.numel(), img.data(),
                sizeof(float) * static_cast<std::size_t>(img.numel()));
  }
  const std::vector<int> want = fx.direct.predict_batch(stacked);

  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &fx, &want, &wrong, c] {
      serve::InferenceClient client(server, "deepcaps-int8");
      for (int i = 0; i < kPerClient; ++i) {
        const int code = c * kPerClient + i;
        const serve::ClientResult res =
            client.classify(fx.image(0.17f * static_cast<float>(code)));
        if (res.prediction.label != want[static_cast<std::size_t>(code)])
          wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  const serve::ModelStats stats = server.stats("deepcaps-int8");
  EXPECT_EQ(stats.images,
            static_cast<std::uint64_t>(kClients * kPerClient));
  server.shutdown();
}

TEST(InferenceServerStress, ConcurrentClientsOnMultiWorkerPool) {
  EchoBackend::forwards = 0;
  serve::ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.num_workers = 4;
  cfg.batch_window = std::chrono::microseconds(200);
  cfg.queue_capacity = 64;  // exercise producer backpressure too
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(1ms), cfg);

  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &wrong, c] {
      serve::InferenceClient client(server, "echo");
      for (int i = 0; i < kPerClient; ++i) {
        const int code = (c * kPerClient + i) % 10;
        const serve::ClientResult res =
            client.classify(tiny_image(0.01f * static_cast<float>(code)));
        if (res.prediction.label != code) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  const serve::ModelStats stats = server.stats("echo");
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.images, static_cast<std::uint64_t>(kClients * kPerClient));
  server.shutdown();
}

// ---- Robustness: shutdown of a full queue, priorities, deadlines -----------

TEST(RequestQueue, CloseWhileFullWakesBlockedProducers) {
  // Documented contract (request_queue.hpp): producers blocked on a FULL
  // bounded queue must wake on close() and fail their push — not deadlock
  // waiting for capacity no drained worker will ever free again.
  serve::RequestQueue queue(/*capacity=*/1);
  queue.push(tiny_image(0.1f));  // queue is now full
  constexpr int kProducers = 3;
  std::atomic<int> woken{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i)
    producers.emplace_back([&queue, &woken] {
      EXPECT_THROW(queue.push(tiny_image(0.5f)), qcaps::Error);
      woken.fetch_add(1);
    });
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(woken.load(), 0);  // all blocked on capacity
  queue.close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(woken.load(), kProducers);
  // The request accepted before close is still drainable.
  EXPECT_EQ(queue.pop_batch(4).size(), 1u);
  EXPECT_TRUE(queue.pop_batch(4).empty());
}

TEST(RequestQueue, PriorityClassesDrainHighestFirst) {
  serve::RequestQueue queue;
  serve::SubmitOptions low, normal, high;
  low.priority = serve::Priority::kLow;
  high.priority = serve::Priority::kHigh;
  queue.push(tiny_image(0.1f), low);
  queue.push(tiny_image(0.2f), normal);
  queue.push(tiny_image(0.3f), high);
  queue.push(tiny_image(0.4f), high);
  const auto batch = queue.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  // High class first (FIFO within it), then normal, then low.
  EXPECT_FLOAT_EQ(batch[0].image[0], 0.3f);
  EXPECT_FLOAT_EQ(batch[1].image[0], 0.4f);
  EXPECT_FLOAT_EQ(batch[2].image[0], 0.2f);
  EXPECT_FLOAT_EQ(batch[3].image[0], 0.1f);
}

TEST(RequestQueue, ShedsBelowHighPriorityAtWatermark) {
  serve::RequestQueue queue(/*capacity=*/0, /*shed_watermark=*/2);
  queue.push(tiny_image(0.1f));
  queue.push(tiny_image(0.2f));
  // Depth is at the watermark: normal and low are refused at the door ...
  EXPECT_THROW(queue.push(tiny_image(0.3f)), serve::OverloadError);
  serve::SubmitOptions low;
  low.priority = serve::Priority::kLow;
  EXPECT_THROW(queue.push(tiny_image(0.3f), low), serve::OverloadError);
  // ... but high priority is never shed.
  serve::SubmitOptions high;
  high.priority = serve::Priority::kHigh;
  EXPECT_NO_THROW(queue.push(tiny_image(0.4f), high));
  EXPECT_EQ(queue.total_shed(), 2u);
  EXPECT_EQ(queue.size(), 3u);
  // OverloadError is retryable — the client-visible contract.
  EXPECT_THROW(
      { throw serve::OverloadError("x"); }, serve::RetryableError);
}

TEST(RequestQueue, ExpiredRequestsFailBeforeReachingAConsumer) {
  serve::RequestQueue queue;
  serve::SubmitOptions rushed;
  rushed.timeout = std::chrono::microseconds(1);
  auto doomed = queue.push(tiny_image(0.1f), rushed);
  std::this_thread::sleep_for(5ms);
  auto live = queue.push(tiny_image(0.2f));
  std::uint64_t expired = 0;
  const auto batch = queue.pop_batch(4, std::chrono::microseconds{0},
                                     &expired);
  ASSERT_EQ(batch.size(), 1u);  // only the live request reaches the consumer
  EXPECT_FLOAT_EQ(batch[0].image[0], 0.2f);
  EXPECT_EQ(expired, 1u);
  EXPECT_THROW(doomed.get(), serve::DeadlineError);
  (void)live;
}

// ---- Robustness: fault injection through the server ------------------------

/// Disarms all failpoints on scope exit so a failing assertion cannot leak
/// an armed site into later tests.
struct FailpointGuard {
  ~FailpointGuard() { common::failpoint_disarm_all(); }
};

TEST(InferenceServerRobustness, DeadlineExpiryUnderStalledWorker) {
  FailpointGuard guard;
  // Stall the worker before every pop: requests age out inside the queue
  // and must be failed with DeadlineError before any compute is spent.
  common::FailpointSpec stall;
  stall.action = common::FailpointAction::kSleep;
  stall.delay_ms = 60;
  common::failpoint_arm("serve.batcher.next", stall);

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_window = std::chrono::microseconds{0};
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(), cfg);

  serve::SubmitOptions rushed;
  rushed.timeout = std::chrono::milliseconds(10);
  std::vector<std::future<serve::InferenceResult>> doomed;
  for (int i = 0; i < 3; ++i)
    doomed.push_back(server.submit("echo", tiny_image(0.1f), rushed));
  for (auto& fut : doomed) EXPECT_THROW(fut.get(), serve::DeadlineError);

  // With the stall disarmed the same pool serves normally again.
  common::failpoint_disarm_all();
  EXPECT_EQ(server.submit("echo", tiny_image(0.05f)).get().prediction.label,
            5);
  const serve::ModelStats stats = server.stats("echo");
  EXPECT_GE(stats.expired, 3u);
  EXPECT_EQ(stats.worker_restarts, 0u);  // a stall is not a crash
  server.shutdown();
}

TEST(InferenceServerRobustness, WorkerCrashFailsOnlyInFlightBatch) {
  FailpointGuard guard;
  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(), cfg);

  // Kill the worker exactly once, with its first batch in hand.
  common::FailpointSpec crash;
  crash.max_hits = 1;
  common::failpoint_arm("serve.worker.batch", crash);
  auto killed = server.submit("echo", tiny_image(0.2f));
  EXPECT_THROW(killed.get(), serve::WorkerCrashError);

  // The supervised worker restarted: the pool keeps serving, and the
  // restart is visible in the stats.
  EXPECT_EQ(server.submit("echo", tiny_image(0.07f)).get().prediction.label,
            7);
  const serve::ModelStats stats = server.stats("echo");
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.images, 1u);  // only the post-crash request computed
  server.shutdown();
}

TEST(InferenceServerRobustness, ClientRetriesTransparentlyAcrossCrash) {
  FailpointGuard guard;
  // End-to-end acceptance path: a failpoint kills the worker mid-batch;
  // only that batch fails, the client's bounded retry resubmits, the
  // restarted worker serves the retry, and ModelStats reflects the crash.
  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(), cfg);

  common::FailpointSpec crash;
  crash.max_hits = 1;
  common::failpoint_arm("serve.worker.batch", crash);

  serve::ClientConfig ccfg;
  ccfg.max_retries = 2;
  ccfg.backoff = std::chrono::microseconds(500);
  serve::InferenceClient client(server, "echo", ccfg);
  const serve::ClientResult res = client.classify(tiny_image(0.03f));
  EXPECT_EQ(res.prediction.label, 3);
  EXPECT_GE(res.retries, 1);

  const serve::ModelStats stats = server.stats("echo");
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.images, 1u);
  server.shutdown();

  // Terminal failures must NOT be retried: a deadline miss rethrows
  // immediately even with retry budget left.
  serve::InferenceServer server2;
  serve::ServerConfig cfg2;
  serve::InferenceServer* s2 = &server2;
  s2->add_model("echo", std::make_unique<EchoBackend>(), cfg2);
  common::FailpointSpec stall;
  stall.action = common::FailpointAction::kSleep;
  stall.delay_ms = 50;
  common::failpoint_arm("serve.batcher.next", stall);
  serve::InferenceClient client2(server2, "echo", ccfg);
  serve::SubmitOptions rushed;
  rushed.timeout = std::chrono::milliseconds(5);
  EXPECT_THROW(client2.classify(tiny_image(0.1f), rushed),
               serve::DeadlineError);
  common::failpoint_disarm_all();
  server2.shutdown();
}

TEST(InferenceServerRobustness, ShedOnOverloadKeepsHighPriorityBounded) {
  // Offer ~2x the pool's throughput in low-priority work. The watermark
  // sheds the excess at the door, so the queue a high-priority request
  // waits behind is bounded — its latency stays far below the unbounded-
  // queue worst case. Bounds are deliberately generous for CI machines;
  // the structural asserts (sheds happened, every high-priority request
  // succeeded without shedding) are the real contract.
  constexpr auto kForward = 10ms;
  serve::ServerConfig cfg;
  cfg.max_batch = 1;  // one forward per request: depth == latency backlog
  cfg.batch_window = std::chrono::microseconds{0};
  cfg.shed_watermark = 4;
  serve::InferenceServer server;
  server.add_model("echo", std::make_unique<EchoBackend>(kForward), cfg);

  std::atomic<bool> stop{false};
  std::atomic<int> low_ok{0}, low_shed{0};
  std::vector<std::thread> floods;
  for (int t = 0; t < 2; ++t)
    floods.emplace_back([&] {
      serve::SubmitOptions low;
      low.priority = serve::Priority::kLow;
      // Fire-and-collect: each thread keeps many requests in flight so the
      // offered load genuinely exceeds the one-at-a-time service rate.
      std::vector<std::future<serve::InferenceResult>> futs;
      while (!stop.load()) {
        try {
          futs.push_back(server.submit("echo", tiny_image(0.01f), low));
        } catch (const serve::OverloadError&) {
          low_shed.fetch_add(1);
        }
        std::this_thread::sleep_for(1ms);
      }
      for (auto& f : futs) {
        f.get();  // accepted low-priority work is never dropped
        low_ok.fetch_add(1);
      }
    });

  serve::SubmitOptions high;
  high.priority = serve::Priority::kHigh;
  double worst_ms = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = server.submit("echo", tiny_image(0.02f), high).get();
    EXPECT_EQ(res.prediction.label, 2);
    worst_ms = std::max(
        worst_ms, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    std::this_thread::sleep_for(5ms);
  }
  stop = true;
  for (auto& t : floods) t.join();

  const serve::ModelStats stats = server.stats("echo");
  EXPECT_GT(stats.shed, 0u);  // the overload was real and work was refused
  // Watermark-bounded backlog: a high request waits at most ~(watermark+1)
  // forwards (~50 ms here). 20x slack for loaded CI machines.
  const double bound_ms =
      20.0 * static_cast<double>(cfg.shed_watermark + 1) *
      std::chrono::duration<double, std::milli>(kForward).count();
  EXPECT_LT(worst_ms, bound_ms);
  server.shutdown();
}

TEST(InferenceServerRobustness, CrashInWorkerPoolPreservesBitExactness) {
  FailpointGuard guard;
  // The acceptance scenario on a real quantized model: kill one worker of
  // a 2-worker DeepCaps pool mid-batch. Only that batch's requests fail
  // (the retrying client makes even those succeed), the pool keeps
  // serving, results stay bit-identical to the direct model, and the
  // restart shows up in ModelStats.
  DeepCapsServeFixture fx;
  serve::ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.num_workers = 2;
  serve::InferenceServer server;
  server.add_model("deepcaps-int8",
                   std::make_unique<serve::QuantizedBackend>("deepcaps-int8",
                                                             *fx.net, fx.spec),
                   cfg);
  const std::uint64_t hits_before =
      common::failpoint_hits("serve.worker.batch");
  common::FailpointSpec crash;
  crash.max_hits = 1;
  common::failpoint_arm("serve.worker.batch", crash);

  constexpr int kRequests = 12;
  tensor::Tensor stacked({kRequests, 1, 28, 28});
  serve::ClientConfig ccfg;
  ccfg.max_retries = 3;
  ccfg.backoff = std::chrono::microseconds(500);
  std::atomic<int> wrong{0}, retried{0};
  std::vector<std::thread> clients;
  std::vector<int> want(kRequests, -1);
  for (int i = 0; i < kRequests; ++i) {
    const tensor::Tensor img = fx.image(0.23f * static_cast<float>(i));
    std::memcpy(stacked.data() + i * img.numel(), img.data(),
                sizeof(float) * static_cast<std::size_t>(img.numel()));
  }
  const std::vector<int> direct = fx.direct.predict_batch(stacked);
  for (int i = 0; i < kRequests; ++i)
    clients.emplace_back([&, i] {
      serve::InferenceClient client(server, "deepcaps-int8", ccfg);
      const serve::ClientResult res =
          client.classify(fx.image(0.23f * static_cast<float>(i)));
      if (res.prediction.label != direct[static_cast<std::size_t>(i)])
        wrong.fetch_add(1);
      if (res.retries > 0) retried.fetch_add(1);
    });
  for (auto& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0);
  const serve::ModelStats stats = server.stats("deepcaps-int8");
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(common::failpoint_hits("serve.worker.batch"), hits_before + 1);
  // Every request eventually computed exactly once post-retry.
  EXPECT_EQ(stats.images, static_cast<std::uint64_t>(kRequests));
  server.shutdown();
}

// ---- Robustness: requant-saturation observability --------------------------

TEST(InferenceServerRobustness, SaturationCountersExportedThroughStats) {
  // A 4-bit (Q1.3) ShallowCaps is deep in saturation territory: serving a
  // few images must produce nonzero per-node clamp counters, visible
  // through ModelStats, and trip the configured guardrail.
  const auto mcfg = models::ShallowCapsConfig::experiment();
  common::Rng rng(47);
  auto net = models::build_shallow_caps(mcfg, rng);
  const core::NetworkQuantSpec spec = core::NetworkQuantSpec::uniform(
      3, 3, fixed::RoundingScheme::kRoundToNearest);

  serve::ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.num_workers = 2;  // counters must aggregate across replicas
  cfg.saturation_threshold = 1e-6;
  serve::InferenceServer server;
  server.add_model("shallow-int4",
                   std::make_unique<serve::QuantizedBackend>("shallow-int4",
                                                             *net, spec),
                   cfg);
  std::vector<std::future<serve::InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    tensor::Tensor img({1, 28, 28});
    for (std::int64_t j = 0; j < img.numel(); ++j)
      img[j] = 0.5f + 0.5f * std::sin(static_cast<float>(i + 1) *
                                      0.01f * static_cast<float>(j));
    futures.push_back(server.submit("shallow-int4", img));
  }
  for (auto& fut : futures) fut.get();

  const serve::ModelStats stats = server.stats("shallow-int4");
  ASSERT_FALSE(stats.node_saturation.empty());
  std::uint64_t total_saturated = 0, total_observed = 0;
  for (const auto& node : stats.node_saturation) {
    total_saturated += node.saturated;
    total_observed += node.total;
  }
  EXPECT_GT(total_observed, 0u);
  EXPECT_GT(total_saturated, 0u);  // 4-bit: clamping is guaranteed
  EXPECT_GT(stats.saturation_rate, 0.0);
  EXPECT_TRUE(stats.saturation_flagged);
  server.shutdown();

  // An FP32 backend reports no saturation data at all.
  serve::InferenceServer fp32_server;
  fp32_server.add_model(
      "echo", std::make_unique<EchoBackend>(), serve::ServerConfig{});
  fp32_server.submit("echo", tiny_image(0.1f)).get();
  const serve::ModelStats fp32_stats = fp32_server.stats("echo");
  EXPECT_TRUE(fp32_stats.node_saturation.empty());
  EXPECT_FALSE(fp32_stats.saturation_flagged);
  fp32_server.shutdown();
}

}  // namespace
