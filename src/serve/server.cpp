#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "io/model_serializer.hpp"

namespace qcaps::serve {

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::add_model(const std::string& name,
                                std::unique_ptr<ModelBackend> backend,
                                const ServerConfig& cfg) {
  QCAPS_CHECK_MSG(backend != nullptr, "add_model: null backend");
  QCAPS_CHECK(cfg.max_batch >= 1 && cfg.num_workers >= 1);

  std::lock_guard<std::mutex> lk(mu_);
  QCAPS_CHECK_MSG(!stopped_, "add_model on a stopped server");
  QCAPS_CHECK_MSG(pools_.find(name) == pools_.end(),
                  "model '" << name << "' is already registered");

  // The one place the thread split is decided: by default the workers
  // partition this thread's OpenMP team instead of each spanning it whole.
  ServerConfig resolved = cfg;
#ifdef _OPENMP
  if (resolved.intra_op_threads == 0)
    resolved.intra_op_threads =
        std::max(1, omp_get_max_threads() / cfg.num_workers);
#endif
  auto pool = std::make_unique<ModelPool>(resolved);
  // Build every replica before any worker runs: clone() reads the prototype,
  // which must not be concurrently executing a forward pass.
  pool->replicas.push_back(std::move(backend));
  for (int w = 1; w < cfg.num_workers; ++w)
    pool->replicas.push_back(pool->replicas.front()->clone());

  // Register the pool before spawning threads: if the map insertion threw
  // with workers already running, unwinding would destroy the pool under
  // them (and ~thread on a joinable worker terminates the process).
  ModelPool& p = *pools_.emplace(name, std::move(pool)).first->second;
  for (int w = 0; w < cfg.num_workers; ++w)
    p.workers.emplace_back(
        [&p, backend_ptr = p.replicas[static_cast<std::size_t>(w)].get()] {
          worker_main(p, *backend_ptr);
        });
}

void InferenceServer::add_model(const std::string& name,
                                const std::string& qcg_path,
                                const ServerConfig& cfg) {
  // One load, N replicas: QuantizedGraph copies duplicate the zero-copy
  // weight views, so the pool's clone() fan-out never re-packs weights.
  add_model(name,
            std::make_unique<QuantizedBackend>(name, io::load_graph(qcg_path)),
            cfg);
}

namespace {

// Fail every unfulfilled request of a crashed worker's in-flight batch.
// set_exception on an already-satisfied promise throws future_error; swallow
// it so a partially-fulfilled batch cannot re-kill the recovering worker.
void fail_batch(Batch& batch, const std::exception_ptr& err) {
  for (auto& req : batch.requests) {
    try {
      req.result.set_exception(err);
    } catch (const std::future_error&) {
    }
  }
}

}  // namespace

// Serve one batch end to end: compute (optionally tiled), update counters,
// fulfil promises. Compute failures are isolated per batch: the batch's own
// requests fail with the real error, and the caller's loop continues.
void InferenceServer::serve_batch(ModelPool& pool, ModelBackend& backend,
                                  Batch& batch) {
  const std::int64_t tile = pool.cfg.compute_batch;
  const std::int64_t bsz = batch.size();
  try {
    std::vector<Prediction> preds;
    if (tile <= 0 || tile >= bsz) {
      preds = backend.predict_batch(batch.images);
    } else {
      // Slice the coalesced batch into cache-sized compute tiles.
      preds.reserve(static_cast<std::size_t>(bsz));
      const std::int64_t per_image = batch.images.numel() / bsz;
      tensor::Shape tile_shape = batch.images.shape();
      for (std::int64_t s0 = 0; s0 < bsz; s0 += tile) {
        const std::int64_t n = std::min<std::int64_t>(tile, bsz - s0);
        tile_shape[0] = n;
        tensor::Tensor slice(tile_shape);
        std::copy_n(batch.images.data() + s0 * per_image, n * per_image,
                    slice.data());
        const std::vector<Prediction> part = backend.predict_batch(slice);
        preds.insert(preds.end(), part.begin(), part.end());
      }
    }
    QCAPS_CHECK_MSG(static_cast<std::int64_t>(preds.size()) == bsz,
                    backend.name() << ": backend returned " << preds.size()
                                   << " predictions for a batch of " << bsz);
    // Update counters before fulfilling promises so a client that just
    // received its result observes stats covering that result.
    pool.images.fetch_add(static_cast<std::uint64_t>(bsz),
                          std::memory_order_relaxed);
    pool.batches.fetch_add(1, std::memory_order_relaxed);
    std::int64_t seen = pool.max_batch_seen.load(std::memory_order_relaxed);
    while (bsz > seen && !pool.max_batch_seen.compare_exchange_weak(
                             seen, bsz, std::memory_order_relaxed)) {
    }
    const auto done = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < bsz; ++i) {
      InferenceRequest& req = batch.requests[static_cast<std::size_t>(i)];
      InferenceResult res;
      res.prediction = preds[static_cast<std::size_t>(i)];
      res.sequence = req.sequence;
      res.batch_size = bsz;
      res.latency_ms = std::chrono::duration<double, std::milli>(
                           done - req.enqueued_at)
                           .count();
      req.result.set_value(res);
    }
  } catch (...) {
    // A failed batch fails each of its requests; the worker itself and the
    // rest of the queue keep going.
    fail_batch(batch, std::current_exception());
  }

  // Saturation guardrail: after serving, check the backend's aggregate
  // requant-saturation rate against the configured threshold and warn once
  // per pool. The flag stays visible through stats() either way.
  if (pool.cfg.saturation_threshold > 0.0 &&
      !pool.saturation_warned.load(std::memory_order_relaxed)) {
    double saturated = 0.0, total = 0.0;
    for (const auto& node : backend.saturation()) {
      saturated += static_cast<double>(node.saturated);
      total += static_cast<double>(node.total);
    }
    if (total > 0.0 && saturated / total > pool.cfg.saturation_threshold &&
        !pool.saturation_warned.exchange(true, std::memory_order_relaxed)) {
      QCAPS_WARN << backend.name() << ": requant saturation rate "
                 << saturated / total << " exceeds threshold "
                 << pool.cfg.saturation_threshold
                 << " — the quantization spec is likely too narrow "
                    "(see docs/robustness.md)";
    }
  }
}

void InferenceServer::worker_main(ModelPool& pool, ModelBackend& backend) {
#ifdef _OPENMP
  // omp_set_num_threads sets a per-thread ICV: it caps the team size of
  // parallel regions started from THIS worker without affecting the others.
  if (pool.cfg.intra_op_threads > 0)
    omp_set_num_threads(pool.cfg.intra_op_threads);
#endif
  Batcher batcher(pool.queue,
                  BatcherConfig{pool.cfg.max_batch, pool.cfg.batch_window,
                                &pool.expired});
  // Supervision loop. serve_batch isolates compute failures per batch; an
  // exception reaching THIS level means the worker itself died outside that
  // isolation (fault injection at "serve.worker.batch"/"serve.batcher.next",
  // or a genuine bug in the serving fabric). The in-flight batch — the only
  // work this worker held — fails with retryable WorkerCrashError, the
  // restart is counted, and the loop re-enters as a fresh worker so the
  // pool never shrinks.
  for (;;) {
    std::optional<Batch> batch;
    try {
      batch = batcher.next();
      if (!batch) return;  // queue closed and drained: clean exit
      // Fault-injection site modelling a worker dying with a batch in hand
      // (after the queue handed it over, before per-batch isolation).
      QCAPS_FAILPOINT("serve.worker.batch");
      serve_batch(pool, backend, *batch);
    } catch (...) {
      if (batch)
        fail_batch(*batch, std::make_exception_ptr(WorkerCrashError(
                               backend.name() +
                               ": worker crashed with this batch in flight; "
                               "the worker restarted and the request may be "
                               "retried")));
      pool.worker_restarts.fetch_add(1, std::memory_order_relaxed);
      QCAPS_WARN << backend.name()
                 << ": worker crashed and restarted (in-flight batch "
                 << (batch ? batch->size() : 0) << " requests failed)";
    }
  }
}

std::future<InferenceResult> InferenceServer::submit(
    const std::string& model, tensor::Tensor image,
    const SubmitOptions& opts) {
  if (image.ndim() == 4 && image.dim(0) == 1)
    image.reshape({image.dim(1), image.dim(2), image.dim(3)});
  QCAPS_CHECK_MSG(image.ndim() == 3,
                  "submit expects a single [C, H, W] image, got "
                      << tensor::shape_to_string(image.shape()));
  return pool_for(model).queue.push(std::move(image), opts);
}

ModelStats InferenceServer::stats(const std::string& model) const {
  const ModelPool& p = pool_for(model);
  ModelStats s;
  s.requests = p.queue.total_pushed();
  s.images = p.images.load(std::memory_order_relaxed);
  s.batches = p.batches.load(std::memory_order_relaxed);
  s.max_batch_seen = p.max_batch_seen.load(std::memory_order_relaxed);
  s.mean_batch =
      s.batches == 0 ? 0.0
                     : static_cast<double>(s.images) /
                           static_cast<double>(s.batches);
  s.shed = p.queue.total_shed();
  s.expired = p.expired.load(std::memory_order_relaxed);
  s.worker_restarts = p.worker_restarts.load(std::memory_order_relaxed);
  s.queue_depth = p.queue.size();
  // Saturation counters are shared across replicas (one atomic block per
  // compiled graph), so the prototype replica sees the whole pool's counts.
  s.node_saturation = p.replicas.front()->saturation();
  std::uint64_t saturated = 0, total = 0;
  for (const auto& node : s.node_saturation) {
    saturated += node.saturated;
    total += node.total;
  }
  s.saturation_rate = total == 0 ? 0.0
                                 : static_cast<double>(saturated) /
                                       static_cast<double>(total);
  s.saturation_flagged = p.cfg.saturation_threshold > 0.0 &&
                         s.saturation_rate > p.cfg.saturation_threshold;
  return s;
}

std::vector<std::string> InferenceServer::model_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(pools_.size());
  for (const auto& [name, _] : pools_) out.push_back(name);
  return out;
}

void InferenceServer::remove_model(const std::string& name) {
  // Take the pool out of the map first so new submits fail fast with the
  // unknown-model error, then tear it down outside the lock (workers may be
  // mid-batch; joining under mu_ would stall every other pool's submits).
  std::unique_ptr<ModelPool> pool;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = pools_.find(name);
    QCAPS_CHECK_MSG(it != pools_.end(),
                    "remove_model: unknown model '" << name << "'");
    pool = std::move(it->second);
    pools_.erase(it);
  }
  pool->queue.close();  // workers drain pending requests, then exit
  for (auto& t : pool->workers)
    if (t.joinable()) t.join();
}

void InferenceServer::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopped_) return;
  stopped_ = true;
  for (auto& [_, pool] : pools_) pool->queue.close();
  for (auto& [_, pool] : pools_)
    for (auto& t : pool->workers)
      if (t.joinable()) t.join();
}

InferenceServer::ModelPool& InferenceServer::pool_for(
    const std::string& model) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = pools_.find(model);
  QCAPS_CHECK_MSG(it != pools_.end(),
                  "unknown model '" << model << "' (registered: "
                                    << pools_.size() << ")");
  return *it->second;
}

}  // namespace qcaps::serve
