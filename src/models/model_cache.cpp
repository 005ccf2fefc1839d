#include "models/model_cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <functional>

#include "common/logging.hpp"
#include "nn/serialize.hpp"

namespace qcaps::models {

std::string model_cache_dir() {
  const char* env = std::getenv("QCAPS_MODEL_CACHE");
  std::string dir = env != nullptr ? env : "qcaps_model_cache";
  std::filesystem::create_directories(dir);
  return dir;
}

namespace {
// Loads the cached parameters into a freshly built network, or trains one
// and caches it. A cache file that cannot be loaded (an older format, a
// flipped bit, a truncated write) is a miss: the model is rebuilt from its
// initial seed, retrained, and the file atomically replaced.
TrainedModel finish(const std::function<std::unique_ptr<nn::Network>()>& build,
                    const data::DataSplit& split, const std::string& path,
                    const nn::TrainConfig& train_cfg) {
  TrainedModel out;
  auto net = build();
  try {
    out.from_cache = nn::load_params(*net, path);
  } catch (const nn::CheckpointError& e) {
    QCAPS_WARN << "discarding unusable model cache: " << e.what();
    net = build();
  }
  if (out.from_cache) {
    out.fp32_accuracy = nn::evaluate(*net, split.test);
    QCAPS_INFO << net->name() << " loaded from cache (" << path
               << "), FP32 accuracy " << out.fp32_accuracy * 100.0f << "%";
  } else {
    QCAPS_INFO << net->name() << " training from scratch (cache miss: " << path
               << ")";
    const auto result = nn::train(*net, split.train, split.test, train_cfg);
    out.fp32_accuracy = result.test_accuracy;
    nn::save_params(*net, path);
  }
  out.net = std::move(net);
  return out;
}
}  // namespace

TrainedModel get_trained_shallow_caps(const data::DataSplit& split,
                                      const std::string& dataset_tag,
                                      const nn::TrainConfig& train_cfg,
                                      std::uint64_t init_seed) {
  auto cfg = ShallowCapsConfig::experiment();
  cfg.in_channels = split.train.channels();
  cfg.in_size = split.train.height();
  const std::string path = model_cache_dir() + "/shallowcaps_" + dataset_tag +
                           "_s" + std::to_string(init_seed) + ".bin";
  return finish(
      [&] {
        common::Rng rng(init_seed);
        return build_shallow_caps(cfg, rng);
      },
      split, path, train_cfg);
}

TrainedModel get_trained_deep_caps(const data::DataSplit& split,
                                   const std::string& dataset_tag,
                                   const nn::TrainConfig& train_cfg,
                                   std::uint64_t init_seed) {
  auto cfg = DeepCapsConfig::experiment(split.train.height(),
                                        split.train.channels());
  const std::string path = model_cache_dir() + "/deepcaps_" + dataset_tag +
                           "_s" + std::to_string(init_seed) + ".bin";
  return finish(
      [&] {
        common::Rng rng(init_seed);
        return build_deep_caps(cfg, rng);
      },
      split, path, train_cfg);
}

}  // namespace qcaps::models
