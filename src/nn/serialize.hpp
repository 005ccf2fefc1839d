// Binary save/load of a network's parameters (for caching trained models
// across benches/examples so each binary does not retrain from scratch).
//
// File layout: an 8-byte magic, the parameter group, the state group (each
// a tensor count, then per tensor its rank, dims and float data), and a
// trailing CRC-32C (common/crc32.hpp) over every byte before it.
#pragma once

#include <string>

#include "common/error.hpp"
#include "nn/network.hpp"

namespace qcaps::nn {

/// A parameter file that cannot be loaded into the network: wrong magic
/// (another format or an older version), tensor count or shape mismatch,
/// truncation, checksum mismatch or trailing bytes.
class CheckpointError : public qcaps::Error {
 public:
  using qcaps::Error::Error;
};

/// Write all parameters (shapes + data) to `path` atomically: the bytes go
/// to a temporary file in the same directory, which is then renamed over
/// `path`, so readers see the old file or the complete new one. Throws on
/// I/O failure.
void save_params(Network& net, const std::string& path);

/// Load parameters written by save_params; shapes must match exactly.
/// Returns false if the file does not exist; throws CheckpointError when it
/// cannot be loaded (the network may then hold a partial load).
bool load_params(Network& net, const std::string& path);

/// Copy every parameter and persistent state tensor from `src` into `dst`.
/// The architectures must match (tensor counts and shapes are checked).
/// This is how the serving worker pools build per-worker model replicas
/// without round-tripping through the filesystem.
void copy_parameters(Network& dst, Network& src);

}  // namespace qcaps::nn
