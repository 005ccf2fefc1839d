#include "nn/serialize.hpp"

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "common/crc32.hpp"

namespace qcaps::nn {

namespace {
// Version 3: parameters, then non-trainable state tensors (batch-norm
// running statistics), then a CRC-32C of everything before it. Older files
// are rejected: version 1 (params only) produces silently wrong eval
// behaviour for models with batch norm, and version 2 (no checksum) cannot
// tell a flipped bit from a trained weight.
constexpr std::uint64_t kMagic = 0x51434150534e4533ULL;  // "QCAPSNE3"

// Writes through a running CRC-32C.
struct CrcWriter {
  std::ofstream& out;
  std::uint32_t crc = 0;

  void put(const void* p, std::size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    crc = common::crc32(p, n, crc);
  }
};

// Reads through a running CRC-32C; a short read means a truncated file.
struct CrcReader {
  std::ifstream& in;
  const std::string& path;
  std::uint32_t crc = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw CheckpointError(path + ": " + what);
  }
  void get(void* p, std::size_t n) {
    in.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n) fail("truncated file");
    crc = common::crc32(p, n, crc);
  }
};

void write_tensor_group(CrcWriter& out,
                        const std::vector<tensor::Tensor*>& tensors) {
  const std::uint64_t count = tensors.size();
  out.put(&count, sizeof(count));
  for (const auto* t : tensors) {
    const std::uint64_t rank = t->shape().size();
    out.put(&rank, sizeof(rank));
    for (const auto d : t->shape()) {
      const std::int64_t dd = d;
      out.put(&dd, sizeof(dd));
    }
    out.put(t->data(), static_cast<std::size_t>(t->numel()) * sizeof(float));
  }
}

void read_tensor_group(CrcReader& in,
                       const std::vector<tensor::Tensor*>& tensors) {
  std::uint64_t count = 0;
  in.get(&count, sizeof(count));
  if (count != tensors.size())
    in.fail("tensor count mismatch (file " + std::to_string(count) +
            ", network " + std::to_string(tensors.size()) + ")");
  for (auto* t : tensors) {
    std::uint64_t rank = 0;
    in.get(&rank, sizeof(rank));
    if (rank != t->shape().size()) in.fail("rank mismatch");
    for (const auto d : t->shape()) {
      std::int64_t dd = 0;
      in.get(&dd, sizeof(dd));
      if (dd != d) in.fail("shape mismatch");
    }
    in.get(t->data(), static_cast<std::size_t>(t->numel()) * sizeof(float));
  }
}
}  // namespace

void save_params(Network& net, const std::string& path) {
  // The pid keeps concurrent writers of one path (parallel test binaries
  // training the same cached model) off each other's temporary file.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  QCAPS_CHECK_MSG(out.good(), "cannot open " << tmp << " for writing");
  CrcWriter w{out};
  w.put(&kMagic, sizeof(kMagic));
  write_tensor_group(w, net.params());
  write_tensor_group(w, net.state());
  const std::uint32_t crc = w.crc;
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.close();
  std::error_code ec;
  if (out) std::filesystem::rename(tmp, path, ec);
  if (!out || ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw qcaps::Error("write failure on " + path +
                       (ec ? ": " + ec.message() : std::string()));
  }
}

bool load_params(Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  CrcReader r{in, path};
  std::uint64_t magic = 0;
  r.get(&magic, sizeof(magic));
  if (magic != kMagic) r.fail("not a current qcaps parameter file");
  read_tensor_group(r, net.params());
  read_tensor_group(r, net.state());
  const std::uint32_t want = r.crc;
  std::uint32_t stored = 0;
  r.get(&stored, sizeof(stored));
  if (stored != want) r.fail("checksum mismatch");
  if (in.peek() != std::ifstream::traits_type::eof())
    r.fail("trailing bytes after the checksum");
  return true;
}

void copy_parameters(Network& dst, Network& src) {
  const auto copy_group = [](const std::vector<tensor::Tensor*>& to,
                             const std::vector<tensor::Tensor*>& from) {
    QCAPS_CHECK_MSG(to.size() == from.size(),
                    "copy_parameters: tensor count mismatch (" << to.size()
                        << " vs " << from.size() << ")");
    for (std::size_t i = 0; i < to.size(); ++i) {
      QCAPS_CHECK_MSG(to[i]->same_shape(*from[i]),
                      "copy_parameters: shape mismatch at tensor " << i);
      *to[i] = *from[i];
    }
  };
  copy_group(dst.params(), src.params());
  copy_group(dst.state(), src.state());
}

}  // namespace qcaps::nn
