#include "common/crc32.hpp"

#include <array>
#include <cstring>

namespace qcaps::common {

namespace {

// Software CRC-32C: slice-by-8 (built once). A byte-at-a-time table runs at
// a few hundred MB/s and would cost more than the entire rest of
// load_graph; eight parallel table lookups per 8-byte chunk break the
// per-byte dependency chain and keep the scan in the GB/s range.
std::uint32_t crc32c_sw(const std::uint8_t* p, std::size_t size,
                        std::uint32_t crc) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (int s = 1; s < 8; ++s)
        t[s][i] = t[0][t[s - 1][i] & 0xFFu] ^ (t[s - 1][i] >> 8);
    return t;
  }();
  while (size >= 8) {
    // Little-endian load of the next 8 bytes, built portably so crc32
    // itself stays arch-independent (it must return the same value on any
    // host).
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i)
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    w ^= crc;
    crc = tables[7][w & 0xFFu] ^ tables[6][(w >> 8) & 0xFFu] ^
          tables[5][(w >> 16) & 0xFFu] ^ tables[4][(w >> 24) & 0xFFu] ^
          tables[3][(w >> 32) & 0xFFu] ^ tables[2][(w >> 40) & 0xFFu] ^
          tables[1][(w >> 48) & 0xFFu] ^ tables[0][(w >> 56) & 0xFFu];
    p += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i)
    crc = tables[0][(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define QCAPS_CRC32C_X86_NATIVE 1
// Hardware CRC-32C (the SSE4.2 crc32 instruction implements exactly the
// Castagnoli polynomial). Runtime-dispatched; bit-identical to crc32c_sw.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    const std::uint8_t* p, std::size_t size, std::uint32_t crc) {
  std::uint64_t c = crc;
  while (size >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
    p += 8;
    size -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (std::size_t i = 0; i < size; ++i)
    c32 = __builtin_ia32_crc32qi(c32, p[i]);
  return c32;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::uint32_t crc = ~seed;
#ifdef QCAPS_CRC32C_X86_NATIVE
  static const bool hw = __builtin_cpu_supports("sse4.2");
  if (hw) return ~crc32c_hw(p, size, crc);
#endif
  return ~crc32c_sw(p, size, crc);
}

}  // namespace qcaps::common
