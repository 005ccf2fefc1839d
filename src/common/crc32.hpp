// CRC-32C checksum shared by the on-disk formats: the .qcg compiled-model
// image (io/format.hpp) and the parameter checkpoints (nn/serialize.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

namespace qcaps::common {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78). `seed` chains
/// calls: crc32(b, crc32(a)) == crc32(a ++ b). Chosen over IEEE CRC-32
/// because x86's SSE4.2 crc32 instruction implements exactly this
/// polynomial: the payload scan is the dominant cost of a cold-start .qcg
/// load, and the hardware path keeps it out of the critical path entirely.
/// The software fallback (slice-by-8) computes identical values, so no
/// format depends on the instruction.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace qcaps::common
