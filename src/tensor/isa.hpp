// Kernel-tier dispatch shared by the three microkernel families: the fp32
// GEMM (gemm.hpp), the integer GEMM (qgemm.hpp) and the routing caps kernels
// (caps_kernels.hpp).
//
// One ladder of instruction-set tiers, simplest first, probed once from
// CPUID. A tier implies every tier below it: kAvx2 needs AVX2+FMA, kAvx512
// adds AVX-512F+BW, kAvx512Vnni adds AVX-512 VNNI. Each family maps a tier to
// its best kernel at or below it (gemm and the caps kernels have no VNNI
// kernel, so kAvx512Vnni runs their AVX-512 kernel).
//
// The default tier is the best one the CPU supports, capped by the
// environment variable QCAPS_ISA=scalar|avx2|avx512 (read once; unset means
// no cap, and avx512 keeps qgemm below its VNNI kernel). Configuring with
// -DQCAPS_NATIVE_KERNELS=OFF defines QCAPS_DISABLE_NATIVE, which compiles the
// native kernels of all three families out: only kScalar is supported.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(QCAPS_DISABLE_NATIVE)
#define QCAPS_X86_NATIVE 1
#endif

namespace qcaps::tensor {

/// Kernel tiers, simplest first.
enum class Isa { kScalar, kAvx2, kAvx512, kAvx512Vnni };

/// Name of a tier ("scalar", "avx2", "avx512", "avx512vnni").
const char* isa_name(Isa t);

/// Parses a QCAPS_ISA value into a cap: nullptr (unset) means no cap
/// (kAvx512Vnni); "scalar", "avx2" and "avx512" cap at that tier. Any other
/// value is reported on stderr and treated as no cap.
Isa parse_isa_cap(const char* value);

/// Best tier this CPU and build support (kScalar with the native kernels
/// compiled out). Probed once.
Isa isa_detected();

/// True when kernels of tier `t` can run here.
bool isa_supported(Isa t);

/// The tier every family dispatches to by default: the detected tier capped
/// by QCAPS_ISA.
Isa isa_default();

}  // namespace qcaps::tensor
