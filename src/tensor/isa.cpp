#include "tensor/isa.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace qcaps::tensor {
namespace {

Isa probe() {
#ifdef QCAPS_X86_NATIVE
  __builtin_cpu_init();
  if (!(__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")))
    return Isa::kScalar;
  if (!(__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw")))
    return Isa::kAvx2;
  if (!__builtin_cpu_supports("avx512vnni")) return Isa::kAvx512;
  return Isa::kAvx512Vnni;
#else
  return Isa::kScalar;
#endif
}

}  // namespace

const char* isa_name(Isa t) {
  switch (t) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx512Vnni: return "avx512vnni";
  }
  return "?";
}

Isa parse_isa_cap(const char* value) {
  if (value == nullptr) return Isa::kAvx512Vnni;
  for (const Isa t : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512})
    if (std::strcmp(value, isa_name(t)) == 0) return t;
  std::fprintf(stderr,
               "qcaps: ignoring QCAPS_ISA=%s (expected scalar, avx2 or "
               "avx512); kernel tiers are not capped\n",
               value);
  return Isa::kAvx512Vnni;
}

Isa isa_detected() {
  static const Isa detected = probe();
  return detected;
}

bool isa_supported(Isa t) { return t <= isa_detected(); }

Isa isa_default() {
  static const Isa cap = parse_isa_cap(std::getenv("QCAPS_ISA"));
  return std::min(cap, isa_detected());
}

}  // namespace qcaps::tensor
