// Tests for the shared kernel-tier dispatch (tensor/isa.{hpp,cpp}): the
// QCAPS_ISA cap parser, and the force/report/reset seams of the three kernel
// families (fp32 gemm, integer qgemm, routing caps kernels) on the one ladder.
#include <gtest/gtest.h>

#include <string>

#include "tensor/caps_kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/isa.hpp"
#include "tensor/qgemm.hpp"

namespace qcaps::tensor {
namespace {

constexpr Isa kTiers[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                          Isa::kAvx512Vnni};

struct Family {
  const char* name;
  bool (*force)(Isa);
  void (*reset)();
  Isa (*active)();
  const char* (*active_name)();
  bool has_vnni;  // only qgemm has a kernel for the VNNI tier
};

const Family kFamilies[] = {
    {"gemm", gemm_force_kernel, gemm_reset_kernel, gemm_kernel,
     gemm_kernel_name, false},
    {"qgemm", qgemm_force_kernel, qgemm_reset_kernel, qgemm_kernel,
     qgemm_kernel_name, true},
    {"caps", caps_force_kernel, caps_reset_kernel, caps_kernel,
     caps_kernel_name, false},
};

TEST(IsaCap, ParsesEveryValueAndReportsUnknownOnes) {
  struct Row {
    const char* value;
    Isa cap;
    bool reported;
  };
  const Row rows[] = {
      {nullptr, Isa::kAvx512Vnni, false},  // unset: no cap
      {"scalar", Isa::kScalar, false},
      {"avx2", Isa::kAvx2, false},
      {"avx512", Isa::kAvx512, false},
      {"AVX2", Isa::kAvx512Vnni, true},  // values are case-sensitive
      {"0", Isa::kAvx512Vnni, true},
      {"avx512vnni", Isa::kAvx512Vnni, true},
      {"", Isa::kAvx512Vnni, true},
  };
  for (const Row& r : rows) {
    const std::string shown = r.value ? r.value : "(unset)";
    testing::internal::CaptureStderr();
    const Isa cap = parse_isa_cap(r.value);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(cap, r.cap) << shown;
    if (r.reported) {
      EXPECT_NE(err.find("QCAPS_ISA=" + shown), std::string::npos)
          << shown << ": " << err;
    } else {
      EXPECT_EQ(err, "") << shown;
    }
  }
}

TEST(IsaCap, TierNamesAreTheKernelNames) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(isa_name(Isa::kAvx512), "avx512");
  EXPECT_STREQ(isa_name(Isa::kAvx512Vnni), "avx512vnni");
}

// Each family dispatches by default to its best kernel at or below the
// capped tier, names it, accepts exactly the supported tiers it has a kernel
// for, leaves its choice untouched when it refuses one, and resets.
TEST(KernelTier, EveryFamilyForcesReportsAndResets) {
  EXPECT_LE(isa_default(), isa_detected());
  for (const Family& f : kFamilies) {
    SCOPED_TRACE(f.name);
    const Isa want_default =
        !f.has_vnni && isa_default() == Isa::kAvx512Vnni ? Isa::kAvx512
                                                         : isa_default();
    EXPECT_EQ(f.active(), want_default);
    for (const Isa t : kTiers) {
      const bool has_kernel = f.has_vnni || t != Isa::kAvx512Vnni;
      const bool forced = f.force(t);
      EXPECT_EQ(forced, has_kernel && isa_supported(t)) << isa_name(t);
      EXPECT_EQ(f.active(), forced ? t : want_default) << isa_name(t);
      EXPECT_STREQ(f.active_name(), isa_name(f.active()));
      f.reset();
      EXPECT_EQ(f.active(), want_default);
    }
  }
}

// -DQCAPS_NATIVE_KERNELS=OFF compiles the vector kernels of all three
// families out: the probe reports scalar and every force seam refuses every
// vector tier.
TEST(KernelTier, ScalarOnlyBuildRefusesEveryVectorTier) {
#ifdef QCAPS_X86_NATIVE
  GTEST_SKIP() << "native kernels are compiled in";
#else
  EXPECT_EQ(isa_detected(), Isa::kScalar);
  for (const Family& f : kFamilies) {
    EXPECT_EQ(f.active(), Isa::kScalar) << f.name;
    for (const Isa t : {Isa::kAvx2, Isa::kAvx512, Isa::kAvx512Vnni})
      EXPECT_FALSE(f.force(t)) << f.name << " " << isa_name(t);
  }
#endif
}

}  // namespace
}  // namespace qcaps::tensor
