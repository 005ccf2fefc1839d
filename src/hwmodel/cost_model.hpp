// Analytic energy/area models of the fixed-point arithmetic units that a
// CapsNet accelerator instantiates: MAC, squash, softmax.
//
// The paper obtains these numbers by synthesizing RTL in UMC 65 nm with
// Synopsys Design Compiler (Figs. 2-3) — tools we do not have. Substitution:
// gate-complexity models (array multiplier ~ N^2, adders/registers ~ N,
// nonlinear function datapaths ~ quadratic in the fractional width) with
// coefficients calibrated to the published curves:
//   * 32-bit MAC  ≈ 1.4 pJ / 10800 µm²  (Fig. 2 right end)
//   * 8-frac-bit squash/softmax ≈ 4-5 pJ / ~7000 µm² (Fig. 3 right end)
// The models keep the property the paper's argument rests on: cost grows
// quadratically with wordlength, and squash/softmax are several times more
// expensive than a MAC at equal width.
#pragma once

#include <cstdint>

#include "fixed/format.hpp"

namespace qcaps::hwmodel {

/// Energy (pJ/op) and area (µm²) of one hardware unit instance.
struct UnitCost {
  double energy_pj = 0.0;
  double area_um2 = 0.0;
};

/// Fixed-point multiply-accumulate unit with N-bit operands (Fig. 2).
class MacUnitModel {
 public:
  /// Cost for operand wordlength `bits` (4..32 in the paper's sweep).
  UnitCost cost(int bits) const;
};

/// Squash-function datapath: vector norm, 1/(1+x) and inverse square root
/// (Fig. 3 left). Parameterized on the fractional width; the paper keeps a
/// single integer bit.
class SquashUnitModel {
 public:
  UnitCost cost(int fractional_bits) const;
};

/// Softmax datapath: exponential LUT + normalizing divider (Fig. 3 right).
class SoftmaxUnitModel {
 public:
  UnitCost cost(int fractional_bits) const;
};

/// Inference-level roll-up: energy of `macs` MAC operations at wordlength
/// `mac_bits` plus `squash_ops`/`softmax_ops` activations at `act_frac_bits`.
/// Used by the benches to translate quantization choices into energy.
struct InferenceEnergy {
  double mac_pj = 0.0;
  double squash_pj = 0.0;
  double softmax_pj = 0.0;
  double total_pj() const { return mac_pj + squash_pj + softmax_pj; }
};

InferenceEnergy inference_energy(std::int64_t macs, int mac_bits,
                                 std::int64_t squash_ops,
                                 std::int64_t softmax_ops, int act_frac_bits);

/// Per-layer roll-up where the routing softmax runs at its own fractional
/// width (QDR — the quantity Algorithm 3 searches separately from QA).
/// Fractional widths of 0 clamp to 1 bit, the models' minimum. This is what
/// the search driver attaches to every explored quantization point.
double layer_energy_pj(std::int64_t macs, int mac_bits, std::int64_t squash_ops,
                       int squash_frac_bits, std::int64_t softmax_ops,
                       int softmax_frac_bits);

// ---- host calibration --------------------------------------------------
//
// Measured kernel throughputs of THIS repository's software backends on the
// reference build machine, taken from the committed BENCH_kernels.json
// (interleaved best-of-reps; see docs/performance.md "Cost-model
// calibration" for the bench -> constant mapping). They anchor
// paper-figure projections — e.g. a simulated systolic array's clock — to
// real machine numbers instead of the placeholder 1 GHz defaults.

/// Sustained multiply-accumulate rates in G MAC/s, with the default
/// OpenMP team of the 4-vCPU AVX-512 VNNI host BENCH_kernels.json stamps.
struct HostKernelRates {
  double fp32_gemm = 124.9;     ///< BM_Matmul/256 (packed fp32, AVX-512 tier)
  double int8_gemm = 164.1;     ///< BM_QGemm/256 (qgemm int8 VNNI tier)
  double conv_fp32 = 74.4;      ///< BM_Conv2d/64 (fused im2col conv)
  double routing_fp32 = 40.1;   ///< BM_RoutingFp32/288 (caps kernels)
  double routing_quant = 10.0;  ///< BM_RoutingQuantized/288 (fake-quant path)
};

/// The committed BENCH_kernels.json numbers.
const HostKernelRates& measured_host_rates();

/// Seconds the measured host needs for `macs` MACs at `gmacs` G MAC/s.
double host_seconds(std::int64_t macs, double gmacs);

/// Clock (GHz) at which an array retiring `macs_per_cycle` MACs each cycle
/// sustains the measured rate — the mapping that puts simulated-accelerator
/// latencies (accel::SystolicConfig::clock_ghz) on this machine's scale.
double calibrated_clock_ghz(double gmacs, std::int64_t macs_per_cycle);

}  // namespace qcaps::hwmodel
