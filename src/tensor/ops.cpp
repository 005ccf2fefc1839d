#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/gemm.hpp"

namespace qcaps::tensor {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  QCAPS_CHECK_MSG(a.same_shape(b), op << ": shape mismatch "
                                      << shape_to_string(a.shape()) << " vs "
                                      << shape_to_string(b.shape()));
}
}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] += pb[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] -= pb[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a;
  float* o = out.data();
  const float* pb = b.data();
  const std::int64_t n = out.numel();
  for (std::int64_t i = 0; i < n; ++i) o[i] *= pb[i];
  return out;
}

void axpy(Tensor& a, float alpha, const Tensor& b) {
  check_same_shape(a, b, "axpy");
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] += alpha * pb[i];
}

void scale(Tensor& a, float alpha) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] *= alpha;
}

void clamp(Tensor& a, float lo, float hi) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] = std::clamp(pa[i], lo, hi);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_ex(Trans::kN, Trans::kN, m, n, k, a, k, b, n, c, n, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  QCAPS_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2, "matmul expects rank-2 tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  QCAPS_CHECK_MSG(b.dim(0) == k, "matmul inner dims: " << k << " vs " << b.dim(0));
  Tensor c({m, n});
  gemm_ex(Trans::kN, Trans::kN, m, n, k, a.data(), k, b.data(), n, c.data(), n,
          /*accumulate=*/false);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  QCAPS_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2, "matmul_tn expects rank-2 tensors");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  QCAPS_CHECK_MSG(b.dim(0) == k, "matmul_tn inner dims: " << k << " vs " << b.dim(0));
  Tensor c({m, n});
  gemm_ex(Trans::kT, Trans::kN, m, n, k, a.data(), m, b.data(), n, c.data(), n,
          /*accumulate=*/false);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  QCAPS_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2, "matmul_nt expects rank-2 tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  QCAPS_CHECK_MSG(b.dim(1) == k, "matmul_nt inner dims: " << k << " vs " << b.dim(1));
  Tensor c({m, n});
  gemm_ex(Trans::kN, Trans::kT, m, n, k, a.data(), k, b.data(), k, c.data(), n,
          /*accumulate=*/false);
  return c;
}

Tensor transpose2d(const Tensor& a) {
  QCAPS_CHECK_MSG(a.ndim() == 2, "transpose2d expects a rank-2 tensor");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  const float* pa = a.data();
  float* pt = t.data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) pt[j * m + i] = pa[i * n + j];
  return t;
}

Tensor reduce_sum_last(const Tensor& a) {
  QCAPS_CHECK_MSG(a.ndim() >= 1, "reduce_sum_last needs rank >= 1");
  const std::int64_t d = a.dim(-1);
  const std::int64_t rows = a.numel() / d;
  Shape out_shape = a.shape();
  out_shape.pop_back();
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float acc = 0.0f;
    const float* row = pa + r * d;
    for (std::int64_t j = 0; j < d; ++j) acc += row[j];
    po[r] = acc;
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  QCAPS_CHECK_MSG(a.ndim() == 2, "argmax_rows expects a rank-2 tensor");
  const std::int64_t rows = a.dim(0), cols = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(rows));
  const float* pa = a.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa + r * cols;
    out[static_cast<std::size_t>(r)] =
        std::max_element(row, row + cols) - row;
  }
  return out;
}

Tensor softmax_last(const Tensor& a) {
  const std::int64_t d = a.dim(-1);
  const std::int64_t rows = a.numel() / d;
  Tensor out = a;
  // Vectorized row kernel (runtime-dispatched, OpenMP over rows).
  softmax_rows(out.data(), rows, d);
  return out;
}

Tensor l2_norm_last(const Tensor& a, float eps) {
  const std::int64_t d = a.dim(-1);
  const std::int64_t rows = a.numel() / d;
  Shape out_shape = a.shape();
  out_shape.pop_back();
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa + r * d;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < d; ++j) acc += row[j] * row[j];
    po[r] = std::sqrt(acc + eps);
  }
  return out;
}

void add_row_bias(Tensor& a, const Tensor& bias) {
  QCAPS_CHECK_MSG(a.ndim() >= 1 && bias.ndim() == 1, "add_row_bias rank mismatch");
  const std::int64_t c = bias.dim(0);
  QCAPS_CHECK_MSG(a.dim(-1) == c, "add_row_bias: last dim " << a.dim(-1)
                                                            << " vs bias " << c);
  const std::int64_t rows = a.numel() / c;
  float* pa = a.data();
  const float* pb = bias.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = pa + r * c;
    for (std::int64_t j = 0; j < c; ++j) row[j] += pb[j];
  }
}

}  // namespace qcaps::tensor
