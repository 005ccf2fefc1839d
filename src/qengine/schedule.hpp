// The node schedule of the quantized executor's conv-shaped operators and
// the elementwise passes that consume them.
//
// A conv's output rows are the work: the (image, output row) pairs of a
// [B, F, OH, OW] result, flattened as image * OH + row. One parallel region
// per node hands every thread one contiguous range of those rows, balanced
// to within one row, so a batch smaller than the team or one that does not
// divide evenly still splits. Inside its range a thread runs every stage of
// the node (im2col, GEMM, requant, squash) on its own rows, and a consumer
// with the same split (the residual add) reads rows its own thread wrote.
// Integer accumulation is exact and every output element still comes from
// one GEMM, so results do not depend on the team size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace qcaps::qengine {

/// Threads the next node schedule runs on: the OpenMP team, or 1 inside a
/// parallel region (nested regions are never relied on).
inline int schedule_threads() {
#ifdef _OPENMP
  return omp_in_parallel() ? 1 : omp_get_max_threads();
#else
  return 1;
#endif
}

/// Runs fn(t, r0, r1) on each thread t of a team of `threads` with its
/// contiguous share [r0, r1) (possibly empty) of the images * rows
/// flattened (image, row) pairs. One parallel region, none for one thread;
/// an exception thrown by fn is rethrown here once the region has ended.
template <typename Fn>
void for_each_row_range(int threads, std::int64_t images, std::int64_t rows,
                        Fn&& fn) {
  const std::int64_t total = images * rows;
  if (threads <= 1) {
    fn(0, std::int64_t{0}, total);
    return;
  }
  std::exception_ptr err;
#ifdef _OPENMP
#pragma omp parallel num_threads(threads)
#endif
  {
#ifdef _OPENMP
    const int t = omp_get_thread_num();
    const int nt = omp_get_num_threads();
#else
    const int t = 0, nt = 1;
#endif
    try {
      fn(t, total * t / nt, total * (t + 1) / nt);
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical(qcaps_row_range_error)
#endif
      if (!err) err = std::current_exception();
    }
  }
  if (err) std::rethrow_exception(err);
}

/// Calls seg(image, y0, y1) for each image's run of rows [y0, y1) inside
/// the flattened row range [r0, r1), in order.
template <typename Seg>
void for_each_image_rows(std::int64_t r0, std::int64_t r1, std::int64_t rows,
                         Seg&& seg) {
  for (std::int64_t r = r0; r < r1;) {
    const std::int64_t y0 = r % rows;
    const std::int64_t y1 = std::min(rows, y0 + (r1 - r));
    seg(r / rows, y0, y1);
    r += y1 - y0;
  }
}

}  // namespace qcaps::qengine
