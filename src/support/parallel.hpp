// Shared-memory parallel loop helper for Monte-Carlo sweeps.
//
// Uses OpenMP when the build found it (ROBUSTWDM_HAVE_OPENMP), otherwise runs
// serially; the thread count is OpenMP's own (OMP_NUM_THREADS). Library
// algorithms themselves are single-threaded and thread-compatible;
// parallelism lives at the replication level (independent simulation
// replicas / instances), where the routers' uid-keyed scratch pools let one
// shared router serve every replica.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>

namespace wdm::support {

/// Runs body(i) for i in [0, n), possibly in parallel. `body` must be safe to
/// invoke concurrently for distinct i (no shared mutable state without
/// synchronization).
///
/// Exception contract: if any invocation throws, the first exception (in
/// completion order) is captured and rethrown on the calling thread after the
/// loop finishes; iterations not yet started when the exception lands are
/// skipped. Letting an exception escape an OpenMP region is immediate
/// std::terminate, so the capture is mandatory, not a convenience.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
#ifdef ROBUSTWDM_HAVE_OPENMP
  std::exception_ptr first_exception;
  std::atomic<bool> failed{false};
#pragma omp parallel for schedule(dynamic)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    if (failed.load(std::memory_order_relaxed)) continue;
    try {
      body(static_cast<std::size_t>(i));
    } catch (...) {
      bool expected = false;
      if (failed.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
        first_exception = std::current_exception();
      }
    }
  }
  // The implicit barrier at the end of the parallel region orders the
  // winner's store of first_exception before this read.
  if (first_exception) std::rethrow_exception(first_exception);
#else
  for (std::size_t i = 0; i < n; ++i) body(i);
#endif
}

}  // namespace wdm::support
