// The project's one thread helper: a fixed pool over an atomic item index.
//
// parallel_for runs fn(item, thread) for every item in [0, count) on up
// to `threads` threads; the calling thread participates as thread 0 and
// every spawned thread is joined (blocking, no spin-waiting) before the
// call returns. Items are claimed in ascending order, so callers that
// write each item's output to its own slot and reduce the slots serially
// afterwards get results independent of the thread count. The sweep
// backends (one persistent WorkerState per thread index) and the fleet
// rack walk (one chip solve per item) both run on it.
//
// Errors: an exception thrown by fn stops the claiming of further items;
// items already claimed finish, and after the join the exception of the
// lowest failing item index is rethrown on the calling thread. Because
// items are claimed in order, that is the exception a serial loop would
// have thrown first — the same error at any thread count, and never an
// exception escaping a worker thread (which would call std::terminate).
#ifndef BRIGHTSI_NUMERICS_PARALLEL_H
#define BRIGHTSI_NUMERICS_PARALLEL_H

#include <cstddef>
#include <functional>

namespace brightsi::numerics {

/// Runs fn(item, thread) for item in [0, count) on min(threads, count)
/// threads, thread in [0, min(threads, count)). `threads` must be >= 1
/// (std::invalid_argument otherwise); threads == 1 runs serially on the
/// calling thread without spawning.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t item, int thread)>& fn);

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_PARALLEL_H
