// Fixed-size thread pool with a deterministic parallel-for.
//
// Every hot path in the pipeline (ray-casting, ICP correspondence search,
// voxelisation) parallelises through
// `ParallelFor`, which splits [begin, end) into contiguous chunks of `grain`
// elements.  The decomposition depends only on the range and the grain —
// never on the thread count or on scheduling — so callers that merge
// per-chunk results in chunk order produce bit-identical output whether the
// work ran on 1 thread or 64.  That invariance is what keeps the paper
// reproduction deterministic while still scaling with the hardware
// (ROADMAP: "as fast as the hardware allows").
//
// Threading contract for callers:
//   * `fn(chunk_begin, chunk_end)` must only write state owned by its chunk
//     (disjoint output slots, or a per-chunk accumulator merged afterwards).
//   * Shared inputs must be read-only for the duration of the call.
//   * Exceptions thrown by `fn` are captured and rethrown on the calling
//     thread after all in-flight chunks finish.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cooper::common {

class ThreadPool {
 public:
  /// `num_threads` counts the caller as a participant: a pool built with N
  /// keeps N-1 worker threads and lets the calling thread do its share.
  /// `num_threads <= 0` means hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool sized to the hardware (minimum two participants),
  /// created on first use.
  static ThreadPool& Global();

  /// Worker threads + the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `fn(chunk_begin, chunk_end)` over [begin, end) in chunks of
  /// `grain` elements (last chunk may be short).  At most `max_parallelism`
  /// threads participate (<= 0 means the full pool; 1 runs inline on the
  /// caller).  Chunks are identical for every thread count; only their
  /// assignment to threads varies.  The first exception thrown by `fn`
  /// propagates to the caller.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& fn,
                   int max_parallelism = 0);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Resolves a config-level thread knob: <= 0 means hardware concurrency.
int ResolveThreads(int num_threads);

/// Convenience wrapper: dispatches on the global pool with
/// `max_parallelism = num_threads` (<= 0 meaning all hardware threads).
/// `num_threads == 1` runs inline with no synchronisation at all, so the
/// serial path costs nothing beyond the chunked loop.
void ParallelFor(int num_threads, std::size_t begin, std::size_t end,
                 std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace cooper::common
