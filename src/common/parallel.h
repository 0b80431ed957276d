// Shared parallel-execution substrate.
//
// Everything embarrassingly parallel in the repository — Monte-Carlo
// populations, (scheme x workload) bench sweeps, analytic (E, S) grids —
// funnels through parallel_for_shards(n, fn): run fn(i) for every shard
// index i in [0, n) on a process-wide thread pool. The pool is sized by
// READDUO_THREADS (default: std::thread::hardware_concurrency), and
// READDUO_THREADS=1 forces the legacy serial path: shards run inline on
// the calling thread, in index order, with no pool involvement.
//
// Determinism contract: callers that need bit-identical results across
// thread counts must make each shard self-contained — derive per-shard RNG
// streams as Rng(seed, shard_index) and keep the shard decomposition
// independent of the thread count (fixed shard *size*, not shards ==
// threads) — and reduce the per-shard outputs in shard order after the
// loop. parallel_for_shards guarantees every shard runs exactly once, but
// not on which thread or in which order.
//
// The pool's internal locking follows the repo's annotated discipline
// (common/thread_annotations.h): the job state lives behind an rd::Mutex
// capability in the implementation, checked under Clang's
// -Wthread-safety by run_static_analysis.sh (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace rd {

/// Worker parallelism for parallel_for_shards: READDUO_THREADS if set to a
/// positive integer (clamped to [1, 512]), else hardware_concurrency (or 1
/// if unknown). Re-read from the environment on every call, so tests can
/// vary it within one process.
unsigned parallel_thread_count();

/// A fixed-size pool of worker threads executing shard loops.
///
/// `threads` is the total concurrency including the calling thread: a pool
/// of size T spawns T - 1 workers and the caller participates in every
/// parallel_for, so ThreadPool(1) owns no threads at all.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + caller).
  unsigned size() const { return threads_; }

  /// Run fn(i) for every i in [0, n), blocking until all shards finish.
  /// Shards are claimed dynamically (good load balance for uneven shard
  /// costs). If shards throw, the exception of the lowest failing shard
  /// index is rethrown here, after the unclaimed shards are abandoned and
  /// the in-flight ones finish: the same error the serial path throws,
  /// whatever the thread count or timing. Serial pools (size() == 1),
  /// n <= 1, and nested calls from inside a shard all run inline on the
  /// calling thread in index order.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  unsigned threads_;
};

/// Run fn over [0, n) on the process-wide shared pool, sized by
/// parallel_thread_count() (the pool is rebuilt if READDUO_THREADS changed
/// since the last call). Safe to call concurrently from multiple threads;
/// jobs are serialized onto the pool. See the ThreadPool::parallel_for
/// contract for ordering/exception semantics.
void parallel_for_shards(std::size_t n,
                         const std::function<void(std::size_t)>& fn);

}  // namespace rd
