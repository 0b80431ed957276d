#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/thread_annotations.h"

namespace rd {

namespace {

// True on pool worker threads, and on a caller thread while it participates
// in a shard loop. Nested parallel_for calls from inside a shard run
// inline instead of deadlocking on the (busy) pool.
thread_local bool t_in_parallel_region = false;

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = prev; }
};

}  // namespace

unsigned parallel_thread_count() {
  if (const char* e = env_cstr("READDUO_THREADS")) {
    // Strict parse: a typo like READDUO_THREADS=banana must not silently
    // run at hardware concurrency and mislabel the measurement.
    const std::uint64_t v = parse_env_u64("READDUO_THREADS", e);
    RD_CHECK_MSG(v >= 1, "READDUO_THREADS must be >= 1, got '" << e << "'");
    return static_cast<unsigned>(v > 512 ? 512 : v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct ThreadPool::Impl {
  Mutex mu;  ///< the pool capability: job hand-off and completion state
  CondVar cv_work;
  CondVar cv_done;
  // One job at a time; callers queue on job_mu. Held for a whole
  // parallel_for, so it guards no fields — it *is* the job pipeline.
  // lint: allow(guarded-field) job-pipeline mutex: serializes parallel_for calls, guards no fields
  Mutex job_mu;

  // Current job. fn/n are published under mu (before the generation
  // bump) and re-read under mu by each waking worker; `next` is claimed
  // lock-free.
  const std::function<void(std::size_t)>* fn RD_GUARDED_BY(mu) = nullptr;
  std::size_t n RD_GUARDED_BY(mu) = 0;
  std::atomic<std::size_t> next{0};
  std::size_t active RD_GUARDED_BY(mu) = 0;  ///< workers inside run_shards
  std::uint64_t generation RD_GUARDED_BY(mu) = 0;
  bool stop RD_GUARDED_BY(mu) = false;
  /// The failure of the lowest failing shard so far, and that shard.
  std::exception_ptr error RD_GUARDED_BY(mu);
  std::size_t error_shard RD_GUARDED_BY(mu) = 0;

  std::vector<std::thread> workers;

  /// Claim and execute shards of the job `(f, count)` until it is
  /// exhausted. Called without mu; the job is passed by value-of-snapshot
  /// (taken under mu) so no guarded field is touched here.
  void run_shards(const std::function<void(std::size_t)>& f,
                  std::size_t count) RD_EXCLUDES(mu) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        f(i);
      } catch (...) {
        MutexLock g(mu);
        // Keep the lowest failing shard: shards are claimed in increasing
        // order, so every lower one was claimed before this one and runs
        // to completion, and the survivor is the serial path's error.
        if (!error || i < error_shard) {
          error = std::current_exception();
          error_shard = i;
        }
        // Abandon the remaining shards; in-flight ones finish.
        next.store(count, std::memory_order_relaxed);
      }
    }
  }

  void worker_loop() RD_EXCLUDES(mu) {
    t_in_parallel_region = true;
    std::uint64_t seen = 0;
    mu.lock();
    for (;;) {
      while (!stop && generation == seen) cv_work.wait(mu);
      if (stop) {
        mu.unlock();
        return;
      }
      seen = generation;
      // Snapshot the job under mu; run it unlocked.
      const std::function<void(std::size_t)>* f = fn;
      const std::size_t count = n;
      ++active;
      mu.unlock();
      run_shards(*f, count);
      mu.lock();
      --active;
      if (active == 0) cv_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(unsigned threads)
    : impl_(std::make_unique<Impl>()), threads_(threads == 0 ? 1 : threads) {
  impl_->workers.reserve(threads_ - 1);
  for (unsigned i = 0; i + 1 < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock g(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ <= 1 || n == 1 || t_in_parallel_region) {
    // Legacy serial path: in index order, on the calling thread.
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Impl& im = *impl_;
  MutexLock job(im.job_mu);
  {
    MutexLock g(im.mu);
    im.fn = &fn;
    im.n = n;
    im.next.store(0, std::memory_order_relaxed);
    im.error = nullptr;
    ++im.generation;
  }
  im.cv_work.notify_all();
  {
    RegionGuard guard;
    im.run_shards(fn, n);
  }
  std::exception_ptr e;
  {
    MutexLock lk(im.mu);
    while (im.active != 0 ||
           im.next.load(std::memory_order_relaxed) < im.n) {
      im.cv_done.wait(im.mu);
    }
    e = im.error;
    im.error = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

void parallel_for_shards(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const unsigned want = parallel_thread_count();
  if (want <= 1 || n == 1 || t_in_parallel_region) {
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Process-wide pool, rebuilt when READDUO_THREADS changes. A shared_ptr
  // copy keeps a pool alive for callers still running on it after a swap.
  static Mutex mu;
  static std::shared_ptr<ThreadPool> pool;
  std::shared_ptr<ThreadPool> local;
  {
    MutexLock g(mu);
    if (!pool || pool->size() != want) {
      pool = std::make_shared<ThreadPool>(want);
    }
    local = pool;
  }
  local->parallel_for(n, fn);
}

}  // namespace rd
