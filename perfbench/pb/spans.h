// Host-time spans around the benchmark's calls into each layer.
//
// A span is opened around one public call (MemoryService::submit,
// Simulator::run, MlcChip::read, ...). Each thread aggregates per span
// name as spans end: call count and total time.
//
// A disabled tracer costs one branch per span, which is how the untraced
// run measures the end-to-end metrics and the traced run the layers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace pb {

/// Host steady-clock reading in nanoseconds.
std::int64_t now_ns();

class Tracer {
 public:
  explicit Tracer(bool on);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Switch tracing between ops (never while a span is open); the traced
  /// run alternates ops to measure its own overhead.
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Totals of one span name.
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    double mean_ns() const {
      return count ? static_cast<double>(total_ns) /
                         static_cast<double>(count)
                   : 0.0;
    }
  };

  /// Scoped span. `name` must be a string literal (stored by pointer).
  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Re-label before the span ends, for calls classified by their
    /// outcome (an R read versus an R-then-M read).
    void rename(const char* name);

   private:
    Tracer* t_;  ///< null when tracing is off
  };

  /// Per-name totals over every thread. Call once all spans have ended.
  std::map<std::string, Agg> totals() const;
  /// Total for one name (zeros if it never ran).
  Agg total(const std::string& name) const;

 private:
  struct Frame {
    const char* name;
    std::int64_t begin;
  };
  struct ThreadLog {
    std::vector<Frame> stack;
    std::map<const char*, Agg> agg;
  };

  ThreadLog& log();
  void open(const char* name);
  void close();

  std::atomic<bool> on_;
  const std::uint64_t id_;  ///< distinguishes tracers in thread caches
  mutable rd::Mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ RD_GUARDED_BY(mu_);
};

}  // namespace pb
