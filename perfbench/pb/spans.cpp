#include "pb/spans.h"

#include <atomic>
#include <chrono>

namespace pb {
namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool on)
    : on_(on), id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

Tracer::ThreadLog& Tracer::log() {
  struct Cache {
    std::uint64_t tracer = 0;
    ThreadLog* log = nullptr;
  };
  thread_local Cache cache;
  if (cache.tracer != id_) {
    auto fresh = std::make_unique<ThreadLog>();
    cache.log = fresh.get();
    cache.tracer = id_;
    rd::MutexLock g(mu_);
    logs_.push_back(std::move(fresh));
  }
  return *cache.log;
}

void Tracer::open(const char* name) {
  ThreadLog& l = log();
  l.stack.push_back(Frame{name, 0});
  // Read the clock last, so the bookkeeping above is not in the span.
  l.stack.back().begin = now_ns();
}

void Tracer::close() {
  const std::int64_t t = now_ns();
  ThreadLog& l = log();
  const Frame f = l.stack.back();
  l.stack.pop_back();
  Agg& a = l.agg[f.name];
  ++a.count;
  a.total_ns += t - f.begin;
}

Tracer::Span::Span(Tracer& t, const char* name)
    : t_(t.on() ? &t : nullptr) {
  if (t_ != nullptr) t_->open(name);
}

Tracer::Span::~Span() {
  if (t_ != nullptr) t_->close();
}

void Tracer::Span::rename(const char* name) {
  if (t_ != nullptr) t_->log().stack.back().name = name;
}

std::map<std::string, Tracer::Agg> Tracer::totals() const {
  std::map<std::string, Agg> out;
  rd::MutexLock g(mu_);
  for (const auto& l : logs_) {
    for (const auto& [name, a] : l->agg) {
      Agg& o = out[name];
      o.count += a.count;
      o.total_ns += a.total_ns;
    }
  }
  return out;
}

Tracer::Agg Tracer::total(const std::string& name) const {
  const std::map<std::string, Agg> all = totals();
  const auto it = all.find(name);
  return it == all.end() ? Agg{} : it->second;
}

}  // namespace pb
