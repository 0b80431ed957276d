#include "service/memory_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "memsim/env.h"

namespace rd::service {

MemoryService::MemoryService(const ServiceConfig& cfg) : cfg_(cfg) {
  RD_CHECK(cfg_.num_shards >= 1);
  RD_CHECK(cfg_.queue_capacity >= 1);
  cfg_.sim.cpu.num_cores = 0;  // the service is the request source
  for (unsigned s = 0; s < cfg_.num_shards; ++s) {
    auto sh = std::make_unique<Shard>();
    // Decorrelated per-shard seed streams (the PR 1 mc_ler pattern):
    // shard results differ across shards but stay a pure function of
    // (base seed, shard index) — never of the worker that ran them.
    memsim::SimConfig sim_cfg = cfg_.sim;
    sim_cfg.seed = cfg_.sim.seed + 0x9e3779b97f4a7c15ull * (s + 1);
    readduo::SchemeEnv env =
        memsim::make_scheme_env(cfg_.workload, sim_cfg.cpu, sim_cfg.seed);
    sh->scheme = readduo::make_scheme(cfg_.scheme, env, cfg_.scheme_opts);
    // Single-threaded here (workers not spawned yet), but the lock keeps
    // the capability bookkeeping honest — and it is uncontended.
    MutexLock g(sh->sim_mu);
    sh->sim = std::make_unique<memsim::Simulator>(sim_cfg, *sh->scheme,
                                                  cfg_.workload);
    scrub_period_ = sh->sim->scrub_period();  // one scheme, one period
    shards_.push_back(std::move(sh));
  }
  const unsigned requested =
      cfg_.worker_threads ? cfg_.worker_threads : parallel_thread_count();
  worker_count_ =
      std::min<unsigned>(std::max(1u, requested), cfg_.num_shards);
  wakes_ = std::vector<WakeCounter>(worker_count_);
  workers_.reserve(worker_count_);
  for (unsigned w = 0; w < worker_count_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

MemoryService::~MemoryService() { stop(); }

void MemoryService::wake(unsigned worker) {
  // Release: a worker whose sample reads this bump sees every flag
  // stored before it.
  std::atomic<std::uint64_t>& n = wakes_[worker].n;
  n.fetch_add(1, std::memory_order_release);
  n.notify_one();
}

void MemoryService::wake_all() {
  for (unsigned w = 0; w < worker_count_; ++w) wake(w);
}

bool MemoryService::submit(const Request& req) {
  RD_CHECK(req.id != 0);
  const unsigned s = shard_of(req.line);
  Shard& sh = *shards_[s];
  bool was_empty = false;
  {
    MutexLock g(sh.q_mu);
    if (sh.q.size() >= cfg_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    was_empty = sh.q.empty();
    sh.q.push_back(req);
    ++sh.submitted;
    sh.pending.fetch_add(1, std::memory_order_relaxed);
  }
  // A non-empty queue already woke its owner, which has not yet taken it.
  if (was_empty) wake(s % worker_count_);
  return true;
}

bool MemoryService::register_client(std::uint64_t client) {
  if (client == 0) return false;
  MutexLock g(seq_mu_);
  const bool fresh = clients_.emplace(client, ClientState{}).second;
  if (fresh) seq_quiesce_.store(false, std::memory_order_relaxed);
  return fresh;
}

void MemoryService::release_ready() {
  // The gate: nothing past the minimum active watermark may move. A
  // registered client that has not submitted yet has watermark -inf
  // (anything it sends later could sort anywhere), so it blocks all
  // releases until it speaks or finishes.
  bool have_floor = false;
  SeqKey floor{};
  for (const auto& [id, cs] : clients_) {
    if (cs.done) continue;
    if (cs.last_seq == 0) return;
    const SeqKey wm{cs.last_arrival, id, cs.last_seq};
    if (!have_floor || wm < floor) {
      floor = wm;
      have_floor = true;
    }
  }
  while (!merge_buf_.empty()) {
    const auto it = merge_buf_.begin();
    if (have_floor && floor < it->first) break;
    const Request& r = it->second;
    const unsigned s = shard_of(r.line);
    Shard& sh = *shards_[s];
    bool was_empty = false;
    {
      // seq_mu_ -> q_mu: pushing while holding seq_mu_ serializes
      // concurrent releasers, so the per-shard FIFO order equals the
      // merge order. Releases bypass the shard-queue capacity — the
      // per-client held bound is the backpressure.
      MutexLock g(sh.q_mu);
      was_empty = sh.q.empty();
      sh.q.push_back(r);
      ++sh.submitted;
    }
    if (was_empty) wake(s % worker_count_);
    --clients_.at(it->first.client).held;
    merge_buf_.erase(it);
  }
  // No active client left: sequenced admission is closed, so workers may
  // step the in-flight tail to completion (see seq_quiesce_). Stored after
  // the pushes it closes (see service_shard).
  seq_quiesce_.store(!clients_.empty() && !have_floor,
                     std::memory_order_release);
}

SubmitStatus MemoryService::submit_sequenced(std::uint64_t client,
                                             std::uint64_t seq,
                                             const Request& req) {
  RD_CHECK(req.id != 0);
  MutexLock g(seq_mu_);
  const auto it = clients_.find(client);
  RD_CHECK_MSG(it != clients_.end(), "submit_sequenced: unknown client");
  ClientState& cs = it->second;
  if (cs.done || seq <= cs.last_seq ||
      (seq == cs.last_seq + 1 && req.arrival.v < cs.last_arrival.v)) {
    return SubmitStatus::kBadSeq;
  }
  if (seq > cs.last_seq + 1) return SubmitStatus::kOutOfOrder;
  if (cs.held >= cfg_.queue_capacity) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kQueueFull;
  }
  cs.last_seq = seq;
  cs.last_arrival = req.arrival;
  ++cs.held;
  merge_buf_.emplace(SeqKey{req.arrival, client, seq}, req);
  // Count toward quiescence from acceptance: drain() must cover
  // requests still held in the merge buffer.
  shards_[shard_of(req.line)]->pending.fetch_add(1,
                                                 std::memory_order_relaxed);
  release_ready();
  return SubmitStatus::kAccepted;
}

void MemoryService::client_done(std::uint64_t client) {
  {
    MutexLock g(seq_mu_);
    const auto it = clients_.find(client);
    RD_CHECK_MSG(it != clients_.end(), "client_done: unknown client");
    if (it->second.done) return;
    it->second.done = true;
    release_ready();
  }
  // Unconditional: even with nothing released, the last client_done may
  // have flipped seq_quiesce_, and parked workers must see it.
  wake_all();
}

std::vector<MemoryService::Completion> MemoryService::take_completions() {
  MutexLock g(comp_mu_);
  return std::exchange(completions_, {});
}

bool MemoryService::service_shard(Shard& sh, std::vector<Request>& batch) {
  // Read the quiescing flags before taking the queue. Each is stored
  // (release) after the pushes it closes, so a queue taken after reading
  // it holds them all, and the drain chunk below never steps a shard past
  // the arrival of a request still on its way in.
  const bool quiescing = draining_.load(std::memory_order_acquire) ||
                         stop_.load(std::memory_order_acquire) ||
                         seq_quiesce_.load(std::memory_order_acquire);
  // Take the whole queue. Each shard has exactly one servicing worker, so
  // the submission queue is MPSC: producers contend on q_mu, this is the
  // only consumer. `batch` arrives empty and leaves its capacity behind.
  {
    MutexLock g(sh.q_mu);
    batch.swap(sh.q);
  }

  bool progressed = false;
  std::size_t harvested = 0;
  std::vector<memsim::Simulator::Completion> done;
  {
    MutexLock g(sh.sim_mu);
    memsim::Simulator& sim = *sh.sim;
    for (const Request& r : batch) {
      // external_* steps the simulator across the arrival gap first, so
      // the background scrub engine ticks between visits for free.
      if (r.is_write) {
        while (!sim.external_write(r.id, r.line, r.arrival)) {
          // Bounded bank write queue: make progress and retry. This
          // terminates — no new work enters the shard meanwhile, so
          // the bank queues must drain.
          sim.step_one();
        }
      } else {
        sim.external_read(r.id, r.line, r.archive, r.arrival);
      }
      ++sh.admitted;
    }
    if (batch.empty() && sh.completed < sh.admitted && quiescing) {
      // Quiescing with requests still in flight: run the event loop a
      // bounded chunk at a time. In-flight scrub senses and rewrites
      // complete along the way; future scrub ticks are processed as
      // virtual time passes them, never waited for.
      for (int i = 0; i < 4096 && sim.step_one(); ++i) {
      }
      progressed = true;
    }
    done = sim.take_completions();
    harvested = done.size();
    sh.completed += harvested;
    progressed = progressed || !batch.empty() || harvested > 0;
  }
  batch.clear();
  if (harvested > 0) {
    if (cfg_.retain_completions) {
      MutexLock g(comp_mu_);
      completions_.insert(completions_.end(), done.begin(), done.end());
    }
    if (sh.pending.fetch_sub(harvested, std::memory_order_acq_rel) ==
        harvested) {
      sh.pending.notify_all();  // drain() may be parked on it
    }
    // With no service locks held: the hook may poke file descriptors or
    // condition variables of its own.
    if (cfg_.completion_hook) cfg_.completion_hook();
  }
  return progressed;
}

std::uint64_t MemoryService::owned_pending(unsigned worker) const {
  std::uint64_t n = 0;
  for (unsigned s = worker; s < shards_.size(); s += worker_count_) {
    n += shards_[s]->pending.load(std::memory_order_relaxed);
  }
  return n;
}

void MemoryService::worker_main(unsigned worker) {
  std::atomic<std::uint64_t>& counter = wakes_[worker].n;
  std::vector<Request> batch;
  for (;;) {
    const std::uint64_t seen = counter.load(std::memory_order_acquire);
    bool progressed = false;
    for (unsigned s = worker; s < shards_.size(); s += worker_count_) {
      progressed = service_shard(*shards_[s], batch) || progressed;
    }
    if (progressed) continue;
    if (stop_.load(std::memory_order_relaxed) && owned_pending(worker) == 0) {
      return;
    }
    // Every owned queue was empty after this pass's swap, and while
    // quiescing a shard with requests in flight counts as progress, so
    // this parks only a worker with nothing to do until a push into an
    // empty queue or a quiescing flag bumps `counter` past `seen`.
    counter.wait(seen, std::memory_order_acquire);
  }
}

void MemoryService::drain() {
  draining_.store(true, std::memory_order_release);
  wake_all();
  for (const auto& sh : shards_) {
    std::uint64_t n = 0;
    while ((n = sh->pending.load(std::memory_order_acquire)) != 0) {
      sh->pending.wait(n, std::memory_order_acquire);
    }
  }
  draining_.store(false, std::memory_order_relaxed);
}

void MemoryService::stop() {
  if (stopped_) return;
  {
    // No further sequenced submissions can arrive once we stop; flush
    // the merge buffer in key order (still deterministic — it is the
    // final set) so drain() cannot stall behind an abandoned client.
    MutexLock g(seq_mu_);
    for (auto& [id, cs] : clients_) {
      (void)id;
      cs.done = true;
    }
    release_ready();
  }
  drain();
  stop_.store(true, std::memory_order_release);
  wake_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  stopped_ = true;
  for (auto& shp : shards_) {
    // Workers are joined; the lock is uncontended but keeps the
    // sim-capability bookkeeping checkable.
    MutexLock g(shp->sim_mu);
    shp->sim->stop_scrub();
  }
}

ServiceStats MemoryService::stats() const {
  ServiceStats st;
  st.rejected = rejected_.load(std::memory_order_relaxed);
  {
    MutexLock g(seq_mu_);
    st.seq_held = merge_buf_.size();
  }
  for (const auto& shp : shards_) {
    Shard& sh = *shp;
    {
      MutexLock g(sh.q_mu);
      st.submitted += sh.submitted;
    }
    MutexLock g(sh.sim_mu);
    st.admitted += sh.admitted;
    st.completed += sh.completed;
    const memsim::SimResult& r = sh.sim->result();
    st.scrubs += r.scrubs_serviced;
    st.write_cancellations += r.write_cancellations;
    st.scrub_rewrites_dropped += r.scrub_rewrites_dropped;
    st.virtual_time = std::max(st.virtual_time, sh.sim->current_time());
    st.metrics.merge(r.metrics);
  }
  return st;
}

const memsim::SimResult& MemoryService::shard_result(unsigned shard) const {
  Shard& sh = *shards_[shard];
  MutexLock g(sh.sim_mu);
  return sh.sim->result();
}

}  // namespace rd::service
