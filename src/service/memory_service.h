// Memory-service front end: the chip as a server.
//
// A MemoryService owns N independent shards, each a full open-system
// memsim::Simulator (banks, queues, scheme policy, background scrub
// engine) driven incrementally via step(). Clients submit requests
// carrying a *virtual* arrival time into bounded per-shard MPSC queues;
// worker threads (READDUO_THREADS, capped at the shard count) pop
// batches and admit them into their shards' bank queues, stepping each
// simulator across the arrival gaps so scrub keeps ticking between
// batches.
//
// Determinism contract (same rule as PR 1's mc_ler): a shard's final
// state is a pure function of (its seed, its admitted request sequence).
// Requests are admitted in per-shard FIFO order at their virtual arrival
// times, and worker threads never share a shard, so per-shard results
// are bit-identical across thread counts, batch sizes, and wall-clock
// scheduling; with a single submitting client the whole service is
// bit-identical across repeats.
//
// Multi-client admission (the wire front end, DESIGN.md §12): each
// client labels its requests with a monotonically increasing sequence
// number and a nondecreasing virtual arrival time. submit_sequenced()
// buffers requests in a merge buffer ordered by the total order
// (arrival, client id, seq) and releases a buffered request only once
// every active client's watermark has passed it — at which point no
// client can ever submit a request that sorts earlier, so the admission
// order is a pure function of the *set* of (client, seq, request)
// tuples, never of socket arrival interleaving.
//
// Locking discipline (compiler-checked via common/thread_annotations.h;
// the field->capability map is in DESIGN.md §8): each shard carries two
// capabilities — q_mu over the submission queue, sim_mu over the
// simulator and its admission counters — plus a lock-free pending count
// for quiescence checks. Lock order: seq_mu_ -> shard q_mu (the merge
// buffer releases into shard queues while holding seq_mu_, which is what
// makes the release order deterministic); otherwise strictly
// one-at-a-time — no code path holds two shard mutexes, or a shard
// mutex and state_mu_, simultaneously. comp_mu_ is a leaf.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "memsim/simulator.h"
#include "readduo/schemes.h"
#include "stats/metrics.h"
#include "trace/workload.h"

namespace rd::service {

/// Service knobs.
struct ServiceConfig {
  /// Independent chips; requests are routed by line.
  unsigned num_shards = 4;
  /// Bound of each shard's submission queue (admission backpressure).
  std::size_t queue_capacity = 4096;
  /// Max requests a worker admits per shard visit.
  std::size_t batch_size = 256;
  /// Worker threads; 0 = parallel_thread_count(). Capped at num_shards.
  unsigned worker_threads = 0;
  /// Per-shard simulator configuration. cpu.num_cores is forced to 0
  /// (the service is the request source); seed is decorrelated per shard.
  memsim::SimConfig sim;
  readduo::SchemeKind scheme = readduo::SchemeKind::kHybrid;
  readduo::ReadDuoOptions scheme_opts;
  /// Supplies the scheme-environment parameters (drift-age model, write
  /// rate); the trace generators themselves are unused.
  trace::Workload workload;
  /// Keep harvested completions for take_completions() instead of
  /// dropping them after counting (the wire server needs them).
  bool retain_completions = false;
  /// Invoked (on a worker thread, no service locks held) after a batch
  /// of completions is harvested; the wire server uses it to wake its
  /// poll loop. Must be async-signal-ish cheap and must not call back
  /// into the service.
  std::function<void()> completion_hook;
};

/// One client request. `arrival` is virtual time: the service's clock,
/// not the host's. `id` must be nonzero and unique among in-flight
/// requests of the same shard.
struct Request {
  std::uint64_t id = 0;
  std::uint64_t line = 0;
  bool is_write = false;
  bool archive = false;
  Ns arrival{0};
};

/// Live service-wide snapshot (shards merged).
struct ServiceStats {
  std::uint64_t submitted = 0;  ///< accepted into a submission queue
  std::uint64_t rejected = 0;   ///< bounced off a full queue
  std::uint64_t admitted = 0;   ///< handed to a simulator's bank queues
  std::uint64_t completed = 0;  ///< completions harvested
  std::uint64_t scrubs = 0;
  std::uint64_t write_cancellations = 0;
  std::uint64_t scrub_rewrites_dropped = 0;
  std::uint64_t seq_held = 0;  ///< buffered in the sequence-merge buffer
  Ns virtual_time{0};          ///< max shard clock
  stats::SimMetrics metrics;
};

/// Outcome of submit_sequenced().
enum class SubmitStatus {
  kAccepted,    ///< buffered or admitted; will complete
  kQueueFull,   ///< client already holds queue_capacity buffered requests
  kOutOfOrder,  ///< seq skips ahead (a predecessor was lost — e.g. to a
                ///< CRC reject); resend from the gap, order recovers
  kBadSeq,      ///< seq replayed, arrival went backwards, or client done
};

class MemoryService {
 public:
  explicit MemoryService(const ServiceConfig& cfg);
  ~MemoryService();

  MemoryService(const MemoryService&) = delete;
  MemoryService& operator=(const MemoryService&) = delete;

  unsigned num_shards() const { return static_cast<unsigned>(shards_.size()); }
  unsigned worker_threads() const { return worker_count_; }
  unsigned shard_of(std::uint64_t line) const {
    return static_cast<unsigned>(line % shards_.size());
  }

  using Completion = memsim::Simulator::Completion;

  /// Enqueue a request; returns false when the target shard's bounded
  /// queue is full (client backpressure — retry after completions drain).
  bool submit(const Request& req);

  /// Register a sequenced client. False when the id is zero or already
  /// registered (ids are single-use, even after client_done).
  bool register_client(std::uint64_t client);

  /// Sequenced multi-client submission (see the file comment). `seq`
  /// must be exactly the client's previous seq + 1 (starting at 1) and
  /// `req.arrival` must be nondecreasing per client. A seq that skips
  /// ahead returns kOutOfOrder and changes nothing (the pipelined wire
  /// path recovers by resending from the gap); a replayed seq, a
  /// backwards arrival, or a finished client is kBadSeq. Rejections
  /// never advance state, so a retry resends the same seq.
  /// Backpressure is per client: at most queue_capacity requests
  /// buffered per client (the shard-queue bound does not apply to
  /// merge-buffer releases — the per-client bound is what keeps the
  /// buffer finite without cross-client deadlock).
  SubmitStatus submit_sequenced(std::uint64_t client, std::uint64_t seq,
                                const Request& req);

  /// Declare a sequenced client finished: its watermark stops gating the
  /// merge buffer. Idempotent. Every registered client must eventually
  /// call this or the buffer can stall behind its watermark.
  void client_done(std::uint64_t client);

  /// Harvested completions since the last call (requires
  /// cfg.retain_completions). Order within a shard is deterministic;
  /// interleaving across shards is not.
  std::vector<Completion> take_completions();

  /// Block until everything submitted so far is admitted and completed.
  /// The background scrub engines keep running.
  void drain();

  /// Drain, stop the scrub engines, and join the workers. Idempotent;
  /// also called by the destructor.
  void stop();

  /// Live merged snapshot (locks each shard briefly; safe while workers
  /// run).
  ServiceStats stats() const;

  /// One shard's simulator result. Only meaningful when quiesced (after
  /// drain()/stop()); takes the shard's sim_mu so the read is safe (and
  /// annotation-clean) even if called early.
  const memsim::SimResult& shard_result(unsigned shard) const;

 private:
  struct Shard {
    /// Set once in the MemoryService constructor, before any worker
    /// exists; immutable afterwards — no capability needed.
    std::unique_ptr<readduo::Scheme> scheme;

    Mutex q_mu;  ///< submission-side capability
    std::deque<Request> q RD_GUARDED_BY(q_mu);
    std::uint64_t submitted RD_GUARDED_BY(q_mu) = 0;

    Mutex sim_mu;  ///< simulation-side capability
    /// The pointer is set once in the constructor; the pointee (the
    /// incrementally-stepped simulator) is sim_mu's to guard.
    std::unique_ptr<memsim::Simulator> sim RD_PT_GUARDED_BY(sim_mu);
    std::uint64_t admitted RD_GUARDED_BY(sim_mu) = 0;
    std::uint64_t completed RD_GUARDED_BY(sim_mu) = 0;

    /// submitted - completed, maintained lock-free so quiescence checks
    /// (cv predicates) never touch the shard mutexes. Lock order is
    /// strictly shard mutex -> nothing; state_mu_ -> nothing.
    std::atomic<std::uint64_t> pending{0};
  };

  /// Total admission order of the sequence merge: lexicographic
  /// (arrival, client, seq). Per client, arrivals are nondecreasing and
  /// seqs strictly increase, so every future request from client c sorts
  /// strictly after c's watermark (the key of its latest submission).
  struct SeqKey {
    Ns arrival{0};
    std::uint64_t client = 0;
    std::uint64_t seq = 0;
    friend bool operator<(const SeqKey& a, const SeqKey& b) {
      if (a.arrival.v != b.arrival.v) return a.arrival.v < b.arrival.v;
      if (a.client != b.client) return a.client < b.client;
      return a.seq < b.seq;
    }
  };

  struct ClientState {
    std::uint64_t last_seq = 0;  ///< 0 = nothing submitted yet
    Ns last_arrival{0};
    std::size_t held = 0;  ///< requests buffered in merge_buf_
    bool done = false;
  };

  /// Release every merge-buffer entry at or before the minimum active
  /// watermark into the shard queues (bypassing the shard-queue bound),
  /// in key order, under seq_mu_ — concurrent callers therefore push in
  /// a single global order. Also refreshes seq_quiesce_. Returns the
  /// number released.
  std::size_t release_ready() RD_REQUIRES(seq_mu_);

  void worker_main(unsigned worker);
  /// Admit one batch / step one drain chunk; true if progress was made.
  bool service_shard(Shard& sh) RD_EXCLUDES(sh.q_mu, sh.sim_mu);
  std::uint64_t owned_pending(unsigned worker) const;
  std::uint64_t total_pending() const;
  /// Bump the work epoch and wake sleepers; the empty critical section
  /// closes the lost-wakeup window against cv predicate evaluation.
  void signal() RD_EXCLUDES(state_mu_);

  ServiceConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  unsigned worker_count_ = 1;
  std::vector<std::thread> workers_;

  /// Condition-protocol mutex: it orders sleep/wake against the atomic
  /// flags below (see signal()) and guards no plain fields, so nothing
  /// carries RD_GUARDED_BY(state_mu_).
  // lint: allow(guarded-field) condition-protocol mutex; every flag it orders is an annotated atomic
  mutable Mutex state_mu_;
  mutable CondVar state_cv_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<bool> draining_{false};
  /// True while every registered sequenced client is done: no further
  /// sequenced submission can arrive, so workers may step in-flight
  /// requests to completion exactly as during drain() (the wire tail —
  /// nothing else would ever advance virtual time past the last
  /// arrival). Cleared when a new client registers.
  std::atomic<bool> seq_quiesce_{false};
  std::atomic<bool> stop_{false};
  bool stopped_ = false;  ///< workers joined (control-plane thread only)

  /// Sequence-merge capability. Lock order: seq_mu_ -> shard q_mu.
  mutable Mutex seq_mu_;
  std::map<std::uint64_t, ClientState> clients_ RD_GUARDED_BY(seq_mu_);
  std::map<SeqKey, Request> merge_buf_ RD_GUARDED_BY(seq_mu_);

  /// Retained-completion capability (leaf; only with retain_completions).
  mutable Mutex comp_mu_;
  std::vector<Completion> completions_ RD_GUARDED_BY(comp_mu_);
};

}  // namespace rd::service
