// Event-driven memory-system simulator (Section IV methodology).
//
// Models a 4-core in-order CPU fed by per-core synthetic traces, a memory
// controller with per-bank read/write queues, read-priority scheduling
// with write cancellation [18], a shared data bus, and a per-bank scrub
// engine walking the scrub register at the scheme's interval. All policy
// decisions (sensing mode, rewrite-or-not, differential writes) are
// delegated to the readduo::Scheme.
//
// Two driving modes share one event loop:
//   - run(): the classic closed system — per-core trace generators retire
//     an instruction budget and the run ends when every core is done.
//   - step()/external_read()/external_write(): an open system driven
//     incrementally by an outside request source (the service front end,
//     src/service/). Construct with cfg.cpu.num_cores == 0; completions
//     of externally submitted requests are harvested via
//     take_completions(), and the background scrub engine keeps ticking
//     between batches until stop_scrub().
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "pcm/params.h"
#include "readduo/scheme.h"
#include "stats/metrics.h"
#include "stats/trace_ring.h"
#include "trace/generator.h"

namespace rd::memsim {

// The open-page system (extension; the paper's baseline is closed-page):
// each bank latches the row of its last access, and a hit on the latched
// row skips the cell sensing phase. Consecutive lines fill a row before
// switching banks (row interleave), so sequential streams hit the latched
// row; the closed-page baseline round-robins consecutive lines across
// banks instead.

/// Consecutive lines latched per activation.
inline constexpr unsigned kLinesPerRow = 16;
/// Latency of an access served from the latched row (replaces the
/// sensing part of the scheme's latency; never increases it).
inline constexpr Ns kRowHitLatency{60};
/// Scrub backlog (in scrub periods) beyond which scrubs outrank writes.
inline constexpr unsigned kScrubPriorityBacklog = 8;

/// What happens to an in-flight write when a read arrives at its bank.
enum class WritePreemption {
  /// The read waits for the write to finish.
  kNone,
  /// Write cancellation [18]: the write restarts from scratch later (the
  /// paper's baseline).
  kCancel,
  /// Write pausing [11-style]: the write resumes with only its remaining
  /// P&V iterations.
  kPause,
};

/// Simulator knobs (Table VIII baseline).
struct SimConfig {
  pcm::CpuParams cpu;
  pcm::MemoryOrg org;
  pcm::TimingParams timing;
  /// The open-page system (row buffer with row interleave) instead of
  /// the closed-page, line-interleaved baseline.
  bool open_page = false;
  WritePreemption write_preemption = WritePreemption::kCancel;
  /// Per-core instruction budget; the run ends when every core retires it.
  std::uint64_t instructions_per_core = 10'000'000;
  std::uint64_t seed = 1;
  unsigned write_queue_depth = 32;
  /// A write preempted this many times becomes non-preemptible (forward
  /// progress guarantee).
  unsigned max_write_cancellations = 4;
  /// Capacity of the flight-recorder event ring (READDUO_TRACE); 0 = off.
  /// The retained events are dumped to stderr whenever the scheme reports
  /// a detected_uncorrectable or silent_corruption.
  std::size_t trace_events = 0;
};

/// Aggregate outcome of one run; per-event detail lives in the scheme's
/// Counters.
struct SimResult {
  Ns exec_time{0};
  std::uint64_t instructions = 0;
  std::uint64_t reads_serviced = 0;
  std::uint64_t writes_serviced = 0;
  std::uint64_t scrubs_serviced = 0;
  std::uint64_t write_cancellations = 0;
  /// Sum of (completion - issue) over demand reads, for average latency.
  std::int64_t read_latency_sum_ns = 0;
  /// Sum of bank busy time over all banks, for utilization.
  std::int64_t bank_busy_ns = 0;
  /// Scrub ticks that were still pending when the run ended.
  std::uint64_t scrub_backlog_end = 0;
  /// Scrub rewrites the engine had to skip because the bank's write queue
  /// was full (backpressure pacing; the line is caught on a later pass).
  std::uint64_t scrub_rewrites_dropped = 0;
  /// Row-buffer hits among demand reads (0 unless open_page).
  std::uint64_t row_hits = 0;
  /// Distributional observability: per-class end-to-end latency
  /// histograms and per-bank queue/utilization gauges. Deterministic —
  /// a function of (config, scheme, workload) only.
  stats::SimMetrics metrics;

  double avg_read_latency_ns() const {
    return reads_serviced
               ? static_cast<double>(read_latency_sum_ns) /
                     static_cast<double>(reads_serviced)
               : 0.0;
  }
  double ipc(const pcm::CpuParams& cpu) const {
    const double cycles =
        static_cast<double>(exec_time.v) * cpu.clock_ghz;
    return cycles > 0 ? static_cast<double>(instructions) / cycles : 0.0;
  }

  bool operator==(const SimResult&) const = default;
};

/// One simulation: a workload run under a scheme.
class Simulator {
 public:
  /// `cfg.cpu.num_cores == 0` builds an externally driven (open-system)
  /// simulator: no trace generators, requests arrive via external_read /
  /// external_write, and `workload` is unused.
  Simulator(const SimConfig& cfg, readduo::Scheme& scheme,
            const trace::Workload& workload);

  /// Run to completion and return the aggregate result. Single use;
  /// closed-system (num_cores >= 1) driving only.
  SimResult run();

  // --- incremental driving (service front end) --------------------------

  /// Process every pending event with time <= `until` and advance the
  /// simulated clock to at least `until`. Returns the number of events
  /// processed. Usable in both driving modes (the service steps between
  /// request admissions; tests can single-step a closed system).
  std::size_t step(Ns until);

  /// Process the single earliest pending event regardless of its time.
  /// Returns false when the event queue is empty.
  bool step_one();

  /// The simulated clock: max of the last processed event time and the
  /// last step() horizon. Nondecreasing.
  Ns current_time() const { return now_; }

  /// True when built with cfg.cpu.num_cores == 0 (open system).
  bool externally_driven() const { return cores_.empty(); }

  /// Completion record of an externally submitted request.
  struct Completion {
    std::uint64_t id = 0;       ///< caller's request id (nonzero)
    stats::ReqClass cls{};      ///< service class it completed as
    Ns enqueue_time{0};         ///< admission time (virtual)
    Ns complete_time{0};        ///< data-on-bus / write-retired time
    Ns latency() const { return complete_time - enqueue_time; }
  };

  /// Submit an external demand read arriving at `now`. Internally steps
  /// the simulator to `now` first, so no pending event predates the
  /// admission. `id` must be nonzero; the completion is reported via
  /// take_completions(). Externally driven mode only.
  void external_read(std::uint64_t id, std::uint64_t line, bool archive,
                     Ns now);

  /// Submit an external demand write. Returns false when the target
  /// bank's bounded write queue is full — the caller should step the
  /// simulator (step_one()) to drain and retry. Externally driven only.
  bool external_write(std::uint64_t id, std::uint64_t line, Ns now);

  /// Completions recorded since the last call, in completion order.
  std::vector<Completion> take_completions();

  /// Stop scheduling further scrub ticks, so the event queue can drain to
  /// empty (pending senses/rewrites still complete).
  void stop_scrub() { scrub_stopped_ = true; }

  /// Virtual time between two scrub ticks of one bank: each tick senses
  /// one row. Zero when the scheme does not scrub.
  Ns scrub_period() const { return scrub_period_; }

  /// Live view of the aggregate result (histograms fill as events
  /// complete). exec_time/instructions are only final after run().
  const SimResult& result() const { return result_; }

  /// Flight-recorder ring (null unless cfg.trace_events > 0).
  const stats::EventRing* trace_ring() const { return ring_.get(); }

 private:
  struct ReadReq {
    unsigned core;
    std::uint64_t line;
    bool archive;
    /// True when the issuing core blocks until the data returns; false for
    /// reads overlapped by hit-under-miss / prefetch (they still consume
    /// bank and bus bandwidth).
    bool blocking;
    Ns enqueue_time;
    /// Sensing mode chosen by the scheme at dispatch; classifies the
    /// completion into the right latency histogram.
    readduo::ReadMode mode = readduo::ReadMode::kRRead;
    /// Nonzero for externally submitted requests (service front end).
    std::uint64_t svc_id = 0;
  };
  enum class WriteKind { kDemand, kConversion, kScrubRewrite };
  struct WriteReq {
    std::uint64_t line;
    WriteKind kind;
    Ns latency;       ///< planned by the scheme at enqueue time
    Ns enqueue_time{0};
    unsigned cancellations = 0;
    /// Nonzero for externally submitted requests (service front end).
    std::uint64_t svc_id = 0;
  };

  /// What a bank is currently doing, to route its completion.
  enum class BankOp { kNone, kRead, kWrite, kScrubSense };

  struct Bank {
    std::deque<ReadReq> read_q;
    std::deque<WriteReq> write_q;
    BankOp op = BankOp::kNone;
    Ns busy_until{0};
    ReadReq in_read{};    ///< the read in service (op == kRead)
    WriteReq in_write{};  ///< the write in service (op == kWrite)
    /// Rewrites the scrub sense in service asks for (op == kScrubSense).
    unsigned scrub_rewrites = 0;
    std::uint64_t scrub_backlog = 0;
    Ns next_scrub{0};
    /// Serial of the op currently in service (see Event::tag).
    std::uint64_t op_tag = 0;
    /// Currently latched row (open-page model); ~0 = none.
    std::uint64_t open_row = ~0ull;
    /// Scrub-register position: index into this bank's own line range,
    /// advanced per rewrite so rewrites never alias demand lines of other
    /// banks (see next_scrub_line()).
    std::uint64_t scrub_cursor = 0;

    bool busy() const { return op != BankOp::kNone; }
  };

  struct Core {
    std::uint64_t budget = 0;     ///< instructions left to retire
    bool blocked_on_read = false;
    bool blocked_on_write_q = false;
    bool done = false;
    Ns finish_time{0};
    trace::MemOp pending{};
    bool has_pending = false;
  };

  // Event machinery: (time, seq) ordered min-heap.
  enum class EventKind { kCoreIssue, kBankDone, kScrubTick };
  struct Event {
    Ns time;
    std::uint64_t seq;
    EventKind kind;
    unsigned index;  ///< core or bank id
    /// For kBankDone: the dispatch serial this completion belongs to, so
    /// completions of cancelled writes are recognized as stale.
    std::uint64_t tag = 0;
    bool operator>(const Event& o) const {
      return time.v != o.time.v ? time.v > o.time.v : seq > o.seq;
    }
  };

  unsigned bank_of(std::uint64_t line) const {
    if (cfg_.open_page) {
      return static_cast<unsigned>((line / kLinesPerRow) %
                                   cfg_.org.num_banks);
    }
    return static_cast<unsigned>(line % cfg_.org.num_banks);
  }

  /// Prime the cores and stagger the per-bank scrub registers; idempotent
  /// (run(), step() and the external seam all call it first).
  void ensure_primed();
  bool all_cores_done() const;
  /// Dispatch one popped event and advance the clock.
  void process(const Event& ev);
  void schedule(Ns t, EventKind kind, unsigned index,
                std::uint64_t tag = 0);
  void core_issue(unsigned core, Ns now);
  void advance_core(unsigned core, Ns now);
  void bank_done(unsigned bank, Ns now, std::uint64_t tag);
  void scrub_tick(unsigned bank, Ns now);
  /// Start the next piece of work on an idle bank, if any.
  void dispatch(unsigned bank, Ns now);
  void enqueue_read(unsigned core, const trace::MemOp& op, Ns now,
                    bool blocking, std::uint64_t svc_id = 0);
  /// Returns false when the write queue is full (core must block).
  bool enqueue_write(std::uint64_t line, WriteKind kind, Ns now,
                     std::uint64_t svc_id = 0);
  /// The line the scrub register of bank `b` currently points at;
  /// advances the per-bank cursor over the bank's own line range.
  std::uint64_t next_scrub_line(unsigned b);
  /// Sample bank `b`'s queue depth at a service point.
  void sample_queue_gauge(unsigned b);
  static stats::ReqClass write_class(WriteKind kind);
  /// Dump the event ring if the scheme just reported a reliability event.
  void note_reliability(Ns now);
  void trace_event(Ns now, char kind, stats::ReqClass cls, unsigned bank,
                   std::uint64_t line, Ns latency);

  SimConfig cfg_;
  readduo::Scheme& scheme_;
  Rng rng_;
  std::vector<trace::TraceGen> gens_;
  std::vector<Core> cores_;
  std::vector<Bank> banks_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t seq_ = 0;
  Ns bus_busy_until_{0};
  Ns scrub_period_{0};
  Ns now_{0};
  bool primed_ = false;
  bool scrub_stopped_ = false;
  SimResult result_;
  std::vector<Completion> completions_;
  /// Flight recorder (null unless cfg.trace_events > 0).
  std::unique_ptr<stats::EventRing> ring_;
  /// detected_uncorrectable + silent_corruptions last observed, to detect
  /// new reliability events after each scheme policy call.
  std::uint64_t reliab_seen_ = 0;
  /// counters().injected_faults last observed; deltas become 'F' events in
  /// the flight-recorder ring (logged, never dumped — an injected fault is
  /// expected noise, not a reliability incident by itself).
  std::uint64_t faults_seen_ = 0;
};

}  // namespace rd::memsim
