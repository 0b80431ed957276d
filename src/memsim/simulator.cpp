#include "memsim/simulator.h"

#include <algorithm>
#include <iostream>
#include <utility>

#include "common/check.h"

namespace rd::memsim {

namespace {

stats::ReqClass class_of(readduo::ReadMode mode) {
  switch (mode) {
    case readduo::ReadMode::kRRead: return stats::ReqClass::kRRead;
    case readduo::ReadMode::kMRead: return stats::ReqClass::kMRead;
    case readduo::ReadMode::kRMRead: return stats::ReqClass::kRMRead;
  }
  return stats::ReqClass::kRRead;
}

}  // namespace

Simulator::Simulator(const SimConfig& cfg, readduo::Scheme& scheme,
                     const trace::Workload& workload)
    : cfg_(cfg), scheme_(scheme), rng_(cfg.seed ^ 0xabcdef12345ull) {
  RD_CHECK(cfg.org.num_banks >= 1);
  for (unsigned c = 0; c < cfg.cpu.num_cores; ++c) {
    gens_.emplace_back(workload, c, cfg.seed);
    Core core;
    core.budget = cfg.instructions_per_core;
    cores_.push_back(core);
  }
  banks_.resize(cfg.org.num_banks);
  result_.metrics.banks.resize(cfg.org.num_banks);
  if (cfg.trace_events > 0) {
    ring_ = std::make_unique<stats::EventRing>(cfg.trace_events);
  }
  reliab_seen_ = scheme.counters().detected_uncorrectable +
                 scheme.counters().silent_corruptions;
  faults_seen_ = scheme.counters().injected_faults;

  // Scrub period per bank: every line of the bank each S seconds, sensed
  // one row (lines_per_scrub lines) per operation.
  const double s = scheme_.scrub_interval_seconds();
  if (s > 0.0) {
    const double rows = static_cast<double>(cfg.org.lines_per_bank()) /
                        static_cast<double>(cfg.org.lines_per_scrub);
    const double period_ns = static_cast<double>(from_seconds(s).v) / rows;
    scrub_period_ = Ns{std::max<std::int64_t>(
        1, static_cast<std::int64_t>(period_ns + 0.5))};
  }
}

void Simulator::schedule(Ns t, EventKind kind, unsigned index,
                         std::uint64_t tag) {
  events_.push(Event{t, seq_++, kind, index, tag});
}

void Simulator::ensure_primed() {
  if (primed_) return;
  primed_ = true;
  for (unsigned c = 0; c < cores_.size(); ++c) advance_core(c, Ns{0});
  if (scrub_period_.v > 0) {
    for (unsigned b = 0; b < banks_.size(); ++b) {
      // Stagger the scrub registers across banks.
      banks_[b].next_scrub =
          Ns{static_cast<std::int64_t>(b) * scrub_period_.v /
             static_cast<std::int64_t>(banks_.size())};
      schedule(banks_[b].next_scrub, EventKind::kScrubTick, b);
    }
  }
}

bool Simulator::all_cores_done() const {
  for (const Core& c : cores_) {
    if (!c.done) return false;
  }
  return true;
}

void Simulator::process(const Event& ev) {
  now_ = std::max(now_, ev.time);
  switch (ev.kind) {
    case EventKind::kCoreIssue:
      core_issue(ev.index, ev.time);
      break;
    case EventKind::kBankDone:
      bank_done(ev.index, ev.time, ev.tag);
      break;
    case EventKind::kScrubTick:
      scrub_tick(ev.index, ev.time);
      break;
  }
}

SimResult Simulator::run() {
  RD_CHECK_MSG(!externally_driven(),
               "run() needs cores; drive an open system with step()");
  ensure_primed();
  while (!events_.empty()) {
    const Event ev = events_.top();
    events_.pop();
    process(ev);
    // Stop once every core retired its budget; in-flight scrub ticks
    // would otherwise keep the queue alive forever.
    if (all_cores_done()) break;
  }

  Ns finish{0};
  std::uint64_t instructions = 0;
  for (const Core& c : cores_) {
    finish = std::max(finish, c.finish_time);
    instructions += cfg_.instructions_per_core - c.budget;
  }
  result_.exec_time = finish;
  result_.instructions = instructions;
  for (const Bank& b : banks_) result_.scrub_backlog_end += b.scrub_backlog;
  return result_;
}

std::size_t Simulator::step(Ns until) {
  ensure_primed();
  std::size_t n = 0;
  while (!events_.empty() && events_.top().time <= until) {
    const Event ev = events_.top();
    events_.pop();
    process(ev);
    ++n;
  }
  now_ = std::max(now_, until);
  return n;
}

bool Simulator::step_one() {
  ensure_primed();
  if (events_.empty()) return false;
  const Event ev = events_.top();
  events_.pop();
  process(ev);
  return true;
}

void Simulator::external_read(std::uint64_t id, std::uint64_t line,
                              bool archive, Ns now) {
  RD_CHECK_MSG(externally_driven(),
               "external requests need a 0-core simulator");
  RD_CHECK(id != 0);
  // Catch the simulator up to the arrival time first: a request must
  // never be dispatched by a pending event earlier than its admission.
  step(now);
  trace::MemOp op;
  op.line = line;
  op.archive = archive;
  enqueue_read(/*core=*/0, op, now, /*blocking=*/false, id);
}

bool Simulator::external_write(std::uint64_t id, std::uint64_t line, Ns now) {
  RD_CHECK_MSG(externally_driven(),
               "external requests need a 0-core simulator");
  RD_CHECK(id != 0);
  step(now);  // see external_read: no pending event may predate admission
  return enqueue_write(line, WriteKind::kDemand, now, id);
}

std::vector<Simulator::Completion> Simulator::take_completions() {
  return std::exchange(completions_, {});
}

// Advance a core past its current operation: charge the instruction gap
// and schedule the issue of the next memory operation.
void Simulator::advance_core(unsigned core_id, Ns now) {
  Core& core = cores_[core_id];
  if (core.done) return;
  if (!core.has_pending) {
    core.pending = gens_[core_id].next();
    core.has_pending = true;
    // Charge the compute gap (+1 for the memory instruction itself).
    const std::uint64_t cost = core.pending.gap_instructions + 1;
    const std::uint64_t instrs = std::min<std::uint64_t>(cost, core.budget);
    core.budget -= instrs;
    if (instrs < cost) {
      // Budget exhausted inside the compute gap: the memory instruction
      // itself did not fit, so the core finishes after the remaining
      // compute without issuing the pending op. (When the +1 fits
      // exactly, the op is a retired instruction and must still issue.)
      core.done = true;
      core.finish_time = now + cfg_.cpu.compute_time(instrs);
      return;
    }
    schedule(now + cfg_.cpu.compute_time(instrs), EventKind::kCoreIssue,
             core_id);
  }
}

void Simulator::core_issue(unsigned core_id, Ns now) {
  Core& core = cores_[core_id];
  if (core.done) return;
  if (!core.has_pending) {
    // Resumed after a read completion: fetch and schedule the next op.
    advance_core(core_id, now);
    return;
  }
  const trace::MemOp op = core.pending;

  if (op.is_write) {
    if (!enqueue_write(op.line, WriteKind::kDemand, now)) {
      // Write queue full: in-order core stalls; retried when the bank
      // drains a write.
      core.blocked_on_write_q = true;
      return;
    }
    core.has_pending = false;
    advance_core(core_id, now);
  } else if (rng_.bernoulli(cfg_.cpu.read_stall_fraction)) {
    core.blocked_on_read = true;
    enqueue_read(core_id, op, now, /*blocking=*/true);
  } else {
    // Overlapped read: occupies the memory system but the core continues.
    enqueue_read(core_id, op, now, /*blocking=*/false);
    core.has_pending = false;
    advance_core(core_id, now);
  }
}

void Simulator::enqueue_read(unsigned core, const trace::MemOp& op, Ns now,
                             bool blocking, std::uint64_t svc_id) {
  const unsigned b = bank_of(op.line);
  Bank& bank = banks_[b];
  bank.read_q.push_back(
      ReadReq{core, op.line, op.archive, blocking, now,
              readduo::ReadMode::kRRead, svc_id});

  // Write preemption: a read arriving at a bank busy with a preemptible
  // write preempts it; a cancelled write restarts later from scratch.
  if (cfg_.write_preemption != WritePreemption::kNone &&
      bank.op == BankOp::kWrite &&
      bank.in_write.cancellations < cfg_.max_write_cancellations) {
    ++result_.write_cancellations;
    WriteReq aborted = bank.in_write;
    ++aborted.cancellations;
    if (cfg_.write_preemption == WritePreemption::kPause) {
      // Pausing keeps the completed P&V iterations: only the remaining
      // latency is owed when the write resumes.
      aborted.latency = bank.busy_until - now;
    }
    bank.write_q.push_front(aborted);
    trace_event(now, 'C', stats::ReqClass::kDemandWrite, b, aborted.line,
                bank.busy_until - now);
    // The bank becomes free now; the queued read dispatches immediately.
    result_.bank_busy_ns -= (bank.busy_until - now).v;
    result_.metrics.banks[b].busy_ns -= (bank.busy_until - now).v;
    bank.op = BankOp::kNone;
    dispatch(b, now);
  } else if (!bank.busy()) {
    dispatch(b, now);
  }
}

bool Simulator::enqueue_write(std::uint64_t line, WriteKind kind, Ns now,
                              std::uint64_t svc_id) {
  const unsigned b = bank_of(line);
  Bank& bank = banks_[b];
  if (kind == WriteKind::kDemand &&
      bank.write_q.size() >= cfg_.write_queue_depth) {
    return false;
  }
  if (kind == WriteKind::kScrubRewrite &&
      bank.write_q.size() >= cfg_.write_queue_depth) {
    // Backpressure: the scrub engine paces its rewrites so background
    // maintenance can never starve demand traffic out of the queue.
    ++result_.scrub_rewrites_dropped;
    return true;
  }
  // Plan the write now so the scheme's line state reflects program order.
  readduo::WriteOutcome out;
  switch (kind) {
    case WriteKind::kDemand:
      out = scheme_.on_write(line, now);
      break;
    case WriteKind::kConversion:
      out = scheme_.on_converted_write(line, now);
      break;
    case WriteKind::kScrubRewrite:
      out = scheme_.on_scrub_rewrite(now);
      break;
  }
  note_reliability(now);
  bank.write_q.push_back(WriteReq{line, kind, out.latency, now, 0, svc_id});
  if (!bank.busy()) dispatch(b, now);
  return true;
}

std::uint64_t Simulator::next_scrub_line(unsigned b) {
  // The scrub register walks the bank's own line range; using the bank
  // index as a line address would alias demand line `b` (of bank
  // b % num_banks == b) and pollute its scheme state and open row.
  Bank& bank = banks_[b];
  const std::uint64_t idx = bank.scrub_cursor;
  bank.scrub_cursor = (bank.scrub_cursor + 1) % cfg_.org.lines_per_bank();
  if (cfg_.open_page) {
    const std::uint64_t row = idx / kLinesPerRow;
    return (row * cfg_.org.num_banks + b) * kLinesPerRow + idx % kLinesPerRow;
  }
  return idx * cfg_.org.num_banks + b;
}

void Simulator::sample_queue_gauge(unsigned b) {
  const Bank& bank = banks_[b];
  stats::BankGauge& g = result_.metrics.banks[b];
  const std::uint64_t depth = bank.read_q.size() + bank.write_q.size();
  ++g.depth_samples;
  g.depth_sum += depth;
  g.depth_max = std::max(g.depth_max, depth);
}

void Simulator::trace_event(Ns now, char kind, stats::ReqClass cls,
                            unsigned bank, std::uint64_t line, Ns latency) {
  if (!ring_) return;
  ring_->push(stats::TraceEvent{now.v, kind,
                                static_cast<std::uint8_t>(cls), bank, line,
                                latency.v});
}

void Simulator::note_reliability(Ns now) {
  const stats::Counters& c = scheme_.counters();
  if (c.injected_faults != faults_seen_) {
    // Record the fault burst in the ring ('F', latency field = how many)
    // so a later reliability dump shows what was injected leading up to
    // it; injection alone does not trigger a dump.
    trace_event(now, 'F', stats::ReqClass::kRRead, /*bank=*/0, /*line=*/0,
                Ns{static_cast<std::int64_t>(c.injected_faults -
                                             faults_seen_)});
    faults_seen_ = c.injected_faults;
  }
  const std::uint64_t seen =
      c.detected_uncorrectable + c.silent_corruptions;
  if (seen == reliab_seen_) return;
  if (ring_) {
    ring_->dump(std::cerr,
                "reliability event at t=" + std::to_string(now.v) +
                    "ns (detected_uncorrectable=" +
                    std::to_string(c.detected_uncorrectable) +
                    ", silent_corruptions=" +
                    std::to_string(c.silent_corruptions) + ")");
  }
  reliab_seen_ = seen;
}

void Simulator::dispatch(unsigned b, Ns now) {
  Bank& bank = banks_[b];
  RD_CHECK(!bank.busy());

  const bool scrub_urgent = bank.scrub_backlog > kScrubPriorityBacklog;

  if (!bank.read_q.empty()) {
    // Reads first, FCFS.
    sample_queue_gauge(b);
    ReadReq req = bank.read_q.front();
    bank.read_q.pop_front();
    const readduo::ReadOutcome out =
        scheme_.on_read(req.line, now, req.archive);
    note_reliability(now);
    req.mode = out.mode;
    Ns latency = out.latency;
    if (cfg_.open_page) {
      const std::uint64_t row = req.line / kLinesPerRow;
      // A hit is only a hit when the latched row actually shortens the
      // access; a sense latency at or below kRowHitLatency leaves the
      // clamp a no-op and must not count.
      if (bank.open_row == row && kRowHitLatency < latency) {
        latency = kRowHitLatency;
        ++result_.row_hits;
      }
      bank.open_row = row;
    }
    bank.op = BankOp::kRead;
    bank.busy_until = now + latency;
    bank.in_read = req;
    result_.bank_busy_ns += latency.v;
    result_.metrics.banks[b].busy_ns += latency.v;
    trace_event(now, 'R', class_of(req.mode), b, req.line, latency);
    // A converted R-M-read writes the line back as a low-priority write.
    if (out.convert_to_write) {
      enqueue_write(req.line, WriteKind::kConversion, now);
    }
    schedule(bank.busy_until, EventKind::kBankDone, b, ++bank.op_tag);
    return;
  }

  const auto start_scrub = [&] {
    // The scrub register points at an unrelated row: it evicts whatever
    // demand row was latched.
    if (cfg_.open_page) bank.open_row = ~0ull;
    sample_queue_gauge(b);
    const readduo::ScrubOutcome s =
        scheme_.on_scrub(now, cfg_.org.lines_per_scrub);
    // A row sense no shorter than the per-row period lets the backlog only
    // grow; past kScrubPriorityBacklog it starves writes for good, and
    // the run never finishes.
    RD_CHECK_MSG(s.sense_latency < scrub_period_,
                 "infeasible scrub: "
                     << scheme_.name() << " senses a row in "
                     << s.sense_latency.v << " ns, but scrub interval "
                     << scheme_.scrub_interval_seconds() << " s ("
                     << scheme_.scrub_origin() << ") over the rows of a bank"
                     << " (memory.capacity = " << cfg_.org.capacity_bytes
                     << " B, memory.banks = " << cfg_.org.num_banks
                     << ", memory.lines_per_scrub = "
                     << cfg_.org.lines_per_scrub << ") leaves "
                     << scrub_period_.v << " ns per row");
    note_reliability(now);
    --bank.scrub_backlog;
    bank.op = BankOp::kScrubSense;
    bank.busy_until = now + s.sense_latency;
    bank.scrub_rewrites = s.rewrites;
    result_.bank_busy_ns += s.sense_latency.v;
    result_.metrics.banks[b].busy_ns += s.sense_latency.v;
    trace_event(now, 'S', stats::ReqClass::kScrubRewrite, b, /*line=*/0,
                s.sense_latency);
    schedule(bank.busy_until, EventKind::kBankDone, b, ++bank.op_tag);
  };

  if (scrub_urgent && bank.scrub_backlog > 0) {
    start_scrub();
    return;
  }

  if (!bank.write_q.empty()) {
    sample_queue_gauge(b);
    const WriteReq req = bank.write_q.front();
    bank.write_q.pop_front();
    if (cfg_.open_page) {
      // Writes update the latched row (write-through to the array; the
      // P&V latency itself is unaffected).
      bank.open_row = req.line / kLinesPerRow;
    }
    bank.op = BankOp::kWrite;
    bank.busy_until = now + req.latency;
    bank.in_write = req;
    result_.bank_busy_ns += req.latency.v;
    result_.metrics.banks[b].busy_ns += req.latency.v;
    trace_event(now, 'W', write_class(req.kind), b, req.line, req.latency);
    schedule(bank.busy_until, EventKind::kBankDone, b, ++bank.op_tag);
    // A write-queue slot freed: unblock stalled cores.
    for (unsigned c = 0; c < cores_.size(); ++c) {
      if (cores_[c].blocked_on_write_q) {
        cores_[c].blocked_on_write_q = false;
        schedule(now, EventKind::kCoreIssue, c);
      }
    }
    return;
  }

  if (bank.scrub_backlog > 0) start_scrub();
}

stats::ReqClass Simulator::write_class(WriteKind kind) {
  switch (kind) {
    case WriteKind::kDemand: return stats::ReqClass::kDemandWrite;
    case WriteKind::kConversion: return stats::ReqClass::kConversionWrite;
    case WriteKind::kScrubRewrite: return stats::ReqClass::kScrubRewrite;
  }
  return stats::ReqClass::kDemandWrite;
}

void Simulator::bank_done(unsigned b, Ns now, std::uint64_t tag) {
  Bank& bank = banks_[b];
  if (!bank.busy() || tag != bank.op_tag) {
    // Stale completion from a cancelled write.
    return;
  }
  const BankOp op = bank.op;
  const WriteReq done_write = bank.in_write;
  bank.op = BankOp::kNone;

  switch (op) {
    case BankOp::kRead: {
      const ReadReq req = bank.in_read;
      // Serialize the 64 B transfer on the shared channel.
      const Ns bus_start = std::max(now, bus_busy_until_);
      bus_busy_until_ = bus_start + cfg_.timing.bus_transfer;
      const Ns complete = bus_busy_until_;
      ++result_.reads_serviced;
      result_.read_latency_sum_ns += (complete - req.enqueue_time).v;
      result_.metrics.lat(class_of(req.mode))
          .record(complete - req.enqueue_time);
      if (req.svc_id != 0) {
        completions_.push_back(
            Completion{req.svc_id, class_of(req.mode), req.enqueue_time,
                       complete});
      }
      if (req.blocking) {
        Core& core = cores_[req.core];
        RD_CHECK(core.blocked_on_read);
        core.blocked_on_read = false;
        core.has_pending = false;
        // Resume execution once the data arrives.
        schedule(complete, EventKind::kCoreIssue, req.core);
      }
      break;
    }
    case BankOp::kWrite:
      ++result_.writes_serviced;
      // End-to-end latency: queueing (including cancellation restarts,
      // since enqueue_time survives re-queueing) plus service.
      result_.metrics.lat(write_class(done_write.kind))
          .record(now - done_write.enqueue_time);
      if (done_write.svc_id != 0) {
        completions_.push_back(
            Completion{done_write.svc_id, write_class(done_write.kind),
                       done_write.enqueue_time, now});
      }
      break;
    case BankOp::kScrubSense:
      ++result_.scrubs_serviced;
      for (unsigned i = 0; i < bank.scrub_rewrites; ++i) {
        enqueue_write(next_scrub_line(b), WriteKind::kScrubRewrite, now);
      }
      break;
    case BankOp::kNone:
      RD_CHECK_MSG(false, "bank completion with no op in service");
  }
  if (!bank.busy()) dispatch(b, now);
}

void Simulator::scrub_tick(unsigned b, Ns now) {
  Bank& bank = banks_[b];
  ++bank.scrub_backlog;
  bank.next_scrub += scrub_period_;
  // Closed system: keep ticking only while some core still executes,
  // otherwise the event queue would never drain. Open system: tick until
  // the driver calls stop_scrub().
  const bool keep =
      externally_driven() ? !scrub_stopped_ : !all_cores_done();
  if (keep) schedule(bank.next_scrub, EventKind::kScrubTick, b);
  if (!bank.busy()) dispatch(b, now);
}

}  // namespace rd::memsim
