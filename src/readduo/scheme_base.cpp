#include "readduo/scheme_base.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "config/loader.h"
#include "faults/injector.h"

namespace rd::readduo {

namespace {

/// Mean age (seconds) of a working-set line's last write when the rank
/// model is off (footprint_lines == 0 or no write rate); exponential.
constexpr double kMeanWorkingAgeS = 0.05;
/// First-touched-by-a-write lines sample their age log-uniformly over
/// [kWriteAgeMinS, kWriteAgeMaxS]: write instants sample the line
/// population by write renewal, which is much heavier-tailed than the
/// read-activity bias (see DESIGN.md on initial-age modelling). This is
/// what sets ReadDuo-Select's full-vs-differential write mix.
constexpr double kWriteAgeMinS = 1e-3;
constexpr double kWriteAgeMaxS = 1e6;

}  // namespace

SchemeBase::SchemeBase(std::string name, SchemeEnv env, SchemePolicy policy,
                       const ScrubAgeSampler* ages)
    : name_(std::move(name)),
      env_(env),
      policy_(policy),
      ages_(ages),
      faults_(env.faults != nullptr ? env.faults : faults::engine()),
      rng_(env.seed) {
  RD_CHECK_MSG(ages_ != nullptr || policy_.nu == 0,
               name_ << ": W = " << policy_.nu
                     << " scrubbing needs a steady-state sampler");
}

// The shared models latch the process-wide device (READDUO_DEVICE /
// --device) on first use; under the builtin device the configurations are
// bit-identical to the old hard-coded drift::r_metric()/m_metric().
const drift::ErrorModel& SchemeBase::r_model() {
  static const drift::ErrorModel model(config::active_device().r_metric);
  return model;
}

const drift::ErrorModel& SchemeBase::m_model() {
  static const drift::ErrorModel model(config::active_device().m_metric);
  return model;
}

const drift::CellErrorTable& SchemeBase::r_table() {
  static const drift::CellErrorTable table(r_model());
  return table;
}

const drift::CellErrorTable& SchemeBase::m_table() {
  static const drift::CellErrorTable table(m_model());
  return table;
}

double SchemeBase::sample_initial_age(std::uint64_t line, bool archive,
                                      FirstTouch touch) {
  if (policy_.read == ReadPolicy::kDriftFree) return 0.0;
  // Two draws, sequenced: the scrub bound first, then the workload age
  // (the order every recorded output was drawn in). A W = 1 sampler bounds
  // the age by the scrub process's renewal steady state; M-metric W = 1
  // almost never rewrites, so the workload's write recency dominates and
  // archive lines stay old, which is what LWT exists for. W = 0 without a
  // sampler rewrites every line each scrub: the age is uniform in [0, S).
  const double scrubbed = ages_ != nullptr
                              ? ages_->sample(rng_)
                              : rng_.uniform() * policy_.scrub_interval_s;
  const double workload = sample_workload_age(line, archive, touch);
  return std::min(workload, scrubbed);
}

double SchemeBase::sample_workload_age(std::uint64_t line, bool archive,
                                       FirstTouch touch) {
  double u = rng_.uniform();
  while (u <= 0.0) u = rng_.uniform();
  if (archive) {
    return std::min(-env_.archive_age_scale_s * std::log(u), kMaxAgeS);
  }

  if (touch == FirstTouch::kWrite) {
    // Write instants sample lines by write renewal: log-uniform ages over
    // many decades (streaming writes, cold allocations, periodic sweeps).
    const double lo = std::log(kWriteAgeMinS);
    const double hi = std::log(kWriteAgeMaxS);
    return std::exp(lo + rng_.uniform() * (hi - lo));
  }

  double mean = kMeanWorkingAgeS;
  if (env_.footprint_lines > 0 && env_.per_core_write_rate > 0.0) {
    // Read instants are biased toward currently-active data: exponential
    // age with the per-line write rate from the line's Zipf popularity
    // rank (continuous approximation; requires zipf_s < 1).
    const double f = static_cast<double>(env_.footprint_lines);
    const std::uint64_t slice = env_.footprint_lines + env_.archive_lines;
    const double rank = static_cast<double>(line % slice) + 1.0;
    const double s = env_.zipf_s;
    const double weight =
        s > 0.0 ? (1.0 - s) * std::pow(rank, -s) / std::pow(f, 1.0 - s)
                : 1.0 / f;
    const double rate = env_.per_core_write_rate * weight;
    mean = rate > 0.0 ? 1.0 / rate : kMaxAgeS;
  }
  return std::min(-mean * std::log(u), kMaxAgeS);
}

void SchemeBase::init_line(LineState&, std::uint64_t, Ns, bool) {}

LineState& SchemeBase::state_of(std::uint64_t line, Ns now, bool archive,
                                FirstTouch touch) {
  if (LineState* st = lines_.find(line)) return *st;
  LineState st;
  const double age = sample_initial_age(line, archive, touch);
  st.last_write_s = now.seconds() - age;
  st.last_full_write_s = st.last_write_s;
  LineState& added = lines_.insert(line, st);
  init_line(added, line, now, archive);
  return added;
}

unsigned SchemeBase::sample_r_errors(std::uint64_t line,
                                     const LineState& st, Ns now) {
  const double age = now.seconds() - st.last_full_write_s;
  const double p = r_table().prob(age);
  unsigned errors = rng_.binomial(drift::kLineCells, p);
  if (faults_ != nullptr) {
    const unsigned extra =
        faults_->extra_r_errors(line, now, drift::kLineCells);
    if (extra > 0) {
      counters_.injected_faults += extra;
      errors = std::min(errors + extra, drift::kLineCells);
    }
  }
  return errors;
}

unsigned SchemeBase::sample_m_errors(const LineState& st, Ns now) {
  const double age = now.seconds() - st.last_full_write_s;
  const double p = m_table().prob(age);
  return rng_.binomial(drift::kLineCells, p);
}

WriteOutcome SchemeBase::full_write(LineState& st, Ns now) {
  st.last_write_s = now.seconds();
  st.last_full_write_s = now.seconds();
  WriteOutcome w;
  w.latency = env_.timing.write;
  w.cells_written = drift::kLineCells;
  w.full_line = true;
  counters_.cell_writes += w.cells_written;
  counters_.write_energy_pj +=
      env_.energy.cell_write.v * static_cast<double>(w.cells_written);
  return w;
}

WriteOutcome SchemeBase::on_write(std::uint64_t line, Ns now) {
  ++counters_.demand_full_writes;
  return full_write(
      state_of(line, now, /*archive=*/false, FirstTouch::kWrite), now);
}

WriteOutcome SchemeBase::on_converted_write(std::uint64_t line, Ns now) {
  ++counters_.conversion_writes;
  return full_write(state_of(line, now, /*archive=*/false), now);
}

ReadOutcome SchemeBase::serve(ReadMode mode) {
  switch (mode) {
    case ReadMode::kRRead:
      ++counters_.r_reads;
      counters_.read_energy_pj += env_.energy.r_read.v;
      return ReadOutcome{mode, env_.timing.r_read, false};
    case ReadMode::kMRead:
      ++counters_.m_reads;
      counters_.read_energy_pj += env_.energy.m_read.v;
      return ReadOutcome{mode, env_.timing.m_read, false};
    case ReadMode::kRMRead:
      ++counters_.rm_reads;
      counters_.read_energy_pj +=
          env_.energy.r_read.v + env_.energy.m_read.v;
      return ReadOutcome{mode, env_.timing.rm_read, false};
  }
  RD_CHECK_MSG(false, "unknown read mode");
  return {};
}

ReadOutcome SchemeBase::r_then_m_read(std::uint64_t line,
                                      const LineState& st, Ns now) {
  const unsigned errors = sample_r_errors(line, st, now);
  if (errors <= drift::kLineCorrectable) return serve(ReadMode::kRRead);
  if (errors <= drift::kLineDetectable) return serve(ReadMode::kRMRead);
  // More errors than BCH-8 detects cannot be told apart from clean data:
  // silent.
  ++counters_.silent_corruptions;
  return serve(ReadMode::kRRead);
}

ReadOutcome SchemeBase::on_read(std::uint64_t line, Ns now, bool archive) {
  switch (policy_.read) {
    case ReadPolicy::kDriftFree:
      return serve(ReadMode::kRRead);
    case ReadPolicy::kROnly: {
      const unsigned errors =
          sample_r_errors(line, state_of(line, now, archive), now);
      if (errors > drift::kLineDetectable) {
        ++counters_.silent_corruptions;
      } else if (errors > drift::kLineCorrectable) {
        ++counters_.detected_uncorrectable;
      }
      return serve(ReadMode::kRRead);
    }
    case ReadPolicy::kMOnly:
      if (sample_m_errors(state_of(line, now, archive), now) >
          drift::kLineCorrectable) {
        ++counters_.detected_uncorrectable;
      }
      return serve(ReadMode::kMRead);
    case ReadPolicy::kRThenM:
      return r_then_m_read(line, state_of(line, now, archive), now);
  }
  RD_CHECK_MSG(false, "unknown read policy");
  return {};
}

ScrubOutcome SchemeBase::on_scrub(Ns, unsigned lines) {
  if (policy_.scrub_interval_s <= 0.0) return {};
  const bool m = policy_.scrub_sense == ScrubSense::kM;
  ++counters_.scrub_senses;
  // One row activation senses `lines` lines worth of bits, internally.
  counters_.scrub_energy_pj += (m ? env_.energy.m_read : env_.energy.r_read).v *
                               env_.energy.internal_sense_scale *
                               static_cast<double>(lines);
  ScrubOutcome s;
  s.sense_latency = m ? env_.timing.m_read : env_.timing.r_read;
  s.rewrites = policy_.nu == 0
                   ? lines
                   : rng_.binomial(lines, ages_->rewrite_probability());
  return s;
}

WriteOutcome SchemeBase::on_scrub_rewrite(Ns) {
  if (policy_.scrub_interval_s <= 0.0) return {};
  ++counters_.scrub_rewrites;
  WriteOutcome w;
  w.latency = env_.timing.write;
  w.cells_written = drift::kLineCells;
  counters_.cell_writes += w.cells_written;
  counters_.scrub_energy_pj +=
      env_.energy.cell_write.v * static_cast<double>(w.cells_written);
  return w;
}

}  // namespace rd::readduo
