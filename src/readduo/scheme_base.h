// The scheme core: per-line state, initial-age sampling, drift-error
// sampling, energy accounting, and the read, scrub and rewrite bodies every
// kind shares. A kind is a SchemePolicy (which metric reads and scrubs
// sense with, S and W); only TLC's writes and LWT/Select's flag tracking
// need a subclass (schemes.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "drift/error_model.h"
#include "pcm/params.h"
#include "readduo/lwt_flags.h"
#include "readduo/scheme.h"
#include "readduo/steady_state.h"

namespace rd::faults {
class FaultEngine;
}  // namespace rd::faults

namespace rd::readduo {

/// Environment every scheme shares: device parameters plus the workload's
/// data-age behaviour (see DESIGN.md on initial-age modelling).
struct SchemeEnv {
  pcm::TimingParams timing;
  pcm::EnergyParams energy;
  drift::LineGeometry geometry;
  /// Workload geometry for rank-dependent write recency: each core's
  /// address slice is [base, base + footprint) working set followed by
  /// [base + footprint, base + footprint + archive_lines) archive.
  /// footprint_lines == 0 disables the rank model (mean_working_age_s is
  /// used instead).
  std::uint64_t footprint_lines = 0;
  std::uint64_t archive_lines = 0;
  /// Zipf exponent of line popularity (must be < 1; matches the trace).
  double zipf_s = 0.0;
  /// Total write rate of one core over its working set, writes/second.
  double per_core_write_rate = 0.0;
  /// Fallback mean age (seconds) of a working-set line's last write when
  /// footprint_lines == 0 (exponentially distributed).
  double mean_working_age_s = 0.05;
  /// Scale (seconds) of archive-line ages (exponential).
  double archive_age_scale_s = 20000.0;
  /// First-touched-by-a-write lines sample their age log-uniformly over
  /// [write_age_min_s, write_age_max_s]: write instants sample the line
  /// population by write renewal, which is much heavier-tailed than the
  /// read-activity bias (see DESIGN.md on initial-age modelling). This is
  /// what sets ReadDuo-Select's full-vs-differential write mix.
  double write_age_min_s = 1e-3;
  double write_age_max_s = 1e6;
  /// Cap on sampled pre-window ages (seconds).
  double max_age_s = 1.0e6;
  pcm::ScrubPolicy scrub;  ///< device [scrub]: the M-scrubbing kinds' S, W
  std::uint64_t seed = 1;
  /// Fault injector for this run; nullptr defers to the process-wide
  /// faults::engine() (which is itself nullptr when READDUO_FAULTS is
  /// off — the common, zero-overhead case).
  const faults::FaultEngine* faults = nullptr;
};

/// How a line is first touched; selects the initial-age population.
enum class FirstTouch { kRead, kWrite };

/// Per-line simulator-side state.
struct LineState {
  /// Absolute time (seconds, may be negative = before the window) of the
  /// last write of any kind.
  double last_write_s = 0.0;
  /// Last *full-line* write; differs from last_write_s only under
  /// ReadDuo-Select. Drift-error sampling keys off this one: differential
  /// writes leave unmodified cells drifting from the older time.
  double last_full_write_s = 0.0;
  /// LWT flag bits (only meaningful for LWT/Select schemes).
  LwtFlags flags{4};
  /// Set when the line was written back by R-M-read conversion; tracked
  /// reads hitting such lines are the controller's benefit signal.
  bool converted = false;
};

/// How a scheme services a demand read (Section III-B thresholds: BCH-8
/// corrects up to 8 errors and detects up to 17).
enum class ReadPolicy {
  /// Drift-free cells (Ideal, TLC): every read is an R-read, and no line
  /// age or error count is ever sampled.
  kDriftFree,
  /// R-sensing with no fallback (Scrubbing): 9..17 errors are detected
  /// but uncorrectable, more are silent.
  kROnly,
  /// M-sensing only: more than 8 errors are detected but uncorrectable.
  kMOnly,
  /// ReadDuo: R-sense, M retry (R-M-read) on 9..17 errors, silent beyond.
  kRThenM,
};

/// Which metric a scrub senses with.
enum class ScrubSense { kR, kM };

/// What sets one scheme kind apart from another, apart from TLC's writes
/// and LWT/Select's flag tracking.
struct SchemePolicy {
  ReadPolicy read = ReadPolicy::kDriftFree;
  /// Scrub interval S in seconds; 0 never scrubs.
  double scrub_interval_s = 0.0;
  ScrubSense scrub_sense = ScrubSense::kR;
  /// Rewrite threshold W: 0 rewrites every sensed line; otherwise each
  /// line is rewritten at the steady-state sampler's rewrite rate.
  unsigned nu = 0;
  const char* interval_origin = "fixed by the kind";  ///< or "scrub.interval"
};

/// The one scheme core: state management, stochastic drift sampling and
/// the shared read, scrub and rewrite bodies, driven by a SchemePolicy.
/// Ideal, Scrubbing (all three), M-metric and Hybrid are plain instances.
class SchemeBase : public Scheme {
 public:
  /// `ages` is the steady-state sampler of the scrub process; it bounds
  /// first-touch ages and sets the W = 1 rewrite rate. Without one, a
  /// scrubbing scheme must have W = 0, and ages are uniform in [0, S).
  SchemeBase(std::string name, SchemeEnv env, SchemePolicy policy,
             const ScrubAgeSampler* ages = nullptr);

  const std::string& name() const override { return name_; }
  double scrub_interval_seconds() const final {
    return policy_.scrub_interval_s;
  }
  const char* scrub_origin() const final { return policy_.interval_origin; }

  ReadOutcome on_read(std::uint64_t line, Ns now, bool archive) override;
  /// Default full-line demand write used by most schemes.
  WriteOutcome on_write(std::uint64_t line, Ns now) override;
  WriteOutcome on_converted_write(std::uint64_t line, Ns now) override;
  ScrubOutcome on_scrub(Ns now, unsigned lines) final;
  WriteOutcome on_scrub_rewrite(Ns now) final;

 protected:
  /// Fetch (creating and steady-state-initializing on first touch) the
  /// state of `line`. `archive` and `touch` select the initial-age
  /// population.
  LineState& state_of(std::uint64_t line, Ns now, bool archive,
                      FirstTouch touch = FirstTouch::kRead);

  /// Sample the number of R-metric drift errors a read of `line` at `now`
  /// sees, given the line's last full write — plus any injected sensing
  /// transients (READDUO_FAULTS "sense"; R-sensing only, M is the robust
  /// path by construction).
  unsigned sample_r_errors(std::uint64_t line, const LineState& st, Ns now);
  /// Same under the M-metric (never fault-injected).
  unsigned sample_m_errors(const LineState& st, Ns now);

  /// R-sense `line` with the M retry behind it (ReadPolicy::kRThenM).
  ReadOutcome r_then_m_read(std::uint64_t line, const LineState& st, Ns now);

  /// Count a read serviced in `mode`, charge its energy, and return it.
  ReadOutcome serve(ReadMode mode);

  /// Record a full-line write of `line` (demand / conversion / rewrite).
  WriteOutcome full_write(LineState& st, Ns now);

  /// Hook: initialize flags or other per-line metadata after the age was
  /// sampled (LWT replays the flag protocol).
  virtual void init_line(LineState& st, std::uint64_t line, Ns now,
                         bool archive);

  Rng& rng() { return rng_; }
  const SchemeEnv& env() const { return env_; }
  /// The resolved fault injector (nullptr when faults are off).
  const faults::FaultEngine* faults() const { return faults_; }

 public:
  /// Shared per-process singletons: the error tables and models are pure
  /// functions of the (fixed) metric configurations and cost ~1 s to
  /// build, so every scheme instance reuses them.
  static const drift::CellErrorTable& r_table();
  static const drift::CellErrorTable& m_table();
  static const drift::ErrorModel& r_model();
  static const drift::ErrorModel& m_model();

 private:
  /// Initial age of a never-before-seen line: the workload's own write
  /// recency, bounded by the scrub process (see DESIGN.md).
  double sample_initial_age(std::uint64_t line, bool archive,
                            FirstTouch touch);

  /// Workload-recency component of the initial age: exponential with a
  /// per-line rate from the line's Zipf popularity rank, so hot lines are
  /// recently written and the tail is old (see DESIGN.md).
  double sample_workload_age(std::uint64_t line, bool archive,
                             FirstTouch touch);

  std::string name_;
  SchemeEnv env_;
  SchemePolicy policy_;
  const ScrubAgeSampler* ages_;
  /// env_.faults, or the process engine when that is null; resolved once
  /// at construction so the hot path is a plain pointer test.
  const faults::FaultEngine* faults_;
  Rng rng_;
  /// Ordered by line address: lookups are keyed, but an ordered map keeps
  /// any future iteration (dumps, scrubs walking the population)
  /// deterministic by construction.
  std::map<std::uint64_t, LineState> lines_;
};

}  // namespace rd::readduo
