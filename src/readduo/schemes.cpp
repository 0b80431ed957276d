#include "readduo/schemes.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "faults/injector.h"

namespace rd::readduo {

namespace {

/// Shared steady-state samplers: pure functions of (metric, interval, nu),
/// so scheme instances share them per process. The Scrubbing key (R-metric,
/// S = 8 s, W = 1) costs ~2 s at 4 threads to build; the M-metric keys cost
/// tens of milliseconds.
///
/// A sampler is built outside g_sampler_mu and published under it. The
/// build runs its grid on the pool, and holding the lock across that
/// would deadlock: a caller outside the pool would wait on the pool's
/// current job while that job's shards wait on the lock. Two threads that
/// miss the same key both build it; the first insert wins and the other,
/// bit-identical by purity, is dropped. Entries are never erased and the
/// map keeps node addresses stable, so the returned reference outlives the
/// lock.
Mutex g_sampler_mu;
std::map<std::tuple<bool, unsigned, double, unsigned>,
         std::unique_ptr<ScrubAgeSampler>>
    g_sampler_cache RD_GUARDED_BY(g_sampler_mu);

const ScrubAgeSampler& shared_sampler(bool m_metric, unsigned cells,
                                      double interval, unsigned nu) {
  const auto key = std::make_tuple(m_metric, cells, interval, nu);
  {
    MutexLock lock(g_sampler_mu);
    const auto it = g_sampler_cache.find(key);
    if (it != g_sampler_cache.end()) return *it->second;
  }
  const drift::ErrorModel& model =
      m_metric ? SchemeBase::m_model() : SchemeBase::r_model();
  auto built = std::make_unique<ScrubAgeSampler>(model, cells, interval, nu);
  MutexLock lock(g_sampler_mu);
  return *g_sampler_cache.try_emplace(key, std::move(built)).first->second;
}

/// BCH-8 correction/detection thresholds with decoupled detect/correct
/// (Section III-B): correct up to 8, detect up to 17, silent beyond.
constexpr unsigned kCorrectable = 8;
constexpr unsigned kDetectable = 17;

/// MLC cells per 64 B line with BCH-8 (512 data + 80 parity bits).
constexpr double kMlcCells = 296.0;
/// Tri-level cells per 64 B line with (72,64) SECDED.
constexpr double kTlcCells = 384.0;

// ---------------------------------------------------------------- Ideal --

class IdealScheme : public SchemeBase {
 public:
  explicit IdealScheme(const SchemeEnv& env) : SchemeBase("Ideal", env) {}

  double cells_per_line() const override { return kMlcCells; }
  double scrub_interval_seconds() const override { return 0.0; }

  ReadOutcome on_read(std::uint64_t, Ns, bool) override {
    ++counters_.r_reads;
    add_read_energy(ReadMode::kRRead);
    return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
  }

  ScrubOutcome on_scrub(Ns, unsigned) override { return {}; }
  WriteOutcome on_scrub_rewrite(Ns) override { return {}; }

 protected:
  double sample_initial_age(std::uint64_t, bool, FirstTouch,
                            Rng&) override {
    return 0.0;
  }
};

// ------------------------------------------------------------------ TLC --

class TlcScheme : public SchemeBase {
 public:
  explicit TlcScheme(const SchemeEnv& env) : SchemeBase("TLC", env) {}

  double cells_per_line() const override { return kTlcCells; }
  double scrub_interval_seconds() const override { return 0.0; }

  ReadOutcome on_read(std::uint64_t, Ns, bool) override {
    ++counters_.r_reads;
    add_read_energy(ReadMode::kRRead);
    return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
  }

  WriteOutcome on_write(std::uint64_t line, Ns now) override {
    // A TLC line programs 384 tri-level cells; each costs tlc_write_scale
    // of an MLC cell write (coarser P&V against decade-wide targets).
    WriteOutcome w = SchemeBase::on_write(line, now);
    // Rebase the energy SchemeBase charged for 296 full-rate MLC cells.
    counters_.write_energy_pj -=
        env().energy.cell_write.v * static_cast<double>(w.cells_written);
    const unsigned extra =
        static_cast<unsigned>(kTlcCells) - w.cells_written;
    counters_.cell_writes += extra;
    counters_.write_energy_pj += env().energy.cell_write.v *
                                 env().energy.tlc_write_scale * kTlcCells;
    w.cells_written = static_cast<unsigned>(kTlcCells);
    return w;
  }

  ScrubOutcome on_scrub(Ns, unsigned) override { return {}; }
  WriteOutcome on_scrub_rewrite(Ns) override { return {}; }

 protected:
  double sample_initial_age(std::uint64_t, bool, FirstTouch,
                            Rng&) override {
    return 0.0;
  }
};

// ------------------------------------------------------ Scrubbing (R) ----

class ScrubbingScheme : public SchemeBase {
 public:
  ScrubbingScheme(const SchemeEnv& env, double interval_s, unsigned nu,
                  std::string name, double cells_per_line = kMlcCells)
      : SchemeBase(std::move(name), env),
        interval_s_(interval_s),
        nu_(nu),
        cells_per_line_(cells_per_line),
        age_sampler_(shared_sampler(false, env.geometry.total_cells(),
                                    interval_s, nu)) {}

  double cells_per_line() const override { return cells_per_line_; }
  double scrub_interval_seconds() const override { return interval_s_; }

  ReadOutcome on_read(std::uint64_t line, Ns now, bool archive) override {
    LineState& st = state_of(line, now, archive);
    const unsigned errors = sample_r_errors(line, st, now);
    if (errors > kDetectable) {
      ++counters_.silent_corruptions;
    } else if (errors > kCorrectable) {
      ++counters_.detected_uncorrectable;
    }
    ++counters_.r_reads;
    add_read_energy(ReadMode::kRRead);
    return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
  }

  ScrubOutcome on_scrub(Ns, unsigned lines) override {
    ++counters_.scrub_senses;
    // One row activation senses `lines` lines worth of bits, internally.
    counters_.scrub_energy_pj += env().energy.r_read.v *
                                 env().energy.internal_sense_scale *
                                 static_cast<double>(lines);
    ScrubOutcome s;
    s.sense_latency = env().timing.r_read;
    s.rewrites =
        nu_ == 0
            ? lines
            : rng().binomial(lines, age_sampler_.rewrite_probability());
    return s;
  }

  WriteOutcome on_scrub_rewrite(Ns) override {
    ++counters_.scrub_rewrites;
    WriteOutcome w;
    w.latency = env().timing.write;
    w.cells_written = env().geometry.total_cells();
    counters_.cell_writes += w.cells_written;
    counters_.scrub_energy_pj +=
        env().energy.cell_write.v * static_cast<double>(w.cells_written);
    return w;
  }

 protected:
  double sample_initial_age(std::uint64_t line, bool archive,
                            FirstTouch touch, Rng& r) override {
    return std::min(sample_workload_age(line, archive, touch, r),
                    age_sampler_.sample(r));
  }

 private:
  double interval_s_;
  unsigned nu_;
  double cells_per_line_;
  const ScrubAgeSampler& age_sampler_;
};

// --------------------------------------------------------- M-metric ------

class MMetricScheme : public SchemeBase {
 public:
  MMetricScheme(const SchemeEnv& env, double interval_s)
      : SchemeBase("M-metric", env),
        interval_s_(interval_s),
        age_sampler_(shared_sampler(true, env.geometry.total_cells(),
                                    interval_s, /*nu=*/1)) {}

  double cells_per_line() const override { return kMlcCells; }
  double scrub_interval_seconds() const override { return interval_s_; }

  ReadOutcome on_read(std::uint64_t line, Ns now, bool archive) override {
    LineState& st = state_of(line, now, archive);
    const unsigned errors = sample_m_errors(st, now);
    if (errors > kCorrectable) ++counters_.detected_uncorrectable;
    ++counters_.m_reads;
    add_read_energy(ReadMode::kMRead);
    return ReadOutcome{ReadMode::kMRead, env().timing.m_read, false};
  }

  ScrubOutcome on_scrub(Ns, unsigned lines) override {
    ++counters_.scrub_senses;
    counters_.scrub_energy_pj += env().energy.m_read.v *
                                 env().energy.internal_sense_scale *
                                 static_cast<double>(lines);
    ScrubOutcome s;
    s.sense_latency = env().timing.m_read;
    s.rewrites = rng().binomial(lines, age_sampler_.rewrite_probability());
    return s;
  }

  WriteOutcome on_scrub_rewrite(Ns) override {
    ++counters_.scrub_rewrites;
    WriteOutcome w;
    w.latency = env().timing.write;
    w.cells_written = env().geometry.total_cells();
    counters_.cell_writes += w.cells_written;
    counters_.scrub_energy_pj +=
        env().energy.cell_write.v * static_cast<double>(w.cells_written);
    return w;
  }

 protected:
  double sample_initial_age(std::uint64_t line, bool archive,
                            FirstTouch touch, Rng& r) override {
    return std::min(sample_workload_age(line, archive, touch, r),
                    age_sampler_.sample(r));
  }

 private:
  double interval_s_;
  const ScrubAgeSampler& age_sampler_;
};

// ----------------------------------------------------------- Hybrid ------

class HybridScheme : public SchemeBase {
 public:
  HybridScheme(const SchemeEnv& env, double interval_s)
      : SchemeBase("Hybrid", env), interval_s_(interval_s) {}

  double cells_per_line() const override { return kMlcCells; }
  double scrub_interval_seconds() const override { return interval_s_; }

  ReadOutcome on_read(std::uint64_t line, Ns now, bool archive) override {
    LineState& st = state_of(line, now, archive);
    const unsigned errors = sample_r_errors(line, st, now);
    if (errors <= kCorrectable) {
      ++counters_.r_reads;
      add_read_energy(ReadMode::kRRead);
      return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
    }
    if (errors <= kDetectable) {
      ++counters_.rm_reads;
      add_read_energy(ReadMode::kRMRead);
      return ReadOutcome{ReadMode::kRMRead, env().timing.rm_read, false};
    }
    // More than 17 errors cannot be told apart from clean data: silent.
    ++counters_.silent_corruptions;
    ++counters_.r_reads;
    add_read_energy(ReadMode::kRRead);
    return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
  }

  ScrubOutcome on_scrub(Ns, unsigned lines) override {
    // (BCH8, S=640, W=0): sense with M, rewrite every line of the row.
    ++counters_.scrub_senses;
    counters_.scrub_energy_pj += env().energy.m_read.v *
                                 env().energy.internal_sense_scale *
                                 static_cast<double>(lines);
    ScrubOutcome s;
    s.sense_latency = env().timing.m_read;
    s.rewrites = lines;
    return s;
  }

  WriteOutcome on_scrub_rewrite(Ns) override {
    ++counters_.scrub_rewrites;
    WriteOutcome w;
    w.latency = env().timing.write;
    w.cells_written = env().geometry.total_cells();
    counters_.cell_writes += w.cells_written;
    counters_.scrub_energy_pj +=
        env().energy.cell_write.v * static_cast<double>(w.cells_written);
    return w;
  }

 protected:
  double sample_initial_age(std::uint64_t line, bool archive,
                            FirstTouch touch, Rng& r) override {
    // W = 0 rewrites every line each scrub: age is uniform in [0, S),
    // further bounded by the workload's own write recency.
    return std::min(sample_workload_age(line, archive, touch, r),
                    r.uniform() * interval_s_);
  }

 private:
  double interval_s_;
};

// -------------------------------------------------------------- LWT ------

class LwtScheme : public SchemeBase {
 public:
  LwtScheme(const SchemeEnv& env, const ReadDuoOptions& opts,
            double interval_s, std::string name)
      : SchemeBase(std::move(name), env),
        opts_(opts),
        interval_s_(interval_s),
        sub_interval_s_(interval_s / opts.k),
        age_sampler_(shared_sampler(true, env.geometry.total_cells(),
                                    interval_s, /*nu=*/1)),
        controller_([&] {
          ConversionController::Config c = opts.controller;
          c.enabled = opts.conversion;
          return c;
        }()) {}

  double cells_per_line() const override {
    // 296 MLC cells + (k + log2 k) SLC flag bits, one SLC cell each.
    return kMlcCells + static_cast<double>(LwtFlags(opts_.k).flag_bits());
  }
  double scrub_interval_seconds() const override { return interval_s_; }

  ReadOutcome on_read(std::uint64_t line, Ns now, bool archive) override {
    LineState& st = state_of(line, now, archive);
    const unsigned s = label_of(line, now.seconds());
    // Flag-corruption faults strike the SLC flag cells *before* the
    // controller consults them — the protocol's stale-bit hygiene is what
    // keeps a flipped bit from green-lighting an unsafe R-sense.
    if (const faults::FaultEngine* fe = faults()) {
      if (auto bit = fe->lwt_vector_flip(line, now, opts_.k)) {
        st.flags.corrupt_vector_bit(*bit);
        ++counters_.injected_faults;
      }
      if (auto idx = fe->lwt_index_overwrite(line, now, opts_.k)) {
        st.flags.corrupt_index(*idx);
        ++counters_.injected_faults;
      }
    }
    const bool tracked = st.flags.tracked_for_read(s);
    controller_.record_read(!tracked, tracked && st.converted);

    if (tracked) {
      const unsigned errors = sample_r_errors(line, st, now);
      if (errors <= kCorrectable) {
        ++counters_.r_reads;
        add_read_energy(ReadMode::kRRead);
        return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
      }
      if (errors <= kDetectable) {
        ++counters_.rm_reads;
        add_read_energy(ReadMode::kRMRead);
        return ReadOutcome{ReadMode::kRMRead, env().timing.rm_read, false};
      }
      ++counters_.silent_corruptions;
      ++counters_.r_reads;
      add_read_energy(ReadMode::kRRead);
      return ReadOutcome{ReadMode::kRRead, env().timing.r_read, false};
    }

    // Un-tracked: R-sensing unsafe; flag check aborts it and the M retry
    // services the read (R-M-read, 600 ns).
    ++counters_.untracked_reads;
    ++counters_.rm_reads;
    add_read_energy(ReadMode::kRMRead);
    ReadOutcome out{ReadMode::kRMRead, env().timing.rm_read, false};
    if (controller_.should_convert()) {
      ++counters_.converted_reads;
      controller_.record_conversion();
      out.convert_to_write = true;
    }
    return out;
  }

  WriteOutcome on_write(std::uint64_t line, Ns now) override {
    WriteOutcome w = SchemeBase::on_write(line, now);
    track_full_write(line, now);
    return w;
  }

  WriteOutcome on_converted_write(std::uint64_t line, Ns now) override {
    WriteOutcome w = SchemeBase::on_converted_write(line, now);
    track_full_write(line, now);
    state_of(line, now, false).converted = true;
    return w;
  }

  ScrubOutcome on_scrub(Ns, unsigned lines) override {
    ++counters_.scrub_senses;
    counters_.scrub_energy_pj += env().energy.m_read.v *
                                 env().energy.internal_sense_scale *
                                 static_cast<double>(lines);
    ScrubOutcome s;
    s.sense_latency = env().timing.m_read;
    s.rewrites = rng().binomial(lines, age_sampler_.rewrite_probability());
    return s;
  }

  WriteOutcome on_scrub_rewrite(Ns) override {
    ++counters_.scrub_rewrites;
    WriteOutcome w;
    w.latency = env().timing.write;
    w.cells_written = env().geometry.total_cells();
    counters_.cell_writes += w.cells_written;
    counters_.scrub_energy_pj +=
        env().energy.cell_write.v * static_cast<double>(w.cells_written);
    return w;
  }

  unsigned t_percent() const { return controller_.t_percent(); }

 protected:
  double sample_initial_age(std::uint64_t line, bool archive,
                            FirstTouch touch, Rng& r) override {
    // W = 1 M-metric scrubbing almost never rewrites: ages are bounded by
    // the workload's write recency (archive lines stay old — the LWT
    // mechanism exists precisely for them).
    return std::min(sample_workload_age(line, archive, touch, r),
                    age_sampler_.sample(r));
  }

  void init_line(LineState& st, std::uint64_t line, Ns now, bool) override {
    st.flags = LwtFlags(opts_.k);
    replay_flags(st, line, now.seconds());
  }

  /// The line's scrub phase in [0, S): scrubs fire when
  /// (t - phase) mod S == 0, and label 0 starts at each scrub.
  double phase_of(std::uint64_t line) const {
    // splitmix64 hash for a deterministic, well-spread phase.
    std::uint64_t z = line + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<double>(z % 1000000ull) * 1e-6 * interval_s_;
  }

  /// Sub-interval label of time t for this line (relative to its cycle).
  unsigned label_of(std::uint64_t line, double t_s) const {
    double rel = std::fmod(t_s - phase_of(line), interval_s_);
    if (rel < 0) rel += interval_s_;
    unsigned label = static_cast<unsigned>(rel / sub_interval_s_);
    return std::min(label, opts_.k - 1);
  }

  /// Reconstruct the flag state by replaying the protocol: the last full
  /// write at st.last_full_write_s, then every scrub between it and now.
  void replay_flags(LineState& st, std::uint64_t line, double now_s) {
    const double tw = st.last_full_write_s;
    const double phase = phase_of(line);
    const auto cycles_before = [&](double t) {
      return static_cast<long long>(std::floor((t - phase) / interval_s_));
    };
    const long long n_scrubs =
        std::max(0ll, cycles_before(now_s) - cycles_before(tw));
    st.flags.on_write(label_of(line, tw));
    // Two scrubs with no intervening write zero the vector flag; replaying
    // more changes nothing.
    for (long long i = 0; i < std::min(n_scrubs, 2ll); ++i) {
      st.flags.on_scrub(/*rewrote=*/false);
    }
  }

  void track_full_write(std::uint64_t line, Ns now) {
    LineState& st = state_of(line, now, false);
    st.flags.on_write(label_of(line, now.seconds()));
  }

  const ReadDuoOptions opts_;
  const double interval_s_;
  const double sub_interval_s_;
  const ScrubAgeSampler& age_sampler_;
  ConversionController controller_;
};

// ------------------------------------------------------------ Select -----

class SelectScheme : public LwtScheme {
 public:
  SelectScheme(const SchemeEnv& env, const ReadDuoOptions& opts,
               double interval_s, std::string name)
      : LwtScheme(env, opts, interval_s, std::move(name)) {}

  WriteOutcome on_write(std::uint64_t line, Ns now) override {
    LineState& st = state_of(line, now, false, FirstTouch::kWrite);
    const double window =
        static_cast<double>(opts_.select_s) * sub_interval_s_;
    const double since_full = now.seconds() - st.last_full_write_s;
    if (since_full >= 0.0 && since_full < window) {
      // Differential write: program only modified cells plus the drifted
      // cells found by the pre-write read. The full-write clock (and the
      // LWT flags) deliberately stay put: R-sensing reliability is
      // measured from the last full write (Section III-D).
      const unsigned n = env().geometry.total_cells();
      unsigned cells = rng().binomial(n, opts_.changed_cell_fraction) +
                       sample_r_errors(line, st, now);
      cells = std::min(cells, n);
      st.last_write_s = now.seconds();
      ++counters_.demand_diff_writes;
      counters_.cell_writes += cells;
      counters_.write_energy_pj +=
          env().energy.cell_write.v * static_cast<double>(cells);
      WriteOutcome w;
      w.latency = env().timing.write;
      w.cells_written = cells;
      w.full_line = false;
      return w;
    }
    return LwtScheme::on_write(line, now);
  }
};

}  // namespace

std::string scheme_name(SchemeKind kind, const ReadDuoOptions& opts) {
  switch (kind) {
    case SchemeKind::kIdeal: return "Ideal";
    case SchemeKind::kTlc: return "TLC";
    case SchemeKind::kScrubbing: return "Scrubbing";
    case SchemeKind::kScrubbingW0: return "Scrubbing-W0";
    case SchemeKind::kScrubbingBch10: return "Scrubbing-BCH10";
    case SchemeKind::kMMetric: return "M-metric";
    case SchemeKind::kHybrid: return "Hybrid";
    case SchemeKind::kLwt: return "LWT-" + std::to_string(opts.k);
    case SchemeKind::kSelect:
      return "Select-" + std::to_string(opts.k) + ":" +
             std::to_string(opts.select_s);
  }
  RD_CHECK_MSG(false, "unknown scheme kind");
  return {};
}

std::unique_ptr<Scheme> make_scheme(SchemeKind kind, const SchemeEnv& env,
                                    const ReadDuoOptions& opts,
                                    const ScrubSettings& scrub) {
  switch (kind) {
    case SchemeKind::kIdeal:
      return std::make_unique<IdealScheme>(env);
    case SchemeKind::kTlc:
      return std::make_unique<TlcScheme>(env);
    case SchemeKind::kScrubbing:
      return std::make_unique<ScrubbingScheme>(env, scrub.r_interval_s,
                                               /*nu=*/1, "Scrubbing");
    case SchemeKind::kScrubbingW0:
      return std::make_unique<ScrubbingScheme>(env, scrub.r_interval_s,
                                               /*nu=*/0, "Scrubbing-W0");
    case SchemeKind::kScrubbingBch10:
      // 512 data + 100 parity bits = 306 cells; W=1 is reliable with the
      // stronger code (Table V).
      return std::make_unique<ScrubbingScheme>(env, scrub.r_interval_s,
                                               /*nu=*/1, "Scrubbing-BCH10",
                                               306.0);
    case SchemeKind::kMMetric:
      return std::make_unique<MMetricScheme>(env, scrub.m_interval_s);
    case SchemeKind::kHybrid:
      return std::make_unique<HybridScheme>(env, scrub.m_interval_s);
    case SchemeKind::kLwt:
      return std::make_unique<LwtScheme>(env, opts, scrub.m_interval_s,
                                         scheme_name(kind, opts));
    case SchemeKind::kSelect:
      return std::make_unique<SelectScheme>(env, opts, scrub.m_interval_s,
                                            scheme_name(kind, opts));
  }
  RD_CHECK_MSG(false, "unknown scheme kind");
  return nullptr;
}

}  // namespace rd::readduo
