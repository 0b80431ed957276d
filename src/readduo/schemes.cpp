#include "readduo/schemes.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "common/check.h"
#include "common/thread_annotations.h"
#include "faults/injector.h"

namespace rd::readduo {

namespace {

/// Shared steady-state samplers: pure functions of (metric, interval, nu),
/// so scheme instances share them per process. The Scrubbing key (R-metric,
/// S = 8 s, W = 1) costs ~0.25 s to build; the M-metric keys cost tens of
/// milliseconds.
///
/// g_sampler_mu guards only the map: it is held to find or insert a key's
/// entry, never across a build. Each entry is built once, inside its own
/// call_once, so concurrent callers of one key wait for a single build
/// while callers of other keys never wait. A build that throws leaves the
/// entry unbuilt for the next caller to retry. Entries are never erased
/// and the map keeps node addresses stable, so the returned reference
/// outlives the lock.
struct SamplerEntry {
  std::once_flag built;
  std::optional<ScrubAgeSampler> sampler;
};
Mutex g_sampler_mu;
std::map<std::tuple<bool, double, unsigned>, SamplerEntry>
    g_sampler_cache RD_GUARDED_BY(g_sampler_mu);

const ScrubAgeSampler& shared_sampler(const SchemePolicy& p) {
  const bool m_metric = p.scrub_sense == ScrubSense::kM;
  SamplerEntry* entry;
  {
    MutexLock lock(g_sampler_mu);
    entry = &g_sampler_cache[std::make_tuple(m_metric, p.scrub_interval_s,
                                             p.nu)];
  }
  std::call_once(entry->built, [&] {
    entry->sampler.emplace(
        m_metric ? SchemeBase::m_model() : SchemeBase::r_model(),
        drift::kLineCells, p.scrub_interval_s, p.nu);
  });
  return *entry->sampler;
}

/// Family names, in SchemeKind order: what scheme_kind_by_name parses and
/// scheme_name prints (LWT and Select append their k and s).
constexpr const char* kFamilyNames[] = {
    "Ideal",    "TLC",    "Scrubbing", "Scrubbing-W0", "Scrubbing-BCH10",
    "M-metric", "Hybrid", "LWT",       "Select",
};
static_assert(std::size(kFamilyNames) ==
              static_cast<std::size_t>(SchemeKind::kSelect) + 1);

/// MLC cells per 64 B line with BCH-8 (512 data + 80 parity bits).
constexpr double kMlcCells = drift::kLineCells;
/// MLC cells per 64 B line with BCH-10 (512 data + 100 parity bits: BCH
/// parity grows linearly in t).
constexpr double kBch10Cells =
    drift::kLineDataCells +
    drift::kLineParityCells * 10 / drift::kLineCorrectable;
/// Tri-level cells per 64 B line with (72,64) SECDED: 512 data + 64
/// check bits, 3 bits per 2 cells (9 >= 8 level pairs) [26].
constexpr double kTlcCells = 384.0;

/// R(BCH8, S=8) of Table V: the R-scrubbing kinds' own S, not a device's.
constexpr double kRScrubIntervalS = 8.0;

// ------------------------------------------------------------------ TLC --

class TlcScheme : public SchemeBase {
 public:
  explicit TlcScheme(const SchemeEnv& env)
      : SchemeBase("TLC", env, SchemePolicy{}) {}

  WriteOutcome on_write(std::uint64_t line, Ns now) override {
    // A TLC line programs 384 tri-level cells; each costs tlc_write_scale
    // of an MLC cell write (coarser P&V against decade-wide targets).
    WriteOutcome w = SchemeBase::on_write(line, now);
    // Rebase the energy SchemeBase charged for the full-rate MLC cells.
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
};

// -------------------------------------------------------------- LWT ------

class LwtScheme : public SchemeBase {
 public:
  LwtScheme(std::string name, const SchemeEnv& env,
            const ReadDuoOptions& opts, const SchemePolicy& policy)
      : SchemeBase(std::move(name), env, policy, &shared_sampler(policy)),
        opts_(opts),
        sub_interval_s_(policy.scrub_interval_s / opts.k),
        controller_(opts.controller) {}

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
    if (tracked) return r_then_m_read(line, st, now);

    // Un-tracked: R-sensing unsafe; flag check aborts it and the M retry
    // services the read (R-M-read, 600 ns).
    ++counters_.untracked_reads;
    ReadOutcome out = serve(ReadMode::kRMRead);
    if (controller_.should_convert()) {
      ++counters_.converted_reads;
      controller_.record_conversion();
      out.convert_to_write = true;
    }
    return out;
  }

  WriteOutcome on_write(std::uint64_t line, Ns now) override {
    return demand_full_write(state_of(line, now, false, FirstTouch::kWrite),
                             line, now);
  }

  WriteOutcome on_converted_write(std::uint64_t line, Ns now) override {
    LineState& st = state_of(line, now, false);
    ++counters_.conversion_writes;
    WriteOutcome w = tracked_full_write(st, line, now);
    st.converted = true;
    return w;
  }

 protected:
  void init_line(LineState& st, std::uint64_t line, Ns now, bool) override {
    st.flags = LwtFlags(opts_.k);
    replay_flags(st, line, now.seconds());
  }

  /// The line's scrub phase in [0, S): scrubs fire when
  /// (t - phase) mod S == 0, and label 0 starts at each scrub.
  double phase_of(std::uint64_t line) const {
    return static_cast<double>(line_hash(line) % 1000000ull) * 1e-6 *
           scrub_interval_seconds();
  }

  /// Sub-interval label of time t for this line (relative to its cycle).
  unsigned label_of(std::uint64_t line, double t_s) const {
    const double interval_s = scrub_interval_seconds();
    double rel = std::fmod(t_s - phase_of(line), interval_s);
    if (rel < 0) rel += interval_s;
    unsigned label = static_cast<unsigned>(rel / sub_interval_s_);
    return std::min(label, opts_.k - 1);
  }

  /// Reconstruct the flag state by replaying the protocol: the last full
  /// write at st.last_full_write_s, then every scrub between it and now.
  void replay_flags(LineState& st, std::uint64_t line, double now_s) {
    const double tw = st.last_full_write_s;
    const double phase = phase_of(line);
    const auto cycles_before = [&](double t) {
      return static_cast<long long>(
          std::floor((t - phase) / scrub_interval_seconds()));
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

  /// A full-line write of `line` (state `st`), recorded in its flags.
  WriteOutcome tracked_full_write(LineState& st, std::uint64_t line, Ns now) {
    WriteOutcome w = full_write(st, now);
    st.flags.on_write(label_of(line, now.seconds()));
    return w;
  }

  WriteOutcome demand_full_write(LineState& st, std::uint64_t line, Ns now) {
    ++counters_.demand_full_writes;
    return tracked_full_write(st, line, now);
  }

  const ReadDuoOptions opts_;
  const double sub_interval_s_;
  ConversionController controller_;
};

// ------------------------------------------------------------ Select -----

class SelectScheme : public LwtScheme {
 public:
  using LwtScheme::LwtScheme;

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
      unsigned cells =
          rng().binomial(drift::kLineCells, opts_.changed_cell_fraction) +
          sample_r_errors(line, st, now);
      cells = std::min(cells, drift::kLineCells);
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
    return demand_full_write(st, line, now);
  }
};

}  // namespace

std::string scheme_name(SchemeKind kind, const ReadDuoOptions& opts) {
  const auto i = static_cast<std::size_t>(kind);
  RD_CHECK_MSG(i < std::size(kFamilyNames), "unknown scheme kind");
  const std::string family = kFamilyNames[i];
  switch (kind) {
    case SchemeKind::kLwt:
      return family + "-" + std::to_string(opts.k);
    case SchemeKind::kSelect:
      return family + "-" + std::to_string(opts.k) + ":" +
             std::to_string(opts.select_s);
    default:
      return family;
  }
}

std::optional<SchemeKind> scheme_kind_by_name(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kFamilyNames); ++i) {
    if (name == kFamilyNames[i]) return static_cast<SchemeKind>(i);
  }
  return std::nullopt;
}

double cells_per_line(SchemeKind kind, const ReadDuoOptions& opts) {
  switch (kind) {
    case SchemeKind::kIdeal:
    case SchemeKind::kScrubbing:
    case SchemeKind::kScrubbingW0:
    case SchemeKind::kMMetric:
    case SchemeKind::kHybrid:
      return kMlcCells;
    case SchemeKind::kTlc:
      return kTlcCells;
    case SchemeKind::kScrubbingBch10:
      return kBch10Cells;
    case SchemeKind::kLwt:
    case SchemeKind::kSelect:
      // The MLC line + (k + log2 k) SLC flag bits, one SLC cell each.
      return kMlcCells + static_cast<double>(LwtFlags(opts.k).flag_bits());
  }
  RD_CHECK_MSG(false, "unknown scheme kind");
  return 0.0;
}

std::unique_ptr<Scheme> make_scheme(SchemeKind kind, const SchemeEnv& env,
                                    const ReadDuoOptions& opts) {
  const std::string name = scheme_name(kind, opts);
  const auto core = [&](const SchemePolicy& p, bool sampled) {
    return std::make_unique<SchemeBase>(
        name, env, p,
        sampled ? &shared_sampler(p) : nullptr);
  };
  const auto m_scrub = [&](ReadPolicy read, unsigned w) {
    RD_CHECK_MSG(env.scrub.interval_s > 0.0,
                 name << " scrubs with the M-metric, but scrub.interval = "
                      << env.scrub.interval_s << " s disables scrubbing");
    return SchemePolicy{read, env.scrub.interval_s, ScrubSense::kM, w,
                        "scrub.interval"};
  };
  switch (kind) {
    case SchemeKind::kIdeal:
      return core(SchemePolicy{}, false);
    case SchemeKind::kTlc:
      return std::make_unique<TlcScheme>(env);
    case SchemeKind::kScrubbing:
    case SchemeKind::kScrubbingBch10:
      // BCH-10 makes W=1 reliable (Table V); its reads keep the BCH-8
      // thresholds.
      return core({ReadPolicy::kROnly, kRScrubIntervalS, ScrubSense::kR, 1},
                  true);
    case SchemeKind::kScrubbingW0:
      return core({ReadPolicy::kROnly, kRScrubIntervalS, ScrubSense::kR, 0},
                  true);
    case SchemeKind::kMMetric:
      return core(m_scrub(ReadPolicy::kMOnly, env.scrub.w), true);
    case SchemeKind::kHybrid:
      // W=0 defines Hybrid: it rewrites every line of the row, so no
      // sampler; ages are uniform in [0, S).
      return core(m_scrub(ReadPolicy::kRThenM, 0), false);
    case SchemeKind::kLwt:
      return std::make_unique<LwtScheme>(
          name, env, opts, m_scrub(ReadPolicy::kRThenM, env.scrub.w));
    case SchemeKind::kSelect:
      return std::make_unique<SelectScheme>(
          name, env, opts, m_scrub(ReadPolicy::kRThenM, env.scrub.w));
  }
  RD_CHECK_MSG(false, "unknown scheme kind");
  return nullptr;
}

}  // namespace rd::readduo
