// The drift-mitigation schemes compared in the paper (Section IV):
//
//   Ideal      — hypothetical drift-free MLC; fast R-reads, no scrubbing.
//   Tlc        — Tri-Level-Cell baseline [26]: drift-free by construction,
//                no scrubbing, but 384 cells per line instead of 296.
//   Scrubbing  — efficient scrubbing [2] with R-sensing, (BCH8, S=8, W=1).
//   MMetric    — M-sensing only, (BCH8, S, W) from the device's [scrub].
//   Hybrid     — ReadDuo-Hybrid: R-read first, M retry on 9..17 errors,
//                (BCH8, S, W=0) M-metric scrubbing at the device's S.
//   Lwt        — ReadDuo-LWT-k: Hybrid + last-writes tracking, the
//                device's (S, W) scrubbing, adaptive R-M-read conversion.
//   Select     — ReadDuo-Select-(k:s): Lwt + selective differential write.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "readduo/conversion.h"
#include "readduo/scheme_base.h"

namespace rd::readduo {

/// Which scheme to instantiate.
enum class SchemeKind {
  kIdeal,
  kTlc,
  kScrubbing,
  /// Scrubbing with W=0 (rewrite every line at every 8 s scrub): the
  /// setting R-sensing actually needs for DRAM reliability. The paper
  /// reports it costs 2-3x execution time (Section V-A).
  kScrubbingW0,
  /// Scrubbing upgraded to BCH-10: per Table V the stronger code makes
  /// W=1 safe, trading 20 extra parity bits (10 cells) per line. The
  /// other reliable R-only alternative the paper names.
  kScrubbingBch10,
  kMMetric,
  kHybrid,
  kLwt,
  kSelect,
};

/// Tunables of the ReadDuo family.
struct ReadDuoOptions {
  unsigned k = 4;        ///< LWT sub-intervals per scrub interval
  unsigned select_s = 2; ///< SDW window: one full write per s sub-intervals
  bool conversion = true;///< enable R-M-read -> write conversion
  ConversionController::Config controller = {};
  /// Fraction of cells a demand write modifies (differential-write cost).
  /// The paper cites ~20% of bits changing per write; with 2 bits/cell and
  /// independent changes that is 1 - 0.8^2 = 36% of cells.
  double changed_cell_fraction = 0.36;
};

/// Instantiate a scheme. `opts` only affects the ReadDuo family. The
/// M-scrubbing kinds take S (> 0) and, except Hybrid (W=0), W from env.scrub.
std::unique_ptr<Scheme> make_scheme(SchemeKind kind, const SchemeEnv& env,
                                    const ReadDuoOptions& opts = {});

/// Human-readable scheme name ("LWT-4", "Select-4:2", ...).
std::string scheme_name(SchemeKind kind, const ReadDuoOptions& opts = {});

/// The kind a family name names ("Ideal", "Scrubbing-W0", "LWT", ...: the
/// printed name without LWT's and Select's k and s); nullopt for any
/// other string.
std::optional<SchemeKind> scheme_kind_by_name(std::string_view name);

/// Cells needed to store one 64 B line, including ECC and (SLC) flag
/// bits: the density input of the EDAP metric (Figure 11). A property of
/// the kind, so no scheme has to be built to know it.
double cells_per_line(SchemeKind kind, const ReadDuoOptions& opts = {});

}  // namespace rd::readduo
