// Device demo: the Figure 7 architecture working on real bytes.
//
// Writes a page of text into a functional MLC PCM chip, wears out a few
// cells, lets a day of resistance drift pass under ReadDuo's 640 s W=1
// M-metric scrubbing, and reads everything back — watching which reads
// used the fast R path, which fell back to M-sensing, and what ECP and
// BCH quietly repaired along the way.
//
//   $ ./device_demo [hours]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "pcm/chip.h"

using namespace rd;

namespace {

std::vector<std::uint8_t> to_line(const std::string& text) {
  std::vector<std::uint8_t> data(64, ' ');
  std::memcpy(data.data(), text.data(), std::min<std::size_t>(64, text.size()));
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  const double hours = argc > 1 ? std::strtod(argv[1], nullptr) : 24.0;

  const char* lines[] = {
      "Phase change memory stores bits as resistance states.",
      "Middle states drift upward over time: soft errors.",
      "ReadDuo senses fast (R) and falls back to robust (M).",
      "BCH-8 corrects 8 errors and detects up to 17.",
      "ECP pointers patch worn-out stuck cells for good.",
      "Scrubbing every 640 s keeps R-sensing trustworthy.",
  };
  const std::size_t n = std::size(lines);

  pcm::ChipConfig cfg;
  cfg.num_lines = n;
  cfg.readout = pcm::ReadoutPolicy::kHybrid;
  cfg.scrub.interval_s = 640.0;
  cfg.scrub.w = 1;
  pcm::MlcChip chip(cfg);

  // A couple of cells have worn out before we ever use the chip.
  chip.inject_stuck_cell(0, 17, 0);
  chip.inject_stuck_cell(3, 200, 3);

  std::printf("writing %zu lines at t = 0...\n", n);
  for (std::size_t l = 0; l < n; ++l) chip.write(l, to_line(lines[l]));

  std::printf("advancing %.1f hours under (BCH-8, S=640 s, W=1) M-metric "
              "scrubbing...\n\n",
              hours);
  chip.advance_time(hours * 3600.0);

  bool all_ok = true;
  for (std::size_t l = 0; l < n; ++l) {
    const pcm::ChipReadResult r = chip.read(l);
    const std::string text(reinterpret_cast<const char*>(r.data.data()), 54);
    const bool ok =
        r.corrected &&
        std::memcmp(r.data.data(), lines[l], std::strlen(lines[l])) == 0;
    all_ok = all_ok && ok;
    std::printf("line %zu [%s, %u bit(s) corrected, age %5.0f s]: %s\n", l,
                r.used_m_sense ? "R->M" : "R   ", r.errors_corrected,
                chip.line_age(l), text.c_str());
  }

  const pcm::ChipStats& st = chip.stats();
  std::printf("\nchip stats: %llu reads (%llu M-fallbacks), %llu writes, "
              "%llu scrub passes, %llu scrub rewrites, %llu cells retired "
              "by ECP, %llu uncorrectable\n",
              static_cast<unsigned long long>(st.reads),
              static_cast<unsigned long long>(st.m_fallbacks),
              static_cast<unsigned long long>(st.writes),
              static_cast<unsigned long long>(st.scrub_passes),
              static_cast<unsigned long long>(st.scrub_rewrites),
              static_cast<unsigned long long>(st.cells_retired),
              static_cast<unsigned long long>(st.uncorrectable));
  std::printf("%s\n", all_ok ? "all data intact." : "DATA LOSS!");
  return all_ok ? 0 : 1;
}
