#include "readduo/conversion.h"

#include <algorithm>

namespace rd::readduo {

namespace {

/// P above this decreases T (the paper's 85 % rule).
constexpr double kHighWatermark = 0.85;
/// benefit/conversion ratio above which T increases ...
constexpr double kBenefitHigh = 0.5;
/// ... and below which T decreases (when conversions happened).
constexpr double kBenefitLow = 0.05;

}  // namespace

ConversionController::ConversionController(Config cfg)
    : cfg_(cfg), t_(cfg.enabled ? cfg.initial_t : 0) {}

void ConversionController::record_read(bool untracked, bool hit_converted) {
  if (!cfg_.enabled) return;
  ++epoch_total_;
  if (untracked) ++epoch_untracked_;
  if (hit_converted) ++epoch_benefit_;
  if (epoch_total_ < cfg_.epoch_reads) return;

  const double p = static_cast<double>(epoch_untracked_) /
                   static_cast<double>(epoch_total_);
  const unsigned floor = std::min(cfg_.floor_t, 100u);
  if (p > kHighWatermark) {
    // Converted data is not becoming tracked-and-read: back off.
    t_ = t_ >= floor + 10 ? t_ - 10 : floor;
  } else if (epoch_conversions_ > 0) {
    const double benefit = static_cast<double>(epoch_benefit_) /
                           static_cast<double>(epoch_conversions_);
    if (benefit >= kBenefitHigh) {
      t_ = std::min(t_ + 10, 100u);
    } else if (benefit < kBenefitLow) {
      t_ = t_ >= floor + 10 ? t_ - 10 : floor;
    }
  }
  epoch_total_ = 0;
  epoch_untracked_ = 0;
  epoch_benefit_ = 0;
  epoch_conversions_ = 0;
}

bool ConversionController::should_convert() {
  if (!cfg_.enabled || t_ == 0) return false;
  // Rotating decile counter: of every 10 candidates, the first T/10
  // convert. Deterministic and exact at the step-10 granularity.
  const std::uint64_t slot = convert_counter_++ % 10;
  return slot < t_ / 10;
}

}  // namespace rd::readduo
