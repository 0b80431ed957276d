#include "pcm/write.h"

namespace rd::pcm {

double mean_pulses_per_write(const PnvParams& p) {
  double sum = 0.0;
  for (double m : p.mean_iterations) sum += 1.0 + m;  // RESET + mean SETs
  return sum / 4.0;
}

}  // namespace rd::pcm
