#include "common/rng.h"

#include <numeric>

namespace privshape {

size_t Rng::Discrete(Span<const double> weights) {
  if (weights.empty()) return 0;
  double total = 0.0;
  for (double w : weights) total += (w > 0 ? w : 0.0);
  if (total <= 0.0) return Index(weights.size());
  double r = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0 ? weights[i] : 0.0);
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace privshape
