#include "core/subshape.h"

#include <algorithm>
#include <numeric>

#include "protocol/messages.h"

namespace privshape::core {

SubShapeEstimates RankSubShapes(
    const std::vector<std::vector<double>>& level_counts, int t, size_t top_m,
    bool allow_repeats) {
  SubShapeEstimates estimates;
  estimates.counts = level_counts;
  estimates.top_transitions.resize(level_counts.size());
  for (size_t lvl = 0; lvl < level_counts.size(); ++lvl) {
    const std::vector<double>& counts = level_counts[lvl];
    if (counts.empty()) continue;
    // Rank real pairs only (drop the sentinel bucket).
    size_t sentinel = counts.size() - 1;
    std::vector<size_t> order(sentinel);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return counts[a] > counts[b];
    });
    size_t keep = std::min(top_m, order.size());
    for (size_t i = 0; i < keep; ++i) {
      estimates.top_transitions[lvl].push_back(
          proto::IndexToPair(order[i], t, allow_repeats));
    }
  }
  return estimates;
}

}  // namespace privshape::core
