#ifndef PRIVSHAPE_CORE_SUBSHAPE_H_
#define PRIVSHAPE_CORE_SUBSHAPE_H_

#include <vector>

#include "trie/trie.h"

namespace privshape::core {

/// Per-level frequent sub-shape estimates (§IV-B).
struct SubShapeEstimates {
  /// top_transitions[j-1] = the top-m transitions at level j (the pairs
  /// (s_j, s_{j+1}) of 1-indexed positions), ordered by estimated count.
  std::vector<std::vector<trie::Transition>> top_transitions;
  /// Raw debiased counts per level and pair index (diagnostics/tests).
  std::vector<std::vector<double>> counts;
};

/// Server-side ranking of the P_b round: given per-level debiased pair
/// counts (each vector sized proto::SubShapeDomainSize, sentinel last),
/// keeps the top-m real pairs per level by estimated count (stable order;
/// sentinel dropped). The sentinel absorbs the padded positions of
/// padding-and-sampling, which keeps the estimator unbiased on real pairs
/// while every report stays eps-LDP.
SubShapeEstimates RankSubShapes(
    const std::vector<std::vector<double>>& level_counts, int t, size_t top_m,
    bool allow_repeats);

}  // namespace privshape::core

#endif  // PRIVSHAPE_CORE_SUBSHAPE_H_
