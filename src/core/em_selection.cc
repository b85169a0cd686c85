#include "core/em_selection.h"

#include <limits>

namespace privshape::core {

std::vector<double> MatchDistances(const Sequence& seq,
                                   const std::vector<Sequence>& candidates,
                                   bool prefix_compare,
                                   const dist::SequenceDistance& distance) {
  std::vector<double> distances;
  MatchDistancesInto(seq, candidates, prefix_compare, distance,
                     /*scratch=*/nullptr, &distances);
  return distances;
}

void MatchDistancesInto(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        bool prefix_compare,
                        const dist::SequenceDistance& distance,
                        dist::DtwScratch* scratch,
                        std::vector<double>* out) {
  out->resize(candidates.size());
  dist::SymbolView word(seq);
  for (size_t cand = 0; cand < candidates.size(); ++cand) {
    const Sequence& shape = candidates[cand];
    // Lemma 1's prefix reading: view the word's |shape|-prefix, no copy.
    dist::SymbolView lhs = prefix_compare && seq.size() > shape.size()
                               ? word.Sub(0, shape.size())
                               : word;
    (*out)[cand] = distance.Distance(lhs, dist::SymbolView(shape), scratch);
  }
}

size_t ClosestCandidate(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        const dist::SequenceDistance& distance) {
  return ClosestCandidate(seq, candidates, distance, /*scratch=*/nullptr);
}

size_t ClosestCandidate(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        const dist::SequenceDistance& distance,
                        dist::DtwScratch* scratch) {
  double best = std::numeric_limits<double>::infinity();
  size_t best_idx = 0;
  dist::SymbolView word(seq);
  for (size_t i = 0; i < candidates.size(); ++i) {
    // DistanceBounded is exact whenever the result is < best, so the
    // strict `d < best` update (ties to the first index) is unchanged.
    double d = distance.DistanceBounded(word, dist::SymbolView(candidates[i]),
                                        best, scratch);
    if (d < best) {
      best = d;
      best_idx = i;
    }
  }
  return best_idx;
}

}  // namespace privshape::core
