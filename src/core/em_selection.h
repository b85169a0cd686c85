#ifndef PRIVSHAPE_CORE_EM_SELECTION_H_
#define PRIVSHAPE_CORE_EM_SELECTION_H_

#include <vector>

#include "distance/distance.h"
#include "series/sequence.h"

namespace privshape::core {

/// Distances from one user's word to every candidate. With
/// `prefix_compare` and a word longer than a candidate, the candidate is
/// compared against the equally long prefix of the word (Lemma 1's
/// prefix-frequency reading for intermediate trie levels).
///
/// The scalar reference of candidate matching: the SIMD candidate-table
/// kernels the client answer path runs (dist::CandidateTable) must
/// produce bit-identical distances, which the SIMD tests and the fuzzer
/// check against this.
std::vector<double> MatchDistances(const Sequence& seq,
                                   const std::vector<Sequence>& candidates,
                                   bool prefix_compare,
                                   const dist::SequenceDistance& distance);

/// In-place MatchDistances for the per-report hot path: fills `*out`
/// (resized) and routes every evaluation through the scratch-reusing
/// distance kernel, so a round of N candidate matches allocates nothing.
/// Prefixes are viewed (`SymbolView`), never copied. Bit-identical
/// distance values to MatchDistances. `scratch` may be nullptr.
void MatchDistancesInto(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        bool prefix_compare,
                        const dist::SequenceDistance& distance,
                        dist::DtwScratch* scratch, std::vector<double>* out);

/// Index of the candidate closest to `seq` (exact; ties break to the
/// first index) — the scalar reference of the refinement stage's match.
size_t ClosestCandidate(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        const dist::SequenceDistance& distance);

/// Scratch-reusing ClosestCandidate. Uses the metric's early-abandoning
/// kernel against the best-so-far bound: a candidate is abandoned only
/// once its distance provably cannot be < the current best, so the argmin
/// (including first-index tie-breaking) is exactly the exhaustive one.
/// `scratch` may be nullptr.
size_t ClosestCandidate(const Sequence& seq,
                        const std::vector<Sequence>& candidates,
                        const dist::SequenceDistance& distance,
                        dist::DtwScratch* scratch);

}  // namespace privshape::core

#endif  // PRIVSHAPE_CORE_EM_SELECTION_H_
