#ifndef PRIVSHAPE_LDP_EXPONENTIAL_H_
#define PRIVSHAPE_LDP_EXPONENTIAL_H_

#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/span.h"
#include "common/status.h"

namespace privshape::ldp {

/// Exponential Mechanism (McSherry & Talwar, FOCS'07) specialized for
/// user-side candidate selection (the paper's Eq. (2)):
///
///   Pr[output = j] = exp(eps * S_j / (2 * delta)) / sum_z exp(...)
///
/// Scores are expected to lie in [0, 1] (delta = 1); selecting over the
/// local user's own data makes the selection eps-LDP because any two users'
/// score vectors shift each candidate's utility by at most delta.
class ExponentialMechanism {
 public:
  static Result<ExponentialMechanism> Create(double epsilon,
                                             double sensitivity = 1.0);

  /// Samples a candidate index under the EM distribution.
  PS_RNG_CANONICAL
  Result<size_t> Select(const std::vector<double>& scores, Rng* rng) const;

  /// Allocation-free variant for hot loops: the probability vector is
  /// built in `*probs_scratch` (resized, contents overwritten). Consumes
  /// the same Rng draws as Select(), so both paths pick identically.
  PS_RNG_CANONICAL
  Result<size_t> Select(const std::vector<double>& scores, Rng* rng,
                        std::vector<double>* probs_scratch) const;

  /// The one EM draw: samples an index from probabilities already built by
  /// SelectionProbabilitiesInto. Select() is exactly "probabilities, then
  /// this", so a caller that reuses the probabilities of an identical
  /// score vector draws the same index from the same Rng state.
  PS_RNG_CANONICAL
  Result<size_t> SelectFromProbabilities(Span<const double> probs,
                                         Rng* rng) const;

  /// The exact selection distribution; exercised by the privacy tests
  /// (verifying Pr ratios across neighboring score vectors <= e^eps).
  Result<std::vector<double>> SelectionProbabilities(
      const std::vector<double>& scores) const;

  /// In-place SelectionProbabilities: fills `*probs` (resized), reusing
  /// its capacity. Bit-identical values to the allocating overload.
  Status SelectionProbabilitiesInto(const std::vector<double>& scores,
                                    std::vector<double>* probs) const;

  double epsilon() const { return epsilon_; }

 private:
  ExponentialMechanism(double epsilon, double sensitivity)
      : epsilon_(epsilon), sensitivity_(sensitivity) {}

  double epsilon_;
  double sensitivity_;
};

/// Converts candidate distances into EM scores in [0, 1]:
/// S_j = (d_max - d_j) / (d_max - d_min); all-equal distances score 1.
/// This realizes the paper's "S proportional to 1/dist, normalized" intent
/// while staying bounded for zero distances.
std::vector<double> ScoresFromDistances(const std::vector<double>& distances);

/// In-place ScoresFromDistances: fills `*scores` (resized), reusing its
/// capacity — the per-user selection path calls this once per report, so
/// the allocating form would dominate the hot loop. Bit-identical values.
void ScoresFromDistancesInto(const std::vector<double>& distances,
                             std::vector<double>* scores);

}  // namespace privshape::ldp

#endif  // PRIVSHAPE_LDP_EXPONENTIAL_H_
