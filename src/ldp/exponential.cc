#include "ldp/exponential.h"

#include <algorithm>
#include <cmath>

namespace privshape::ldp {

Result<ExponentialMechanism> ExponentialMechanism::Create(double epsilon,
                                                          double sensitivity) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (sensitivity <= 0.0) {
    return Status::InvalidArgument("sensitivity must be positive");
  }
  return ExponentialMechanism(epsilon, sensitivity);
}

Status ExponentialMechanism::SelectionProbabilitiesInto(
    const std::vector<double>& scores, std::vector<double>* probs) const {
  if (scores.empty()) {
    return Status::InvalidArgument("empty candidate set");
  }
  // Stabilize by subtracting the max exponent before exponentiating.
  double coeff = epsilon_ / (2.0 * sensitivity_);
  double mx = *std::max_element(scores.begin(), scores.end());
  probs->resize(scores.size());
  double total = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    (*probs)[i] = std::exp(coeff * (scores[i] - mx));
    total += (*probs)[i];
  }
  for (double& p : *probs) p /= total;
  return Status::Ok();
}

Result<std::vector<double>> ExponentialMechanism::SelectionProbabilities(
    const std::vector<double>& scores) const {
  std::vector<double> probs;
  PRIVSHAPE_RETURN_IF_ERROR(SelectionProbabilitiesInto(scores, &probs));
  return probs;
}

PS_RNG_CANONICAL
Result<size_t> ExponentialMechanism::Select(const std::vector<double>& scores,
                                            Rng* rng) const {
  std::vector<double> probs;
  return Select(scores, rng, &probs);
}

PS_RNG_CANONICAL
Result<size_t> ExponentialMechanism::Select(
    const std::vector<double>& scores, Rng* rng,
    std::vector<double>* probs_scratch) const {
  PRIVSHAPE_RETURN_IF_ERROR(SelectionProbabilitiesInto(scores, probs_scratch));
  return SelectFromProbabilities(*probs_scratch, rng);
}

PS_RNG_CANONICAL
Result<size_t> ExponentialMechanism::SelectFromProbabilities(
    Span<const double> probs, Rng* rng) const {
  if (probs.empty()) {
    return Status::InvalidArgument("empty candidate set");
  }
  return rng->Discrete(probs);
}

std::vector<double> ScoresFromDistances(const std::vector<double>& distances) {
  std::vector<double> scores;
  ScoresFromDistancesInto(distances, &scores);
  return scores;
}

void ScoresFromDistancesInto(const std::vector<double>& distances,
                             std::vector<double>* scores) {
  scores->assign(distances.size(), 1.0);
  if (distances.empty()) return;
  double mn = *std::min_element(distances.begin(), distances.end());
  double mx = *std::max_element(distances.begin(), distances.end());
  if (mx - mn < 1e-12) return;  // all equally good
  for (size_t i = 0; i < distances.size(); ++i) {
    (*scores)[i] = (mx - distances[i]) / (mx - mn);
  }
}

}  // namespace privshape::ldp
