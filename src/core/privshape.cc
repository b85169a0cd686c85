#include "core/privshape.h"

#include <vector>

#include "core/rounds.h"

namespace privshape::core {

// Run() validates the labels, then runs the one round sequence
// (RunRounds) with every round answered in process: each user answers
// through its own proto::ClientSession, seeded DeriveSeed(config.seed,
// user), exactly as the collector's clients do over their transports, so
// for a fixed seed every driver produces byte-identical shapes.
Result<MechanismResult> PrivShape::Run(const std::vector<Sequence>& sequences,
                                       const std::vector<int>* labels) const {
  PRIVSHAPE_RETURN_IF_ERROR(config_.Validate());
  if (sequences.empty()) {
    return Status::InvalidArgument("empty dataset");
  }
  if (config_.num_classes > 0) {
    if (labels == nullptr || labels->size() != sequences.size()) {
      return Status::InvalidArgument(
          "classification refinement requires one label per sequence");
    }
    for (int label : *labels) {
      if (label < 0 || label >= config_.num_classes) {
        return Status::OutOfRange("label outside [0, num_classes)");
      }
    }
  } else {
    labels = nullptr;  // a clustering run never reads a label
  }
  return RunRounds(config_, sequences.size(),
                   [&](const RoundRequest& round) {
                     return AnswerRoundInProcess(round.context,
                                                 round.population, sequences,
                                                 labels, config_.seed);
                   });
}

}  // namespace privshape::core
