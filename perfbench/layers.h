// The benchmark's own single-threaded inline round runner and the
// PrivShapeServer replay. Both call only public functions of the
// protocol, distance, net, collector and core modules, so every layer is
// timed from outside the program.

#ifndef PRIVSHAPE_PERFBENCH_LAYERS_H_
#define PRIVSHAPE_PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/status.h"
#include "core/config.h"
#include "series/sequence.h"

namespace perfbench {

using privshape::Sequence;

/// Stage slots of one protocol run. kPd is the refinement round: P_d GRR
/// for clustering, the OUE classification variant (stage "Pe") otherwise.
enum Stage : size_t { kPa = 0, kPb = 1, kPc = 2, kPd = 3, kNumStages = 4 };
inline constexpr const char* kStageNames[kNumStages] = {"Pa", "Pb", "Pc",
                                                        "Pd"};

/// Slot of a CollectorMetrics / LoadgenOutcome stage name ("Pa", "Pb",
/// "Pc.level3", "Pd", "Pe").
Stage StageOf(const std::string& stage);

/// Per-stage layer totals of one traced protocol run, summed over every
/// report (and, for P_c, over every trie level). Times in nanoseconds.
struct StageTotals {
  uint64_t rounds = 0;
  uint64_t users = 0;
  uint64_t reports = 0;
  uint64_t encoded_bytes = 0;
  uint64_t candidates = 0;  ///< broadcast candidates, summed over rounds
  double context_build_ns = 0;
  double answer_ns = 0;
  double match_ns = 0;
  double encode_ns = 0;
  double frame_encode_ns = 0;
  double frame_decode_ns = 0;
  double ingest_ns = 0;
  double debias_ns = 0;
};

/// Everything a traced run records: the layer totals, the time spent
/// inside the runner, and the debiased counts and broadcast candidates
/// the server replay needs.
struct LayerTrace {
  std::array<StageTotals, kNumStages> stages;
  double runner_ns = 0;
  std::vector<double> length_counts;
  std::vector<std::vector<double>> subshape_counts;
  std::vector<std::vector<Sequence>> level_candidates;
  std::vector<std::vector<double>> level_counts;
  std::vector<Sequence> refine_candidates;
  std::vector<double> refine_counts;
  /// chrome://tracing events, one per round and per per-round call.
  std::string spans;
};

/// Accepted and asked users of one protocol run, from the runner's own
/// aggregators.
struct InlineTally {
  uint64_t asked = 0;
  uint64_t accepted = 0;
};

/// A RoundRunner that answers every user of a round on the calling
/// thread: it builds the round's RoundContext from the encoded request,
/// answers through ClientSession and aggregates through one
/// ShardedAggregator lane. With `trace` set it times each public call
/// separately and captures the debiased counts; with nullptr it runs the
/// same calls untimed. `pool` is the word list the fleet tiles; the
/// traced run matches the same word a second time to split match from
/// perturbation. `fleet`, `pool`, `tally` and `trace` must outlive the
/// runner.
privshape::collector::RoundRunner InlineRunner(
    const privshape::collector::ClientFleet& fleet,
    const std::vector<Sequence>& pool, InlineTally* tally,
    LayerTrace* trace);

/// Wall time of each PrivShapeServer call in a replay, in nanoseconds
/// (per-level calls summed).
struct ServerTimes {
  double finish_length = 0;
  double finish_subshapes = 0;
  double begin_trie_level = 0;
  double finish_trie_level = 0;
  double begin_refinement = 0;
  double finish = 0;
};

/// Replays the server decisions on the counts a traced run captured and
/// returns the shapes. Fails if a broadcast candidate list differs from
/// the one the run saw.
privshape::Result<privshape::core::MechanismResult> ReplayServer(
    const privshape::core::MechanismConfig& config, const LayerTrace& trace,
    ServerTimes* times);

}  // namespace perfbench

#endif  // PRIVSHAPE_PERFBENCH_LAYERS_H_
