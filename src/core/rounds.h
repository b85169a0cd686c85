/// \file
/// Algorithm 2 as explicit rounds: the one round sequence, the server
/// that decides between rounds, and the in-process way to answer a round.
///
/// `RunRounds` is the single implementation of the sequence (split, P_a,
/// P_b, ell_S x P_c, then P_d or P_e). It builds each round's request and
/// shared proto::RoundContext and hands the round to an executor, which
/// answers it however the caller serves its users: `core::PrivShape`
/// answers in process (`AnswerRoundInProcess`), `collector::DriveProtocol`
/// over its sharded coordinator or its socket daemon. `PrivShapeServer`
/// makes every server-side decision from the counts the executor returns.
/// Every client answers through proto::ClientSession with randomness from
/// DeriveSeed(seed, user), so all drivers produce byte-identical shapes.

#ifndef PRIVSHAPE_CORE_ROUNDS_H_
#define PRIVSHAPE_CORE_ROUNDS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "core/config.h"
#include "core/subshape.h"
#include "protocol/round_context.h"
#include "trie/trie.h"

namespace privshape::core {

/// Server-side state machine of PrivShape (Algorithm 2). RunRounds runs
/// the collection rounds and feeds back the aggregated counts; the server
/// makes every decision that follows from them. Methods must be called in
/// protocol order:
///
///   FinishLength -> FinishSubShapes -> (BeginTrieLevel, FinishTrieLevel)
///   x ell_S -> BeginRefinement -> one of FinishRefinement /
///   FinishClassRefinement / FinishWithoutRefinement.
///
/// The final Finish* call consumes the server and returns the
/// MechanismResult (including the privacy-accountant audit trail).
class PrivShapeServer {
 public:
  static Result<PrivShapeServer> Create(MechanismConfig config);

  const MechanismConfig& config() const { return config_; }

  /// Top c*k candidates survive pruning at every level.
  size_t ck() const;

  /// P_a: fixes the trie height ell_S from debiased length counts
  /// (argmax; first maximum wins) and charges the accountant.
  Status FinishLength(const std::vector<double>& debiased_counts);

  int frequent_length() const { return ell_s_; }

  /// Number of sub-shape levels (ell_S - 1; 0 means skip the P_b round).
  size_t NumSubShapeLevels() const;

  /// P_b: ranks the per-level debiased pair counts into the transition
  /// gates used by the trie expansion. Pass {} when ell_S == 1.
  Status FinishSubShapes(const std::vector<std::vector<double>>& level_counts);

  /// P_c, one call per level in [0, ell_S): prunes the frontier, expands
  /// it (gated by the frequent transitions, falling back to the full
  /// fan-out when the gate would dead-end), and returns the candidate
  /// shapes to broadcast for EM selection.
  Result<std::vector<Sequence>> BeginTrieLevel(int level);

  /// Feeds back one selection count per candidate returned by the matching
  /// BeginTrieLevel call.
  Status FinishTrieLevel(const std::vector<double>& selection_counts);

  /// P_d: prunes the leaves to the top c*k and returns the refinement
  /// candidate list (errors if the trie dead-ended).
  Result<std::vector<Sequence>> BeginRefinement();

  /// Clustering refinement: debiased GRR counts over candidate indices
  /// (domain max(|candidates|, 2)). Runs post-processing and returns the
  /// final result.
  Result<MechanismResult> FinishRefinement(
      const std::vector<double>& debiased_counts);

  /// Classification refinement (§V-E): debiased OUE counts over
  /// candidate x class cells, row-major.
  Result<MechanismResult> FinishClassRefinement(
      const std::vector<double>& cell_counts);

  /// Ablation (`disable_refinement`): ranks leaves by their last
  /// trie-level EM counts; P_d stays unused.
  Result<MechanismResult> FinishWithoutRefinement();

 private:
  explicit PrivShapeServer(MechanismConfig config,
                           trie::CandidateTrie trie)
      : config_(config), trie_(std::move(trie)) {}

  /// Stage 5 (post-processing) for the clustering task, shared by
  /// FinishRefinement and FinishWithoutRefinement.
  Result<MechanismResult> Finalize(const std::vector<double>& refined,
                                   const std::vector<int>& refined_labels);

  /// Fills result_.refined_pool from the refinement candidates.
  void BuildRefinedPool(const std::vector<double>& refined,
                        const std::vector<int>& refined_labels);

  /// Shared epilogue: frequency-sorts result_.shapes (stable, so
  /// already-ordered pushes keep their order), audits the budget, and
  /// consumes the server.
  Result<MechanismResult> EmitSorted();

  MechanismConfig config_;
  trie::CandidateTrie trie_;
  MechanismResult result_;
  SubShapeEstimates subshapes_;
  int ell_s_ = 0;
  int current_level_ = -1;       ///< level served by the last BeginTrieLevel
  std::vector<Sequence> candidates_;  ///< refinement candidates
};

/// One collection round as the sequence hands it to an executor.
struct RoundRequest {
  /// "Pa", "Pb", "Pc.level<i>", "Pd" or "Pe".
  const std::string& stage;
  /// The users who answer this round (indices into the whole population).
  const std::vector<size_t>& population;
  /// The round's shared client state; its report window (kind, domain,
  /// levels) is what the executor aggregates against.
  const proto::RoundContext& context;
  /// The round's broadcast message, encoded once: the bytes a wire
  /// deployment ships to every user of the round.
  const std::string& encoded_request;
};

/// Answers one round and returns its debiased counts, one vector of
/// context.domain() values per level of the report window
/// (context.num_levels() of them): GRR-debiased for P_a, P_b and P_d, raw
/// EM selection counts for P_c, OUE-debiased cells for P_e — exactly
/// proto::ReportAggregator::EstimatedCounts. An error stops the sequence
/// before any server-side decision.
using RoundExecutor = std::function<Result<std::vector<std::vector<double>>>(
    const RoundRequest& round)>;

/// The Algorithm 2 round sequence over a population of `num_users`: the
/// four-way split (the server's only draw from config.seed), P_a, P_b
/// (skipped when ell_S == 1), one P_c round per trie level, then the P_d
/// refinement, the P_e classification round (config.num_classes > 0) or
/// neither (config.disable_refinement), and post-processing.
Result<MechanismResult> RunRounds(const MechanismConfig& config,
                                  size_t num_users,
                                  const RoundExecutor& execute);

/// The in-process executor: user u of `population` answers `context`
/// through its own proto::ClientSession over words[u], seeded
/// DeriveSeed(seed, u) and labeled (*labels)[u] (-1 when `labels` is
/// null), and the reports feed one proto::ReportAggregator per level.
/// Sessions are seeded in lockstep blocks and share one AnswerScratch, so
/// the per-word memo serves repeated words. A failed answer fails the
/// round. Returns the per-level estimated counts.
PS_REPORT_PATH
Result<std::vector<std::vector<double>>> AnswerRoundInProcess(
    const proto::RoundContext& context, const std::vector<size_t>& population,
    const std::vector<Sequence>& words, const std::vector<int>* labels,
    uint64_t seed);

}  // namespace privshape::core

#endif  // PRIVSHAPE_CORE_ROUNDS_H_
