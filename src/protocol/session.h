/// \file
/// Module `protocol` — client/server framing of the collection rounds
/// (stages P_a..P_e of Algorithm 2) as encoded request/report messages.
/// Invariant: the only bytes that leave a ClientSession are the perturbed
/// reports produced by the Answer* methods, and all privacy-relevant
/// randomness is drawn from the client's own Rng.

#ifndef PRIVSHAPE_PROTOCOL_SESSION_H_
#define PRIVSHAPE_PROTOCOL_SESSION_H_

#include <string_view>
#include <utility>
#include <vector>

#include "common/analysis_annotations.h"
#include "common/rng.h"
#include "common/status.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "series/sequence.h"

namespace privshape::proto {

/// The user-side endpoint of the collection protocol, and the one client
/// answer path: the in-process mechanisms, the round coordinator and the
/// socket loadgen all answer through it. Owns the user's private
/// compressed word; every Answer* method performs the stage's local
/// perturbation against the round's shared RoundContext and writes the
/// Report — the only bytes that ever leave the device. All
/// privacy-relevant randomness comes from the client's own Rng.
///
/// With a caller-owned AnswerScratch, the word-dependent part of a P_c,
/// P_d or P_e answer is memoized per distinct word and round (see
/// AnswerMemo); the user's own draws are unchanged.
class ClientSession {
 public:
  /// `label` is the user's private class label, required only for the
  /// classification refinement round (P_e); -1 means unlabeled. Like the
  /// word, it is only ever read inside this session's local perturbation.
  ClientSession(Sequence word, uint64_t seed, int label = -1)
      : word_(std::move(word)), rng_(seed), label_(label) {}

  int label() const { return label_; }

  // All overloads write the answer into *out (bits cleared, every field
  // set) and fail with InvalidArgument if ctx.kind() does not match the
  // method. `scratch` may be nullptr for the stages that need none (P_a,
  // P_b); the selection/refinement stages then allocate locally.

  /// P_a against a shared context.
  PS_REPORT_PATH
  Status AnswerLength(const RoundContext& ctx, AnswerScratch* scratch,
                      Report* out);

  /// P_b against a shared context.
  PS_REPORT_PATH
  Status AnswerSubShape(const RoundContext& ctx, AnswerScratch* scratch,
                        Report* out);

  /// P_c against a shared context: match -> score -> EM select, entirely
  /// in scratch buffers.
  PS_REPORT_PATH
  Status AnswerSelection(const RoundContext& ctx, AnswerScratch* scratch,
                         Report* out);

  /// P_d against a shared context: early-abandoning closest-candidate
  /// argmin, then GRR.
  PS_REPORT_PATH
  Status AnswerRefinement(const RoundContext& ctx, AnswerScratch* scratch,
                          Report* out);

  /// P_e against a shared context: closest-candidate argmin, then the OUE
  /// perturbation of the (candidate, label) cell written straight into
  /// out->bits (whose capacity is reused across reports).
  PS_REPORT_PATH
  Status AnswerClassRefinement(const RoundContext& ctx,
                               AnswerScratch* scratch, Report* out);

  /// Dispatches on ctx.kind() — what the round coordinator drives.
  PS_REPORT_PATH
  Status Answer(const RoundContext& ctx, AnswerScratch* scratch, Report* out);

  /// Answer + encode into the caller's batch buffer (appends only on
  /// success). The full zero-allocation per-report path.
  PS_REPORT_PATH
  Status AnswerTo(const RoundContext& ctx, AnswerScratch* scratch,
                  ReportBatch* out);

  /// Seeds the Rng engines of `n` freshly constructed sessions in
  /// lockstep (Rng::SeedLockstep). Every session keeps exactly the stream
  /// it would draw when seeded lazily; this only overlaps the seeding
  /// work of a block of simulated users. Fails, seeding nothing, if any
  /// session has already drawn.
  static Status SeedEngines(ClientSession* sessions, size_t n);

 private:
  Sequence word_;
  Rng rng_;
  int label_ = -1;
};

/// Server-side aggregation of encoded reports for one stage. Decodes,
/// validates, and debiases; malformed reports are counted and skipped
/// rather than poisoning the aggregate.
///
/// Aggregation state is pure integer counts, so Merge() is exact and
/// associative: any partition of a report stream across aggregators (the
/// collector runs one per shard) merges back to the counts a single
/// aggregator would have produced, in any merge order.
class ReportAggregator {
 public:
  ReportAggregator(ReportKind kind, size_t domain, double epsilon);

  /// Feeds one encoded report (borrowed view — the sharded collector
  /// hands in slices of a flat batch buffer); invalid ones increment
  /// rejected().
  void Consume(std::string_view encoded);

  /// Feeds an already-decoded report (the sharded collector decodes once
  /// to route by level, then hands the report here). Wrong kind or
  /// out-of-domain values increment rejected().
  void ConsumeReport(const Report& report);

  /// Folds another aggregator's counts into this one. Fails unless kind,
  /// domain, and epsilon match exactly.
  Status Merge(const ReportAggregator& other);

  /// GRR-debiased counts over the domain (kLength/kRefinement kinds),
  /// raw selection counts for kSelection, or OUE-debiased per-cell counts
  /// for kClassRefine (where a report is a whole bit vector and counts_
  /// tallies set bits per cell).
  std::vector<double> EstimatedCounts() const;

  /// Raw per-value report tallies (pre-debias), for tests and metrics.
  const std::vector<size_t>& raw_counts() const { return counts_; }

  ReportKind kind() const { return kind_; }
  size_t domain() const { return domain_; }
  double epsilon() const { return epsilon_; }
  size_t accepted() const { return accepted_; }
  size_t rejected() const { return rejected_; }

 private:
  ReportKind kind_;
  size_t domain_;
  double epsilon_;
  double oue_p_ = 0.0;  ///< OUE keep probability (kClassRefine only)
  double oue_q_ = 0.0;  ///< OUE flip probability (kClassRefine only)
  std::vector<size_t> counts_;
  size_t accepted_ = 0;
  size_t rejected_ = 0;
};

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_SESSION_H_
