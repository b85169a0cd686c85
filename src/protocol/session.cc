#include "protocol/session.h"

#include <algorithm>

#include "ldp/estimator_utils.h"
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape::proto {

namespace {

/// P_a: length clipped into [ell_low, ell_high], GRR-perturbed. `grr`
/// spans the (ell_high - ell_low + 1)-value domain, which has >= 2 values
/// (the one-value domain reports 0 without randomness).
PS_RNG_WORDS(2)
size_t AnswerLengthValue(const Sequence& word, int ell_low, int ell_high,
                         const ldp::Grr& grr, Rng* rng) {
  int len = static_cast<int>(word.size());
  len = std::clamp(len, ell_low, ell_high);
  return grr.PerturbValue(static_cast<size_t>(len - ell_low), rng);
}

/// P_b padding-and-sampling: samples level j uniformly from
/// {1, ..., ell_s - 1}, then GRR-perturbs the index of the adjacent pair
/// at j (the sentinel bucket for padded or invalid positions). Returns
/// {level, perturbed value}.
PS_REPORT_PATH
std::pair<uint64_t, size_t> AnswerSubShapeValue(const Sequence& word,
                                                int ell_s, int t,
                                                bool allow_repeats,
                                                const ldp::Grr& grr,
                                                Rng* rng) {
  size_t num_levels = static_cast<size_t>(ell_s - 1);
  size_t sentinel = SubShapeDomainSize(t, allow_repeats) - 1;
  // Level j in {1, ..., ell_s - 1}; uniform, data-independent.
  size_t j = 1 + rng->Index(num_levels);
  size_t value;
  if (j + 1 <= word.size()) {
    Symbol a = word[j - 1];
    Symbol b = word[j];
    if (!allow_repeats && a == b) {
      // Cannot occur for compressed input; map defensively to sentinel.
      value = sentinel;
    } else {
      value = PairToIndex(a, b, t, allow_repeats);
    }
  } else {
    value = sentinel;  // the sampled pair lies in the padded region
  }
  return {static_cast<uint64_t>(j), grr.PerturbValue(value, rng)};
}

// The word-dependent half of an answer. Within one round it depends only
// on the word, so with a caller's scratch (`memoize`) it is computed once
// per distinct word and served from AnswerMemo afterwards, while the memo
// is on; the values are identical either way, and the per-user draws that
// follow are untouched.

/// P_c: match -> scores -> EM selection probabilities.
Result<Span<const double>> WordProbabilities(const RoundContext& ctx,
                                             const Sequence& word,
                                             AnswerScratch* s, bool memoize) {
  uint64_t hash = 0;
  memoize = memoize && s->memo.Bind(ctx.serial());
  if (memoize) {
    hash = AnswerMemo::Hash(word);
    if (const AnswerMemo::Entry* hit = s->memo.Find(word, hash)) {
      return s->memo.Values(*hit);
    }
  }
  ++s->distinct_words;
  // The SoA table kernels are bit-identical to the scalar matching
  // reference, so the EM draws do not depend on the SIMD level.
  ctx.table().MatchInto(word, *ctx.distance(), /*prefix_compare=*/true,
                        &s->table, &s->distances);
  ldp::ScoresFromDistancesInto(s->distances, &s->scores);
  PRIVSHAPE_RETURN_IF_ERROR(
      ctx.em()->SelectionProbabilitiesInto(s->scores, &s->probs));
  if (memoize) s->memo.Insert(word, hash, s->probs, 0);
  return Span<const double>(s->probs);
}

/// P_d / P_e: the closest candidate's index.
size_t ClosestCandidate(const RoundContext& ctx, const Sequence& word,
                        AnswerScratch* s, bool memoize) {
  uint64_t hash = 0;
  memoize = memoize && s->memo.Bind(ctx.serial());
  if (memoize) {
    hash = AnswerMemo::Hash(word);
    if (const AnswerMemo::Entry* hit = s->memo.Find(word, hash)) {
      return hit->index;
    }
  }
  ++s->distinct_words;
  size_t best = ctx.table().Closest(word, *ctx.distance(), &s->table);
  if (memoize) s->memo.Insert(word, hash, {}, best);
  return best;
}

}  // namespace

PS_REPORT_PATH
Status ClientSession::AnswerLength(const RoundContext& ctx,
                                   AnswerScratch* /*scratch*/, Report* out) {
  if (ctx.kind() != ReportKind::kLength) {
    return Status::InvalidArgument("context is not a length round");
  }
  out->kind = ReportKind::kLength;
  out->level = 0;
  out->bits.clear();
  if (ctx.grr() == nullptr) {
    // One-value domain: deterministic report, no randomness to spend.
    out->value = 0;
    return Status::Ok();
  }
  out->value = AnswerLengthValue(word_, ctx.ell_low(), ctx.ell_high(),
                                 *ctx.grr(), &rng_);
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerSubShape(const RoundContext& ctx,
                                     AnswerScratch* /*scratch*/,
                                     Report* out) {
  if (ctx.kind() != ReportKind::kSubShape) {
    return Status::InvalidArgument("context is not a sub-shape round");
  }
  auto [level, value] =
      AnswerSubShapeValue(word_, ctx.ell_s(), ctx.alphabet(),
                          ctx.allow_repeats(), *ctx.grr(), &rng_);
  out->kind = ReportKind::kSubShape;
  out->level = level;
  out->value = value;
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerSelection(const RoundContext& ctx,
                                      AnswerScratch* scratch, Report* out) {
  if (ctx.kind() != ReportKind::kSelection) {
    return Status::InvalidArgument("context is not a selection round");
  }
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  auto probs = WordProbabilities(ctx, word_, s, scratch != nullptr);
  if (!probs.ok()) return probs.status();
  // The one EM draw path: ExponentialMechanism::Select is exactly
  // "probabilities, then SelectFromProbabilities".
  auto pick = ctx.em()->SelectFromProbabilities(*probs, &rng_);
  if (!pick.ok()) return pick.status();
  out->kind = ReportKind::kSelection;
  out->level = ctx.level();
  out->value = *pick;
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerRefinement(const RoundContext& ctx,
                                       AnswerScratch* scratch, Report* out) {
  if (ctx.kind() != ReportKind::kRefinement) {
    return Status::InvalidArgument("context is not a refinement round");
  }
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  size_t best_idx = ClosestCandidate(ctx, word_, s, scratch != nullptr);
  out->kind = ReportKind::kRefinement;
  out->level = 0;
  out->value = ctx.grr()->PerturbValue(best_idx, &rng_);
  out->bits.clear();
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::AnswerClassRefinement(const RoundContext& ctx,
                                            AnswerScratch* scratch,
                                            Report* out) {
  if (ctx.kind() != ReportKind::kClassRefine) {
    return Status::InvalidArgument(
        "context is not a class-refinement round");
  }
  if (label_ < 0 || label_ >= ctx.num_classes()) {
    // No report leaves an unlabeled (or mislabeled) device: the OUE cell
    // index would be undefined, and a fabricated one would bias the
    // per-class estimates instead of showing up as a client error.
    return Status::FailedPrecondition(
        "session label outside [0, num_classes)");
  }
  AnswerScratch local;
  AnswerScratch* s = scratch != nullptr ? scratch : &local;
  size_t best_idx = ClosestCandidate(ctx, word_, s, scratch != nullptr);
  size_t cell = best_idx * static_cast<size_t>(ctx.num_classes()) +
                static_cast<size_t>(label_);
  out->kind = ReportKind::kClassRefine;
  out->level = 0;
  out->value = 0;
  // The one canonical OUE bit fill — same draws in the same order as
  // ldp::UnaryEncoding::PerturbValue (one raw engine word per cell,
  // threshold-compared in bulk), written into the reusable bits buffer.
  ctx.oue()->EncodeInto(cell, &rng_, &s->words, &out->bits);
  return Status::Ok();
}

PS_REPORT_PATH
Status ClientSession::Answer(const RoundContext& ctx, AnswerScratch* scratch,
                             Report* out) {
  switch (ctx.kind()) {
    case ReportKind::kLength:
      return AnswerLength(ctx, scratch, out);
    case ReportKind::kSubShape:
      return AnswerSubShape(ctx, scratch, out);
    case ReportKind::kSelection:
      return AnswerSelection(ctx, scratch, out);
    case ReportKind::kRefinement:
      return AnswerRefinement(ctx, scratch, out);
    case ReportKind::kClassRefine:
      return AnswerClassRefinement(ctx, scratch, out);
  }
  return Status::InvalidArgument("unknown round kind");
}

PS_REPORT_PATH
Status ClientSession::AnswerTo(const RoundContext& ctx,
                               AnswerScratch* scratch, ReportBatch* out) {
  Report local;
  Report* report = scratch != nullptr ? &scratch->report : &local;
  PRIVSHAPE_RETURN_IF_ERROR(Answer(ctx, scratch, report));
  out->Append(*report);
  return Status::Ok();
}

Status ClientSession::SeedEngines(ClientSession* sessions, size_t n) {
  return Rng::SeedLockstep(
      n, [sessions](size_t i) { return &sessions[i].rng_; });
}

ReportAggregator::ReportAggregator(ReportKind kind, size_t domain,
                                   double epsilon)
    : kind_(kind), domain_(domain), epsilon_(epsilon), counts_(domain, 0) {
  if (kind_ == ReportKind::kClassRefine) {
    // p/q from the one OUE implementation so the debiased estimates are
    // byte-identical to ldp::UnaryEncoding::EstimateCounts over the same
    // bit tallies. A non-positive epsilon (impossible for any validated
    // round) leaves p == q == 0.
    auto oue = ldp::UnaryEncoding::Create(
        std::max<size_t>(domain, 1), epsilon,
        ldp::UnaryEncoding::Variant::kOptimized);
    if (oue.ok()) {
      oue_p_ = oue->p();
      oue_q_ = oue->q();
    }
  }
}

void ReportAggregator::Consume(std::string_view encoded) {
  auto report = DecodeReport(encoded);
  if (!report.ok()) {
    ++rejected_;
    return;
  }
  ConsumeReport(*report);
}

void ReportAggregator::ConsumeReport(const Report& report) {
  if (report.kind != kind_) {
    ++rejected_;
    return;
  }
  if (kind_ == ReportKind::kClassRefine) {
    // A class-refinement report is a whole OUE bit vector; anything but
    // exactly domain_ bits (or a stray value/level field) is malformed.
    if (report.value != 0 || report.level != 0 ||
        report.bits.size() != domain_) {
      ++rejected_;
      return;
    }
    for (size_t i = 0; i < domain_; ++i) {
      if (report.bits[i]) ++counts_[i];
    }
    ++accepted_;
    return;
  }
  if (report.value >= domain_) {
    ++rejected_;
    return;
  }
  counts_[report.value]++;
  ++accepted_;
}

Status ReportAggregator::Merge(const ReportAggregator& other) {
  if (other.kind_ != kind_ || other.domain_ != domain_ ||
      other.epsilon_ != epsilon_) {
    return Status::InvalidArgument("cannot merge mismatched aggregators");
  }
  for (size_t v = 0; v < domain_; ++v) counts_[v] += other.counts_[v];
  accepted_ += other.accepted_;
  rejected_ += other.rejected_;
  return Status::Ok();
}

std::vector<double> ReportAggregator::EstimatedCounts() const {
  if (kind_ == ReportKind::kSelection) {
    std::vector<double> out(domain_);
    for (size_t v = 0; v < domain_; ++v) {
      out[v] = static_cast<double>(counts_[v]);
    }
    return out;
  }
  if (kind_ == ReportKind::kClassRefine) {
    // Same expression, same evaluation order as
    // ldp::UnaryEncoding::EstimateCounts — identical integer tallies give
    // byte-identical per-cell estimates.
    std::vector<double> out(domain_);
    double n = static_cast<double>(accepted_);
    for (size_t v = 0; v < domain_; ++v) {
      out[v] =
          (static_cast<double>(counts_[v]) - n * oue_q_) / (oue_p_ - oue_q_);
    }
    return out;
  }
  // Shared debias path: identical raw counts give byte-identical
  // estimates to the in-process ldp::Grr oracle.
  return ldp::DebiasGrrCounts(counts_, accepted_, epsilon_);
}

}  // namespace privshape::proto
