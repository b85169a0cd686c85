/// \file
/// The shared per-round client context. The paper's P_a..P_d rounds
/// broadcast ONE identical request to the whole population (PrivShape
/// §IV, Algorithm 2), so everything derivable from the request alone —
/// the decoded candidate list, the GRR/EM perturbation parameters, the
/// distance kernel — is round-constant. RoundContext materializes that
/// work exactly once; every client answer then runs against a
/// `const RoundContext&` plus a per-worker `AnswerScratch`, and the
/// per-report hot path performs no heap allocation at all.
///
/// The context also fixes the round's report window — the kind, the
/// per-level domain and the levels a report may carry — which is what
/// the server aggregates against, so the two sides agree by construction.

#ifndef PRIVSHAPE_PROTOCOL_ROUND_CONTEXT_H_
#define PRIVSHAPE_PROTOCOL_ROUND_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "distance/candidate_table.h"
#include "distance/distance.h"
#include "ldp/exponential.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"
#include "protocol/messages.h"
#include "series/sequence.h"

namespace privshape::proto {

/// Upper bound on the candidates x num_classes cell grid a
/// class-refinement round may announce: each client ships one OUE bit
/// per cell, so an unbounded wire-decoded product would let one corrupt
/// broadcast demand multi-gigabyte reports. Real rounds use c*k
/// candidates x tens of classes — orders of magnitude below this.
inline constexpr uint64_t kMaxClassRefineCells = 1u << 20;

/// Per-worker memo of the word-dependent half of a client answer: the EM
/// probabilities of a P_c answer (match -> scores -> probabilities), or
/// the closest candidate of a P_d/P_e answer. Within one round these
/// depend only on the word, and PrivShape's input is short SAX words that
/// repeat (it looks for the *frequent* shapes), so a worker computes them
/// once per distinct word and every user draws its own randomness against
/// the cached result.
///
/// Key: the exact word, within one RoundContext::serial(). Binding to a
/// different serial drops every entry, so a scratch reused on a later
/// round is never served a stale entry, even if the new context sits at
/// the old one's address. The table is flat (open addressing over entry
/// indices, symbols and probabilities in two arenas); it holds at most
/// kMaxEntries words, kMaxSymbols key symbols and kMaxValues
/// probabilities, so its heap never exceeds kMaxBytes. Past a cap a word
/// is answered without caching. A hit allocates nothing.
///
/// A miss costs a hash and a probe; on input of mostly distinct words the
/// memo would only add that to every answer. So once a cap is reached
/// while fewer than one lookup in kMinLookupsPerHit has hit, the memo
/// turns itself off until it is bound to another context.
class AnswerMemo {
 public:
  static constexpr size_t kMaxEntries = 2048;
  static constexpr size_t kMaxSymbols = size_t{1} << 16;
  static constexpr size_t kMaxValues = size_t{1} << 17;
  /// A hit saves a match of several hundred ns and a miss costs a few
  /// tens, so below about one hit in eight lookups the memo stops paying.
  static constexpr uint64_t kMinLookupsPerHit = 8;

  struct Entry {
    uint64_t hash = 0;
    uint32_t word_begin = 0;  ///< offset into the symbol arena
    uint32_t word_size = 0;
    uint32_t values_begin = 0;  ///< offset into the probability arena
    uint32_t values_size = 0;
    size_t index = 0;  ///< closest candidate (P_d/P_e entries)
  };

  /// Twice the entry cap, so the table is at most half full.
  static constexpr size_t kSlots = 2 * kMaxEntries;
  static constexpr size_t kMaxBytes = kSlots * sizeof(uint32_t) +
                                      kMaxEntries * sizeof(Entry) +
                                      kMaxSymbols * sizeof(Symbol) +
                                      kMaxValues * sizeof(double);

  /// Keys the memo to the context with `serial`; a different serial than
  /// the bound one drops every entry (the capacity is kept) and turns the
  /// memo back on. Returns whether the memo is on; when it is off, callers
  /// neither look words up nor insert them.
  bool Bind(uint64_t serial);

  /// The entry for `word` (whose Hash is `hash`), or nullptr.
  const Entry* Find(const Sequence& word, uint64_t hash);

  /// Caches `word` -> (`values`, `index`). Returns false, caching nothing,
  /// when that would pass a cap, and then turns the memo off if its hits
  /// so far are too few (kMinLookupsPerHit). `word` must not be cached
  /// already.
  bool Insert(const Sequence& word, uint64_t hash, Span<const double> values,
              size_t index);

  /// False once the memo has turned itself off for the bound context.
  bool on() const { return !off_; }

  Span<const double> Values(const Entry& entry) const {
    return Span<const double>(values_.data() + entry.values_begin,
                              entry.values_size);
  }

  /// Words cached for the bound context.
  size_t size() const { return entries_.size(); }

  /// Heap bytes the memo holds (capacities, not sizes); <= kMaxBytes.
  size_t MemoryBytes() const;

  static uint64_t Hash(const Sequence& word);

 private:
  uint64_t serial_ = 0;  ///< 0: bound to no context
  uint64_t lookups_ = 0;  ///< Find calls for the bound context
  uint64_t hits_ = 0;
  bool off_ = false;
  std::vector<uint32_t> slots_;  ///< entry index + 1; 0 = empty slot
  std::vector<Entry> entries_;
  std::vector<Symbol> symbols_;
  std::vector<double> values_;
};

/// Reusable per-worker buffers for the zero-allocation answer path: DP
/// rows for the distance kernel, the distance/score/probability vectors
/// of the EM selection chain, the per-word memo, and the Report the
/// answer is written into. One instance per worker thread (or per
/// population stripe); never shared across threads. This is simulator
/// state: a real device answers once and has nothing to share.
struct AnswerScratch {
  dist::TableScratch table;
  std::vector<double> distances;
  std::vector<double> scores;
  std::vector<double> probs;
  std::vector<uint64_t> words;  ///< raw engine block for batched OUE bits
  AnswerMemo memo;
  /// Word-dependent answers computed over this scratch's life (memo
  /// misses, so every answer past the memo's cap or after it turned
  /// itself off counts). Both answer loops keep a scratch for one round,
  /// so while the memo has room it reads as the distinct words one worker
  /// answered in that round.
  uint64_t distinct_words = 0;
  Report report;
};

/// Immutable, shareable state of one collection round, built once per
/// round (by the round sequence, or by a remote client from the decoded
/// broadcast) and read concurrently by every client answer. Construction
/// validates the request; answering against a context of the wrong kind
/// fails.
class RoundContext {
 public:
  /// P_a: GRR over the clipped length range [ell_low, ell_high]. A
  /// one-value range is served deterministically (no mechanism).
  static Result<RoundContext> Length(int ell_low, int ell_high,
                                     double epsilon);
  static Result<RoundContext> Length(const LengthRequest& request);

  /// P_b: padding-and-sampling sub-shape report. `alphabet` is the SAX
  /// alphabet size; `ell_s` the announced trie height (>= 2).
  static Result<RoundContext> SubShape(int alphabet, int ell_s,
                                       double epsilon, bool allow_repeats);
  static Result<RoundContext> SubShape(const SubShapeRequest& request);

  /// P_c: EM selection over the broadcast candidate list.
  static Result<RoundContext> Selection(CandidateRequest request,
                                        dist::Metric metric);
  static Result<RoundContext> Selection(std::string_view encoded_request,
                                        dist::Metric metric);

  /// P_d (clustering): GRR over the index of the closest candidate.
  static Result<RoundContext> Refinement(CandidateRequest request,
                                         dist::Metric metric);
  static Result<RoundContext> Refinement(std::string_view encoded_request,
                                         dist::Metric metric);

  /// P_e (classification, §V-E): OUE over the candidate x class cell
  /// grid. The perturbation parameters p/q are fixed at construction so
  /// every per-report draw is a plain Bernoulli against shared constants.
  static Result<RoundContext> ClassRefinement(ClassRefineRequest request,
                                              dist::Metric metric);
  static Result<RoundContext> ClassRefinement(
      std::string_view encoded_request, dist::Metric metric);

  ReportKind kind() const { return kind_; }

  /// Unique per constructed context in this process (moves keep it): the
  /// AnswerMemo key, which a new context at a reused address cannot match.
  uint64_t serial() const { return serial_; }

  uint64_t level() const { return level_; }
  double epsilon() const { return epsilon_; }

  /// The report window: each report's value (or, for kClassRefine, its
  /// bit vector) spans domain() values, and its level lies in
  /// [min_level(), min_level() + num_levels()). Only the P_b round spans
  /// several levels, [1, ell_s).
  size_t domain() const { return domain_; }
  uint64_t min_level() const {
    return kind_ == ReportKind::kSubShape ? 1 : level_;
  }
  size_t num_levels() const {
    return kind_ == ReportKind::kSubShape ? static_cast<size_t>(ell_s_ - 1)
                                          : 1;
  }
  const std::vector<Sequence>& candidates() const {
    return table_.candidates();
  }

  /// The SoA candidate table (built once at construction) the
  /// vectorized answer paths match against; empty for P_a/P_b rounds.
  const dist::CandidateTable& table() const { return table_; }

  // Stage parameters (meaningful for the kinds that set them).
  int ell_low() const { return ell_low_; }
  int ell_high() const { return ell_high_; }
  int alphabet() const { return alphabet_; }
  int ell_s() const { return ell_s_; }
  bool allow_repeats() const { return allow_repeats_; }

  // Classification-refinement parameters (kClassRefine only).
  int num_classes() const { return num_classes_; }
  /// candidates().size() * num_classes() — the OUE bit-vector length.
  size_t cells() const {
    return candidates().size() * static_cast<size_t>(num_classes_);
  }
  double oue_p() const { return oue_p_; }
  double oue_q() const { return oue_q_; }

  /// The pre-built mechanisms. grr() is absent only for the one-value
  /// P_a domain; em() is present only for kSelection; oue() only for
  /// kClassRefine (it carries the batched bit-fill path).
  const ldp::Grr* grr() const { return grr_ ? &*grr_ : nullptr; }
  const ldp::ExponentialMechanism* em() const { return em_ ? &*em_ : nullptr; }
  const ldp::UnaryEncoding* oue() const { return oue_ ? &*oue_ : nullptr; }

  /// The pre-built distance kernel (kSelection/kRefinement only).
  const dist::SequenceDistance* distance() const { return distance_.get(); }

 private:
  RoundContext();

  uint64_t serial_;
  ReportKind kind_ = ReportKind::kLength;
  uint64_t level_ = 0;
  double epsilon_ = 0.0;
  size_t domain_ = 0;
  int ell_low_ = 0;
  int ell_high_ = 0;
  int alphabet_ = 0;
  int ell_s_ = 0;
  bool allow_repeats_ = false;
  int num_classes_ = 0;
  double oue_p_ = 0.0;
  double oue_q_ = 0.0;
  std::optional<ldp::Grr> grr_;
  std::optional<ldp::ExponentialMechanism> em_;
  std::optional<ldp::UnaryEncoding> oue_;
  std::unique_ptr<const dist::SequenceDistance> distance_;
  dist::CandidateTable table_;
};

}  // namespace privshape::proto

#endif  // PRIVSHAPE_PROTOCOL_ROUND_CONTEXT_H_
