#include "protocol/round_context.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

#include "ldp/unary_encoding.h"

namespace privshape::proto {

namespace {

std::atomic<uint64_t> next_context_serial{1};

constexpr size_t kSlotBits = 12;
static_assert(AnswerMemo::kSlots == size_t{1} << kSlotBits,
              "slot count must match the slot-index width");

size_t SlotOf(uint64_t hash) {
  // Fibonacci hashing: the top bits of the product mix every input bit.
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >>
                             (64 - kSlotBits));
}

/// Grows `v` to hold `need` elements without passing `cap` (std::vector's
/// own doubling could overshoot the memo's byte bound).
template <typename T>
void ReserveCapped(std::vector<T>* v, size_t need, size_t cap) {
  if (need <= v->capacity()) return;
  v->reserve(std::min(std::max(need, 2 * v->capacity()), cap));
}

}  // namespace

bool AnswerMemo::Bind(uint64_t serial) {
  if (serial == serial_) return !off_;
  serial_ = serial;
  if (slots_.empty()) {
    slots_.assign(kSlots, 0);
  } else if (!entries_.empty()) {
    std::fill(slots_.begin(), slots_.end(), 0);
  }
  entries_.clear();
  symbols_.clear();
  values_.clear();
  lookups_ = 0;
  hits_ = 0;
  off_ = false;
  return true;
}

const AnswerMemo::Entry* AnswerMemo::Find(const Sequence& word,
                                          uint64_t hash) {
  ++lookups_;
  if (entries_.empty()) return nullptr;
  for (size_t i = SlotOf(hash);; i = (i + 1) & (kSlots - 1)) {
    uint32_t slot = slots_[i];
    if (slot == 0) return nullptr;
    const Entry& entry = entries_[slot - 1];
    if (entry.hash == hash && entry.word_size == word.size() &&
        std::equal(word.begin(), word.end(),
                   symbols_.begin() + entry.word_begin)) {
      ++hits_;
      return &entry;
    }
  }
}

bool AnswerMemo::Insert(const Sequence& word, uint64_t hash,
                        Span<const double> values, size_t index) {
  if (slots_.empty()) return false;
  if (entries_.size() >= kMaxEntries ||
      symbols_.size() + word.size() > kMaxSymbols ||
      values_.size() + values.size() > kMaxValues) {
    if (hits_ * kMinLookupsPerHit < lookups_) off_ = true;
    return false;
  }
  Entry entry;
  entry.hash = hash;
  entry.word_begin = static_cast<uint32_t>(symbols_.size());
  entry.word_size = static_cast<uint32_t>(word.size());
  entry.values_begin = static_cast<uint32_t>(values_.size());
  entry.values_size = static_cast<uint32_t>(values.size());
  entry.index = index;
  ReserveCapped(&entries_, entries_.size() + 1, kMaxEntries);
  ReserveCapped(&symbols_, symbols_.size() + word.size(), kMaxSymbols);
  ReserveCapped(&values_, values_.size() + values.size(), kMaxValues);
  entries_.push_back(entry);
  symbols_.insert(symbols_.end(), word.begin(), word.end());
  values_.insert(values_.end(), values.begin(), values.end());
  size_t i = SlotOf(hash);
  while (slots_[i] != 0) i = (i + 1) & (kSlots - 1);
  slots_[i] = static_cast<uint32_t>(entries_.size());
  return true;
}

size_t AnswerMemo::MemoryBytes() const {
  return slots_.capacity() * sizeof(uint32_t) +
         entries_.capacity() * sizeof(Entry) +
         symbols_.capacity() * sizeof(Symbol) +
         values_.capacity() * sizeof(double);
}

uint64_t AnswerMemo::Hash(const Sequence& word) {
  uint64_t h = 0xcbf29ce484222325ULL ^ word.size();  // FNV-1a basis
  for (Symbol symbol : word) h = (h ^ symbol) * 0x100000001b3ULL;
  return h;
}

RoundContext::RoundContext() : serial_(next_context_serial.fetch_add(1)) {}

Result<RoundContext> RoundContext::Length(int ell_low, int ell_high,
                                          double epsilon) {
  if (ell_low < 1 || ell_high < ell_low) {
    return Status::InvalidArgument("invalid length range");
  }
  RoundContext ctx;
  ctx.kind_ = ReportKind::kLength;
  ctx.epsilon_ = epsilon;
  ctx.ell_low_ = ell_low;
  ctx.ell_high_ = ell_high;
  ctx.domain_ = static_cast<size_t>(ell_high - ell_low + 1);
  if (ctx.domain_ > 1) {
    auto grr = ldp::Grr::Create(ctx.domain_, epsilon);
    if (!grr.ok()) return grr.status();
    ctx.grr_ = std::move(*grr);
  }
  return ctx;
}

Result<RoundContext> RoundContext::Length(const LengthRequest& request) {
  return Length(request.ell_low, request.ell_high, request.epsilon);
}

Result<RoundContext> RoundContext::SubShape(int alphabet, int ell_s,
                                            double epsilon,
                                            bool allow_repeats) {
  if (ell_s < 2) {
    return Status::FailedPrecondition("no sub-shapes for ell_s < 2");
  }
  RoundContext ctx;
  ctx.kind_ = ReportKind::kSubShape;
  ctx.epsilon_ = epsilon;
  ctx.alphabet_ = alphabet;
  ctx.ell_s_ = ell_s;
  ctx.allow_repeats_ = allow_repeats;
  ctx.domain_ = SubShapeDomainSize(alphabet, allow_repeats);
  auto grr = ldp::Grr::Create(ctx.domain_, epsilon);
  if (!grr.ok()) return grr.status();
  ctx.grr_ = std::move(*grr);
  return ctx;
}

Result<RoundContext> RoundContext::SubShape(const SubShapeRequest& request) {
  return SubShape(request.alphabet, request.ell_s, request.epsilon,
                  request.allow_repeats);
}

Result<RoundContext> RoundContext::Selection(CandidateRequest request,
                                             dist::Metric metric) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  auto em = ldp::ExponentialMechanism::Create(request.epsilon);
  if (!em.ok()) return em.status();
  RoundContext ctx;
  ctx.kind_ = ReportKind::kSelection;
  ctx.level_ = request.level;
  ctx.epsilon_ = request.epsilon;
  ctx.domain_ = request.candidates.size();
  ctx.em_ = std::move(*em);
  ctx.distance_ = dist::MakeDistance(metric);
  ctx.table_ = dist::CandidateTable::Build(std::move(request.candidates));
  return ctx;
}

Result<RoundContext> RoundContext::Selection(std::string_view encoded_request,
                                             dist::Metric metric) {
  auto decoded = DecodeCandidateRequest(encoded_request);
  if (!decoded.ok()) return decoded.status();
  return Selection(std::move(*decoded), metric);
}

Result<RoundContext> RoundContext::Refinement(CandidateRequest request,
                                              dist::Metric metric) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  // A lone candidate still gets a two-value GRR domain.
  size_t domain = std::max<size_t>(request.candidates.size(), 2);
  auto grr = ldp::Grr::Create(domain, request.epsilon);
  if (!grr.ok()) return grr.status();
  RoundContext ctx;
  ctx.kind_ = ReportKind::kRefinement;
  ctx.level_ = request.level;
  ctx.epsilon_ = request.epsilon;
  ctx.domain_ = domain;
  ctx.grr_ = std::move(*grr);
  ctx.distance_ = dist::MakeDistance(metric);
  ctx.table_ = dist::CandidateTable::Build(std::move(request.candidates));
  return ctx;
}

Result<RoundContext> RoundContext::Refinement(std::string_view encoded_request,
                                              dist::Metric metric) {
  auto decoded = DecodeCandidateRequest(encoded_request);
  if (!decoded.ok()) return decoded.status();
  return Refinement(std::move(*decoded), metric);
}

Result<RoundContext> RoundContext::ClassRefinement(ClassRefineRequest request,
                                                   dist::Metric metric) {
  if (request.candidates.empty()) {
    return Status::InvalidArgument("empty candidate list");
  }
  if (request.num_classes < 1 ||
      request.num_classes >
          static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument("num_classes must be a positive int");
  }
  // Every client allocates and ships one bit per cell, so an unbounded
  // wire-decoded candidates x classes product is a DoS vector (a tiny
  // corrupt broadcast could demand multi-GB reports). Real rounds are
  // c*k candidates x tens of classes — orders of magnitude under this.
  uint64_t wide_cells = static_cast<uint64_t>(request.candidates.size()) *
                        request.num_classes;
  if (wide_cells > kMaxClassRefineCells) {
    return Status::InvalidArgument(
        "candidates x num_classes exceeds the class-refinement cell cap");
  }
  size_t cells = static_cast<size_t>(wide_cells);
  // Validation and p/q come from the one OUE implementation, so the
  // answer's Bernoulli draws and the aggregator's debias share them.
  auto oue = ldp::UnaryEncoding::Create(
      cells, request.epsilon, ldp::UnaryEncoding::Variant::kOptimized);
  if (!oue.ok()) return oue.status();
  RoundContext ctx;
  ctx.kind_ = ReportKind::kClassRefine;
  ctx.level_ = 0;
  ctx.epsilon_ = request.epsilon;
  ctx.domain_ = cells;
  ctx.num_classes_ = static_cast<int>(request.num_classes);
  ctx.oue_p_ = oue->p();
  ctx.oue_q_ = oue->q();
  ctx.oue_ = std::move(*oue);
  ctx.distance_ = dist::MakeDistance(metric);
  ctx.table_ = dist::CandidateTable::Build(std::move(request.candidates));
  return ctx;
}

Result<RoundContext> RoundContext::ClassRefinement(
    std::string_view encoded_request, dist::Metric metric) {
  auto decoded = DecodeClassRefineRequest(encoded_request);
  if (!decoded.ok()) return decoded.status();
  return ClassRefinement(std::move(*decoded), metric);
}

}  // namespace privshape::proto
