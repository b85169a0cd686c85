/// A remote client builds its RoundContext from the broadcast bytes (the
/// "string path": decode the encoded request, then build); the round
/// sequence builds it from the request it just encoded. For all five
/// report kinds the two contexts must give byte-identical reports for the
/// same user (same seed, same word), construction must fail on the same
/// inputs, and the batched ReportBatch codec must round-trip.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ldp/exponential.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

namespace privshape {
namespace {

using proto::AnswerScratch;
using proto::CandidateRequest;
using proto::ClientSession;
using proto::Report;
using proto::ReportBatch;
using proto::ReportKind;
using proto::RoundContext;

Sequence WordFor(uint64_t user) {
  Rng rng(DeriveSeed(99, user));
  Sequence word;
  size_t len = 1 + rng.Index(7);
  for (size_t i = 0; i < len; ++i) {
    word.push_back(static_cast<Symbol>(rng.Index(4)));
  }
  return word;
}

ClientSession SessionFor(uint64_t user) {
  return ClientSession(WordFor(user), DeriveSeed(7, user));
}

CandidateRequest SampleRequest(double epsilon) {
  CandidateRequest request;
  request.level = 2;
  request.epsilon = epsilon;
  request.candidates = {{0, 1, 2}, {2, 1, 0}, {1, 1}, {3, 0, 2, 1}};
  return request;
}

/// The context-path report for one user (scratch shared across calls to
/// prove reuse does not leak state between users).
std::string ContextAnswer(const RoundContext& ctx, uint64_t user,
                          AnswerScratch* scratch) {
  ClientSession session = SessionFor(user);
  ReportBatch batch;
  Status st = session.AnswerTo(ctx, scratch, &batch);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(batch.size(), 1u);
  return std::string(batch.view(0));
}

TEST(RoundContextTest, LengthAnswersByteIdenticalToStringPath) {
  proto::LengthRequest request;
  request.ell_low = 1;
  request.ell_high = 10;
  request.epsilon = 4.0;
  auto built = RoundContext::Length(request);
  auto decoded =
      proto::DecodeLengthRequest(proto::EncodeLengthRequest(request));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(decoded.ok());
  auto wire = RoundContext::Length(*decoded);
  ASSERT_TRUE(wire.ok());
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 200; ++user) {
    EXPECT_EQ(ContextAnswer(*built, user, &scratch),
              ContextAnswer(*wire, user, &scratch))
        << "user " << user;
  }
}

TEST(RoundContextTest, OneValueLengthDomainIsDeterministicZero) {
  auto ctx = RoundContext::Length(3, 3, 4.0);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->grr(), nullptr);
  EXPECT_EQ(ctx->domain(), 1u);
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 20; ++user) {
    auto report = proto::DecodeReport(ContextAnswer(*ctx, user, &scratch));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->value, 0u);
  }
}

TEST(RoundContextTest, SubShapeAnswersByteIdenticalToStringPath) {
  proto::SubShapeRequest request;
  request.alphabet = 4;
  request.ell_s = 6;
  request.epsilon = 4.0;
  auto built = RoundContext::SubShape(request);
  auto decoded =
      proto::DecodeSubShapeRequest(proto::EncodeSubShapeRequest(request));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(decoded.ok());
  auto wire = RoundContext::SubShape(*decoded);
  ASSERT_TRUE(wire.ok());
  // The report window spans levels [1, ell_s).
  EXPECT_EQ(wire->min_level(), 1u);
  EXPECT_EQ(wire->num_levels(), 5u);
  EXPECT_EQ(wire->domain(), proto::SubShapeDomainSize(4, false));
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 200; ++user) {
    EXPECT_EQ(ContextAnswer(*built, user, &scratch),
              ContextAnswer(*wire, user, &scratch))
        << "user " << user;
  }
}

TEST(RoundContextTest, SelectionAnswersByteIdenticalToStringPath) {
  CandidateRequest request = SampleRequest(6.0);
  std::string encoded = proto::EncodeCandidateRequest(request);
  for (dist::Metric metric :
       {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
        dist::Metric::kHausdorff}) {
    auto built = RoundContext::Selection(request, metric);
    auto wire = RoundContext::Selection(encoded, metric);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(wire.ok());
    EXPECT_EQ(wire->min_level(), request.level);
    EXPECT_EQ(wire->domain(), request.candidates.size());
    AnswerScratch built_scratch, wire_scratch;
    for (uint64_t user = 0; user < 150; ++user) {
      EXPECT_EQ(ContextAnswer(*built, user, &built_scratch),
                ContextAnswer(*wire, user, &wire_scratch))
          << dist::MetricName(metric) << " user " << user;
    }
  }
}

TEST(RoundContextTest, RefinementAnswersByteIdenticalToStringPath) {
  CandidateRequest request = SampleRequest(8.0);
  std::string encoded = proto::EncodeCandidateRequest(request);
  for (dist::Metric metric :
       {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
        dist::Metric::kHausdorff}) {
    auto built = RoundContext::Refinement(request, metric);
    auto wire = RoundContext::Refinement(encoded, metric);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(wire.ok());
    AnswerScratch built_scratch, wire_scratch;
    for (uint64_t user = 0; user < 150; ++user) {
      EXPECT_EQ(ContextAnswer(*built, user, &built_scratch),
                ContextAnswer(*wire, user, &wire_scratch))
          << dist::MetricName(metric) << " user " << user;
    }
  }
  // A lone candidate still gets a two-value GRR domain.
  CandidateRequest lone = SampleRequest(8.0);
  lone.candidates.resize(1);
  auto ctx = RoundContext::Refinement(lone, dist::Metric::kSed);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->domain(), 2u);
}

TEST(RoundContextTest, ClassRefinementAnswersByteIdenticalToStringPath) {
  proto::ClassRefineRequest request;
  request.epsilon = 5.0;
  request.num_classes = 4;
  request.candidates = SampleRequest(5.0).candidates;
  std::string encoded = proto::EncodeClassRefineRequest(request);
  for (dist::Metric metric : {dist::Metric::kDtw, dist::Metric::kSed}) {
    auto built = RoundContext::ClassRefinement(request, metric);
    auto wire = RoundContext::ClassRefinement(encoded, metric);
    ASSERT_TRUE(built.ok()) << built.status();
    ASSERT_TRUE(wire.ok()) << wire.status();
    EXPECT_EQ(wire->kind(), ReportKind::kClassRefine);
    EXPECT_EQ(wire->cells(), request.candidates.size() * 4);
    EXPECT_EQ(wire->domain(), wire->cells());
    AnswerScratch built_scratch, wire_scratch;
    for (uint64_t user = 0; user < 150; ++user) {
      int label = static_cast<int>(user % 4);
      std::string answers[2];
      const RoundContext* contexts[2] = {&*built, &*wire};
      AnswerScratch* scratches[2] = {&built_scratch, &wire_scratch};
      for (int path = 0; path < 2; ++path) {
        ClientSession session(WordFor(user), DeriveSeed(7, user), label);
        ReportBatch batch;
        ASSERT_TRUE(
            session.AnswerTo(*contexts[path], scratches[path], &batch).ok());
        answers[path] = std::string(batch.view(0));
      }
      EXPECT_EQ(answers[0], answers[1])
          << dist::MetricName(metric) << " user " << user;
    }
  }
}

TEST(RoundContextTest, ClassRefinementConstructionValidates) {
  proto::ClassRefineRequest good;
  good.epsilon = 4.0;
  good.num_classes = 2;
  good.candidates = {{0, 1}};
  ASSERT_TRUE(
      RoundContext::ClassRefinement(good, dist::Metric::kSed).ok());
  proto::ClassRefineRequest no_candidates = good;
  no_candidates.candidates.clear();
  EXPECT_FALSE(
      RoundContext::ClassRefinement(no_candidates, dist::Metric::kSed).ok());
  proto::ClassRefineRequest no_classes = good;
  no_classes.num_classes = 0;
  EXPECT_FALSE(
      RoundContext::ClassRefinement(no_classes, dist::Metric::kSed).ok());
  proto::ClassRefineRequest bad_eps = good;
  bad_eps.epsilon = -1.0;
  EXPECT_FALSE(
      RoundContext::ClassRefinement(bad_eps, dist::Metric::kSed).ok());
  EXPECT_FALSE(
      RoundContext::ClassRefinement("garbage", dist::Metric::kSed).ok());
  // A tiny corrupt broadcast must not be able to demand a multi-GB OUE
  // bit vector from every client: the cell grid is capped.
  proto::ClassRefineRequest huge = good;
  huge.num_classes = proto::kMaxClassRefineCells + 1;
  EXPECT_FALSE(
      RoundContext::ClassRefinement(huge, dist::Metric::kSed).ok());
  proto::ClassRefineRequest wide = good;
  wide.candidates = {{0, 1}, {1, 0}};           // 2 candidates x ...
  wide.num_classes = (uint64_t{1} << 19) + 1;   // ... classes -> over cap
  EXPECT_FALSE(
      RoundContext::ClassRefinement(wide, dist::Metric::kSed).ok());
}

TEST(RoundContextTest, ConstructionValidatesLikeTheWireApi) {
  // Built or decoded, an invalid request yields no context.
  EXPECT_FALSE(RoundContext::Length(0, 10, 4.0).ok());
  EXPECT_FALSE(RoundContext::Length(5, 4, 4.0).ok());
  EXPECT_FALSE(RoundContext::Length(1, 10, -1.0).ok());  // bad epsilon
  EXPECT_FALSE(RoundContext::SubShape(3, 1, 4.0, false).ok());
  CandidateRequest empty;
  empty.epsilon = 1.0;
  EXPECT_FALSE(
      RoundContext::Selection(std::move(empty), dist::Metric::kSed).ok());
  EXPECT_FALSE(
      RoundContext::Selection("garbage", dist::Metric::kSed).ok());
  EXPECT_FALSE(
      RoundContext::Refinement("garbage", dist::Metric::kSed).ok());
  CandidateRequest bad_eps = SampleRequest(-2.0);
  EXPECT_FALSE(
      RoundContext::Selection(std::move(bad_eps), dist::Metric::kSed).ok());
}

TEST(RoundContextTest, AnswerRejectsKindMismatch) {
  auto length_ctx = RoundContext::Length(1, 10, 4.0);
  auto select_ctx =
      RoundContext::Selection(SampleRequest(4.0), dist::Metric::kSed);
  ASSERT_TRUE(length_ctx.ok());
  ASSERT_TRUE(select_ctx.ok());
  ClientSession session = SessionFor(0);
  Report report;
  EXPECT_FALSE(session.AnswerLength(*select_ctx, nullptr, &report).ok());
  EXPECT_FALSE(session.AnswerSelection(*length_ctx, nullptr, &report).ok());
  EXPECT_FALSE(session.AnswerSubShape(*length_ctx, nullptr, &report).ok());
  EXPECT_FALSE(session.AnswerRefinement(*length_ctx, nullptr, &report).ok());
  EXPECT_FALSE(
      session.AnswerClassRefinement(*length_ctx, nullptr, &report).ok());
}

TEST(RoundContextTest, ReportReuseClearsStaleBits) {
  // A scratch Report that carried OUE bits must not leak them into the
  // next answer written over it.
  auto ctx = RoundContext::Length(1, 10, 4.0);
  ASSERT_TRUE(ctx.ok());
  AnswerScratch scratch;
  scratch.report.bits = {1, 0, 1};
  ClientSession session = SessionFor(3);
  ReportBatch batch;
  ASSERT_TRUE(session.AnswerTo(*ctx, &scratch, &batch).ok());
  auto decoded = proto::DecodeReport(batch.view(0));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->bits.empty());
}

// --- ReportBatch ---------------------------------------------------------

TEST(ReportBatchTest, AppendViewRoundTrip) {
  ReportBatch batch;
  std::vector<Report> reports;
  for (uint64_t i = 0; i < 10; ++i) {
    Report report;
    report.kind = ReportKind::kSelection;
    report.level = i;
    report.value = i * 3 + 1;
    if (i % 3 == 0) report.bits = {static_cast<uint8_t>(i), 1};
    reports.push_back(report);
    batch.Append(report);
  }
  ASSERT_EQ(batch.size(), reports.size());
  size_t total = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.view(i), proto::EncodeReport(reports[i])) << i;
    total += batch.view(i).size();
    auto decoded = proto::DecodeReport(batch.view(i));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, reports[i]);
  }
  EXPECT_EQ(batch.bytes(), total);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.bytes(), 0u);
  // Reuse after Clear starts clean.
  batch.Append(reports[0]);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.view(0), proto::EncodeReport(reports[0]));
}

TEST(ReportBatchTest, EncodeReportToMatchesEncodeReport) {
  Report report;
  report.kind = ReportKind::kSubShape;
  report.level = 3;
  report.value = 17;
  report.bits = {1, 0, 1};
  std::string appended = "prefix";
  proto::EncodeReportTo(report, &appended);
  EXPECT_EQ(appended, "prefix" + proto::EncodeReport(report));
}

// --- In-place EM helpers -------------------------------------------------

TEST(InPlaceEmTest, ScoresAndSelectMatchAllocatingVariants) {
  std::vector<double> distances = {2.0, 5.0, 8.0, 5.0};
  std::vector<double> scores;
  ldp::ScoresFromDistancesInto(distances, &scores);
  EXPECT_EQ(scores, ldp::ScoresFromDistances(distances));

  auto em = ldp::ExponentialMechanism::Create(4.0);
  ASSERT_TRUE(em.ok());
  std::vector<double> probs;
  ASSERT_TRUE(em->SelectionProbabilitiesInto(scores, &probs).ok());
  auto expect_probs = em->SelectionProbabilities(scores);
  ASSERT_TRUE(expect_probs.ok());
  EXPECT_EQ(probs, *expect_probs);

  // Same draws as the allocating Select for the same rng state.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng a(seed), b(seed);
    std::vector<double> scratch;
    auto lhs = em->Select(scores, &a);
    auto rhs = em->Select(scores, &b, &scratch);
    ASSERT_TRUE(lhs.ok());
    ASSERT_TRUE(rhs.ok());
    EXPECT_EQ(*lhs, *rhs) << seed;
  }
  EXPECT_FALSE(em->SelectionProbabilitiesInto({}, &probs).ok());
}

}  // namespace
}  // namespace privshape
