/// Classification over the wire: the labeled-fleet collector path must be
/// byte-identical to core::PrivShapeLabeledShapes (same words, same
/// labels, same seed) across the determinism matrix — shard counts — and
/// the P_e protocol pieces must hold up under label errors and merge
/// partitioning.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/classification.h"
#include "core/em_selection.h"
#include "core/privshape.h"
#include "ldp/unary_encoding.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

namespace privshape {
namespace {

using collector::ClientFleet;
using collector::CollectorMetrics;
using collector::CollectorOptions;
using collector::RoundCoordinator;
using core::MechanismConfig;
using proto::ReportKind;

constexpr int kClasses = 3;

/// Planted labeled mixture: class 0 mostly "abc", class 1 mostly "cba",
/// class 2 mostly "bab" — with some cross-class noise so the OUE cells
/// are not trivially one-hot.
int PlantedLabel(size_t user) { return static_cast<int>(user % kClasses); }

Sequence PlantedWord(size_t user, uint64_t seed = 1) {
  Rng rng(DeriveSeed(seed, user));
  double noise = rng.Uniform();
  int cls = noise < 0.15 ? static_cast<int>(rng.Index(kClasses))
                         : PlantedLabel(user);
  if (cls == 0) return {0, 1, 2};
  if (cls == 1) return {2, 1, 0};
  return {1, 0, 1};
}

MechanismConfig TestConfig() {
  MechanismConfig config;
  config.epsilon = 6.0;
  config.t = 3;
  config.k = 2;
  config.c = 3;
  config.ell_low = 1;
  config.ell_high = 6;
  config.metric = dist::Metric::kSed;
  config.num_classes = kClasses;
  config.seed = 11;
  return config;
}

ClientFleet LabeledFleet(size_t n, const MechanismConfig& config) {
  return ClientFleet(
      n, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed, [](size_t user) { return PlantedLabel(user); });
}

void ExpectSameResult(const core::MechanismResult& a,
                      const core::MechanismResult& b) {
  EXPECT_EQ(a.frequent_length, b.frequent_length);
  ASSERT_EQ(a.shapes.size(), b.shapes.size());
  for (size_t i = 0; i < a.shapes.size(); ++i) {
    EXPECT_EQ(a.shapes[i].shape, b.shapes[i].shape);
    EXPECT_EQ(a.shapes[i].label, b.shapes[i].label);
    // Bit-exact: both paths share per-user seeds, integer bit tallies,
    // and the one OUE debias formula.
    EXPECT_EQ(a.shapes[i].frequency, b.shapes[i].frequency);
  }
  ASSERT_EQ(a.refined_pool.size(), b.refined_pool.size());
  for (size_t i = 0; i < a.refined_pool.size(); ++i) {
    EXPECT_EQ(a.refined_pool[i].shape, b.refined_pool[i].shape);
    EXPECT_EQ(a.refined_pool[i].label, b.refined_pool[i].label);
    EXPECT_EQ(a.refined_pool[i].frequency, b.refined_pool[i].frequency);
  }
  EXPECT_EQ(a.accountant.charges(), b.accountant.charges());
}

// --- The determinism contract, classification edition -------------------

TEST(CollectorClassificationTest, MatchesCoreAcrossDeterminismMatrix) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = LabeledFleet(kUsers, config);

  std::vector<Sequence> words = fleet.MaterializeWords();
  std::vector<int> labels = fleet.MaterializeLabels();
  ASSERT_EQ(labels.size(), kUsers);
  core::PrivShape reference(config);
  auto expected = reference.Run(words, &labels);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_FALSE(expected->shapes.empty());

  ThreadPool pool(4);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    CollectorOptions options;
    options.num_shards = shards;
    auto got = RoundCoordinator(config, options, &pool).Collect(fleet);
    ASSERT_TRUE(got.ok()) << got.status() << " shards=" << shards;
    ExpectSameResult(*expected, *got);
  }
}

TEST(CollectorClassificationTest, MatchesPrivShapeLabeledShapes) {
  // The public classification API and the collector agree shape-for-shape
  // (PrivShapeLabeledShapes is a projection of the same MechanismResult).
  MechanismConfig config = TestConfig();
  ClientFleet fleet = LabeledFleet(2500, config);
  std::vector<Sequence> words = fleet.MaterializeWords();
  std::vector<int> labels = fleet.MaterializeLabels();

  core::PrivShape mechanism(config);
  auto expected = core::PrivShapeLabeledShapes(mechanism, words, labels);
  ASSERT_TRUE(expected.ok()) << expected.status();

  ThreadPool pool(2);
  auto got = RoundCoordinator(config, {}, &pool).Collect(fleet);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->shapes.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(got->shapes[i].shape, (*expected)[i].shape);
    EXPECT_EQ(got->shapes[i].label, (*expected)[i].label);
  }
  // Every represented class contributes a criterion shape.
  for (const auto& shape : got->shapes) {
    EXPECT_GE(shape.label, 0);
    EXPECT_LT(shape.label, kClasses);
  }
}

TEST(CollectorClassificationTest, MetricsRecordThePeRound) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = LabeledFleet(2000, config);
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  CollectorMetrics metrics;
  auto result = coordinator.Collect(fleet, &metrics);
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_GE(metrics.rounds.size(), 3u);
  EXPECT_EQ(metrics.rounds.back().stage, "Pe");
  for (const auto& round : metrics.rounds) {
    EXPECT_EQ(round.rejected, 0u) << round.stage;
    EXPECT_EQ(round.client_errors, 0u) << round.stage;
    EXPECT_GT(round.bytes_down, 0u) << round.stage;
  }
  // An OUE bit-vector report is much larger than a varint report: the
  // P_e upstream bytes must dominate its user count.
  EXPECT_GT(metrics.rounds.back().bytes_up, metrics.rounds.back().users);
}

TEST(CollectorClassificationTest, MislabeledSessionsCountAsClientErrors) {
  // Labels outside [0, num_classes) must fail on the client — no report
  // leaves the device — and surface as client_errors, not as rejects or
  // as silently skewed estimates.
  MechanismConfig config = TestConfig();
  const size_t kUsers = 1500;
  ClientFleet fleet(
      kUsers, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed,
      [](size_t user) {
        return user % 10 == 3 ? kClasses + 7 : PlantedLabel(user);
      });
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  CollectorMetrics metrics;
  auto result = coordinator.Collect(fleet, &metrics);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& pe = metrics.rounds.back();
  ASSERT_EQ(pe.stage, "Pe");
  EXPECT_GT(pe.client_errors, 0u);
  EXPECT_EQ(pe.rejected, 0u);
  EXPECT_EQ(pe.accepted + pe.client_errors, pe.users);
}

// --- Protocol-level parity ----------------------------------------------

TEST(CollectorClassificationTest, AnswerBitsMatchUnaryEncodingOracle) {
  // One user's P_e report must contain exactly the bit vector the
  // in-process ldp::UnaryEncoding oracle would draw for the same cell
  // from the same seed — that is what makes the aggregate byte-identical.
  proto::ClassRefineRequest request;
  request.epsilon = 4.0;
  request.num_classes = kClasses;
  request.candidates = {{0, 1, 2}, {2, 1, 0}};
  auto ctx = proto::RoundContext::ClassRefinement(request, dist::Metric::kSed);
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  size_t cells = request.candidates.size() * kClasses;
  auto oue = ldp::UnaryEncoding::Create(
      cells, 4.0, ldp::UnaryEncoding::Variant::kOptimized);
  ASSERT_TRUE(oue.ok());

  proto::AnswerScratch scratch;
  for (uint64_t user = 0; user < 100; ++user) {
    Sequence word = PlantedWord(user);
    int label = PlantedLabel(user);
    proto::ClientSession session(word, DeriveSeed(5, user), label);
    proto::Report report;
    ASSERT_TRUE(
        session.AnswerClassRefinement(*ctx, &scratch, &report).ok());
    EXPECT_EQ(report.kind, ReportKind::kClassRefine);
    ASSERT_EQ(report.bits.size(), cells);

    // Reproduce the draw with the shared oracle from the same seed. The
    // argmin is deterministic, so only the Bernoulli stream matters.
    size_t pick = 0;
    {
      auto distance = dist::MakeDistance(dist::Metric::kSed);
      pick = core::ClosestCandidate(word, request.candidates, *distance,
                                    nullptr);
    }
    Rng rng(DeriveSeed(5, user));
    std::vector<uint8_t> want = oue->PerturbValue(
        pick * kClasses + static_cast<size_t>(label), &rng);
    EXPECT_EQ(report.bits, want) << "user " << user;
  }
}

TEST(CollectorClassificationTest, AggregatorMatchesOracleEstimates) {
  const double kEps = 3.0;
  const size_t kCells = 8;
  auto oue = ldp::UnaryEncoding::Create(
      kCells, kEps, ldp::UnaryEncoding::Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  proto::ReportAggregator agg(ReportKind::kClassRefine, kCells, kEps);

  for (uint64_t user = 0; user < 500; ++user) {
    Rng rng(DeriveSeed(21, user));
    std::vector<uint8_t> bits = oue->PerturbValue(user % kCells, &rng);
    ASSERT_TRUE(oue->SubmitBits(bits).ok());
    proto::Report report;
    report.kind = ReportKind::kClassRefine;
    report.bits = bits;
    agg.ConsumeReport(report);
  }
  EXPECT_EQ(agg.accepted(), 500u);
  EXPECT_EQ(agg.rejected(), 0u);
  // Byte-identical estimates, not just close ones.
  EXPECT_EQ(agg.EstimatedCounts(), oue->EstimateCounts());
}

TEST(CollectorClassificationTest, AggregatorMergePartitionInvariant) {
  const double kEps = 2.0;
  const size_t kCells = 6;
  auto make_report = [&](uint64_t user) {
    Rng rng(DeriveSeed(33, user));
    auto oue = ldp::UnaryEncoding::Create(
        kCells, kEps, ldp::UnaryEncoding::Variant::kOptimized);
    proto::Report report;
    report.kind = ReportKind::kClassRefine;
    report.bits = oue->PerturbValue(user % kCells, &rng);
    return report;
  };
  proto::ReportAggregator single(ReportKind::kClassRefine, kCells, kEps);
  proto::ReportAggregator left(ReportKind::kClassRefine, kCells, kEps);
  proto::ReportAggregator right(ReportKind::kClassRefine, kCells, kEps);
  for (uint64_t user = 0; user < 200; ++user) {
    proto::Report report = make_report(user);
    single.ConsumeReport(report);
    (user % 3 == 0 ? left : right).ConsumeReport(report);
  }
  ASSERT_TRUE(left.Merge(right).ok());
  EXPECT_EQ(left.accepted(), single.accepted());
  EXPECT_EQ(left.raw_counts(), single.raw_counts());
  EXPECT_EQ(left.EstimatedCounts(), single.EstimatedCounts());
}

TEST(CollectorClassificationTest, UnlabeledSessionFailsClassRefinement) {
  proto::ClassRefineRequest request;
  request.epsilon = 4.0;
  request.num_classes = 2;
  request.candidates = {{0, 1}, {1, 0}};
  auto ctx = proto::RoundContext::ClassRefinement(request, dist::Metric::kSed);
  ASSERT_TRUE(ctx.ok());
  proto::ClientSession unlabeled({0, 1}, 7);
  proto::Report report;
  auto st = unlabeled.AnswerClassRefinement(*ctx, nullptr, &report);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  proto::ClientSession mislabeled({0, 1}, 7, 2);
  EXPECT_EQ(mislabeled.AnswerClassRefinement(*ctx, nullptr, &report).code(),
            StatusCode::kFailedPrecondition);
}

// --- Label ingestion ----------------------------------------------------

TEST(LabelIngestTest, ParseLabelsCsvHappyPath) {
  auto labels = collector::ParseLabelsCsv("0\n1\n2\n1\n", 3);
  ASSERT_TRUE(labels.ok()) << labels.status();
  EXPECT_EQ(*labels, (std::vector<int>{0, 1, 2, 1}));
}

TEST(LabelIngestTest, ParseLabelsCsvRejectsBadInput) {
  // Out-of-range, negative, non-numeric, multi-column, and empty inputs
  // all fail with a clear status at ingest time.
  EXPECT_EQ(collector::ParseLabelsCsv("0\n3\n", 3).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(collector::ParseLabelsCsv("-1\n", 3).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(collector::ParseLabelsCsv("zero\n", 3).ok());
  EXPECT_FALSE(collector::ParseLabelsCsv("1,2\n", 3).ok());
  EXPECT_FALSE(collector::ParseLabelsCsv("", 3).ok());
  EXPECT_FALSE(collector::ParseLabelsCsv("1\n", 0).ok());
}

TEST(LabelIngestTest, GeneratedLabelSourceMatchesDatasetClasses) {
  auto labels = collector::GeneratedLabelSource("trace");
  ASSERT_TRUE(labels.ok());
  auto classes = collector::GeneratedNumClasses("trace");
  ASSERT_TRUE(classes.ok());
  EXPECT_EQ(*classes, 3);
  for (size_t user = 0; user < 12; ++user) {
    EXPECT_EQ((*labels)(user), static_cast<int>(user % 3));
  }
  EXPECT_FALSE(collector::GeneratedLabelSource("nope").ok());
}

TEST(LabelIngestTest, FromWordsTilesLabelsWithWords) {
  std::vector<Sequence> words = {{0, 1}, {1, 2}, {2, 0}};
  std::vector<int> labels = {0, 1, 2};
  ClientFleet fleet = ClientFleet::FromWords(words, 8, dist::Metric::kSed,
                                             3, labels);
  ASSERT_TRUE(fleet.labeled());
  for (size_t user = 0; user < 8; ++user) {
    EXPECT_EQ(fleet.WordFor(user), words[user % 3]);
    EXPECT_EQ(fleet.LabelFor(user), labels[user % 3]);
  }
  EXPECT_EQ(fleet.MaterializeLabels().size(), 8u);
  ClientFleet unlabeled = ClientFleet::FromWords(words, 8,
                                                 dist::Metric::kSed, 3);
  EXPECT_FALSE(unlabeled.labeled());
  EXPECT_EQ(unlabeled.LabelFor(0), -1);
  EXPECT_TRUE(unlabeled.MaterializeLabels().empty());
}

}  // namespace
}  // namespace privshape
