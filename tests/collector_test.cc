#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "collector/sharded_aggregator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/privshape.h"
#include "protocol/messages.h"

namespace privshape {
namespace {

using collector::ClientFleet;
using collector::CollectorMetrics;
using collector::CollectorOptions;
using collector::RoundCoordinator;
using collector::ShardedAggregator;
using collector::StageSpec;
using core::MechanismConfig;
using proto::Report;
using proto::ReportKind;

/// Same planted mixture as the core PrivShape tests: 60% "abc",
/// 30% "cba", 10% "bab".
Sequence PlantedWord(size_t user, uint64_t seed = 1) {
  Rng rng(DeriveSeed(seed, user));
  double u = rng.Uniform();
  if (u < 0.6) return {0, 1, 2};
  if (u < 0.9) return {2, 1, 0};
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
  config.seed = 7;
  return config;
}

ClientFleet PlantedFleet(size_t n, const MechanismConfig& config) {
  return ClientFleet(
      n, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed);
}

void ExpectSameResult(const core::MechanismResult& a,
                      const core::MechanismResult& b) {
  EXPECT_EQ(a.frequent_length, b.frequent_length);
  ASSERT_EQ(a.shapes.size(), b.shapes.size());
  for (size_t i = 0; i < a.shapes.size(); ++i) {
    EXPECT_EQ(a.shapes[i].shape, b.shapes[i].shape);
    // Bit-exact: both paths share per-user seeds, integer aggregation,
    // and the debias formula.
    EXPECT_EQ(a.shapes[i].frequency, b.shapes[i].frequency);
  }
  ASSERT_EQ(a.refined_pool.size(), b.refined_pool.size());
  for (size_t i = 0; i < a.refined_pool.size(); ++i) {
    EXPECT_EQ(a.refined_pool[i].shape, b.refined_pool[i].shape);
    EXPECT_EQ(a.refined_pool[i].frequency, b.refined_pool[i].frequency);
  }
  EXPECT_EQ(a.accountant.charges(), b.accountant.charges());
}

// --- The determinism contract -------------------------------------------

TEST(CollectorDeterminismTest, MatchesCorePipelineForAnyShardCount) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = PlantedFleet(kUsers, config);

  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  ASSERT_TRUE(expected.ok()) << expected.status();

  ThreadPool pool(4);
  for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
    CollectorOptions options;
    options.num_shards = shards;
    RoundCoordinator coordinator(config, options, &pool);
    auto got = coordinator.Collect(fleet);
    ASSERT_TRUE(got.ok()) << got.status() << " shards=" << shards;
    ExpectSameResult(*expected, *got);
  }
}

TEST(CollectorDeterminismTest, IndependentOfThreadCountAndBatchSize) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(2000, config);

  ThreadPool one(1);
  CollectorOptions options;
  options.num_shards = 8;
  options.batch_size = 1;
  auto a = RoundCoordinator(config, options, &one).Collect(fleet);
  ASSERT_TRUE(a.ok()) << a.status();

  ThreadPool many(8);
  options.batch_size = 1024;
  auto b = RoundCoordinator(config, options, &many).Collect(fleet);
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectSameResult(*a, *b);

  // No pool at all (inline execution) is also identical.
  auto c = RoundCoordinator(config, options, nullptr).Collect(fleet);
  ASSERT_TRUE(c.ok()) << c.status();
  ExpectSameResult(*a, *c);
}

TEST(CollectorDeterminismTest, RecoversPlantedShape) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(6000, config);
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  auto result = coordinator.Collect(fleet);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->frequent_length, 3);
  ASSERT_GE(result->shapes.size(), 1u);
  EXPECT_EQ(SequenceToString(result->shapes[0].shape), "abc");
}

// --- Coordinator behavior -----------------------------------------------

TEST(RoundCoordinatorTest, EmptyFleetFails) {
  ThreadPool pool(1);
  RoundCoordinator coordinator(TestConfig(), {}, &pool);
  ClientFleet fleet(0, [](size_t) { return Sequence{0}; },
                    dist::Metric::kSed, 1);
  EXPECT_FALSE(coordinator.Collect(fleet).ok());
}

TEST(RoundCoordinatorTest, ClassificationRequiresLabeledFleet) {
  MechanismConfig config = TestConfig();
  config.num_classes = 2;
  ThreadPool pool(1);
  RoundCoordinator coordinator(config, {}, &pool);
  ClientFleet fleet = PlantedFleet(100, config);  // no LabelFn
  auto result = coordinator.Collect(fleet);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RoundCoordinatorTest, MetricsCoverEveryRound) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(2000, config);
  ThreadPool pool(2);
  RoundCoordinator coordinator(config, {}, &pool);
  CollectorMetrics metrics;
  auto result = coordinator.Collect(fleet, &metrics);
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_GE(metrics.rounds.size(), 3u);
  EXPECT_EQ(metrics.rounds.front().stage, "Pa");
  EXPECT_EQ(metrics.rounds.back().stage, "Pd");
  size_t users_covered = 0;
  for (const auto& round : metrics.rounds) {
    EXPECT_EQ(round.rejected, 0u) << round.stage;
    EXPECT_EQ(round.client_errors, 0u) << round.stage;
    EXPECT_EQ(round.accepted, round.users) << round.stage;
    EXPECT_GT(round.bytes_up, 0u) << round.stage;
    // Every stage broadcasts a real encoded request — P_a and P_b used to
    // report bytes_down = 0 because theirs were never encoded.
    EXPECT_GT(round.bytes_down, 0u) << round.stage;
    EXPECT_GE(round.bytes_down, round.users) << round.stage;
    users_covered += round.users;
  }
  // Every user answers exactly one round (parallel composition).
  EXPECT_EQ(users_covered, metrics.num_users);
  EXPECT_EQ(metrics.TotalReports(), metrics.num_users);
  EXPECT_EQ(metrics.TotalRejected(), 0u);

  std::string json = metrics.ToJson().Dump(2);
  EXPECT_NE(json.find("\"stage\": \"Pa\""), std::string::npos);
  // Throughput is labeled honestly: ingest capacity vs useful work.
  EXPECT_NE(json.find("ingested_per_sec"), std::string::npos);
  EXPECT_NE(json.find("accepted_per_sec"), std::string::npos);
  EXPECT_EQ(json.find("reports_per_sec"), std::string::npos);
}

// --- ClientFleet --------------------------------------------------------

TEST(ClientFleetTest, SessionsAreReproducible) {
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(50, config);
  auto ctx = proto::RoundContext::Length(1, 6, 4.0);
  ASSERT_TRUE(ctx.ok());
  for (size_t user : {size_t{0}, size_t{7}, size_t{49}}) {
    proto::ReportBatch a, b;
    ASSERT_TRUE(fleet.MakeSession(user).AnswerTo(*ctx, nullptr, &a).ok());
    ASSERT_TRUE(fleet.MakeSession(user).AnswerTo(*ctx, nullptr, &b).ok());
    EXPECT_EQ(a.view(0), b.view(0)) << "user " << user;
  }
}

TEST(ClientFleetTest, FromWordsTilesTheList) {
  std::vector<Sequence> words = {{0, 1}, {1, 2}};
  ClientFleet fleet =
      ClientFleet::FromWords(words, 5, dist::Metric::kSed, 3);
  EXPECT_EQ(fleet.num_users(), 5u);
  EXPECT_EQ(fleet.WordFor(0), (Sequence{0, 1}));
  EXPECT_EQ(fleet.WordFor(1), (Sequence{1, 2}));
  EXPECT_EQ(fleet.WordFor(4), (Sequence{0, 1}));
  EXPECT_EQ(fleet.MaterializeWords().size(), 5u);
}

// --- ShardedAggregator --------------------------------------------------

StageSpec LengthSpec(size_t domain = 5, double epsilon = 2.0) {
  StageSpec spec;
  spec.kind = ReportKind::kLength;
  spec.domain = domain;
  spec.epsilon = epsilon;
  return spec;
}

Report LengthReport(uint64_t value) {
  Report report;
  report.kind = ReportKind::kLength;
  report.value = value;
  return report;
}

TEST(ShardedAggregatorTest, MergeIsExactAcrossAnyPartition) {
  proto::ReportBatch reports;
  for (uint64_t v = 0; v < 100; ++v) reports.Append(LengthReport(v % 5));

  ShardedAggregator single(LengthSpec(), 1);
  single.ConsumeBatch(0, reports);

  ShardedAggregator sharded(LengthSpec(), 7);
  // Deal the same reports round-robin across 7 shards in batches of 3.
  for (size_t shard = 0; shard < 7; ++shard) {
    proto::ReportBatch batch;
    for (size_t i = shard; i < reports.size(); i += 7) {
      batch.AppendEncoded(reports.view(i));
      if (batch.size() == 3) {
        sharded.ConsumeBatch(shard, batch);
        batch.Clear();
      }
    }
    if (!batch.empty()) sharded.ConsumeBatch(shard, batch);
  }

  EXPECT_EQ(single.accepted(), sharded.accepted());
  EXPECT_EQ(single.MergedLevel(0).raw_counts(),
            sharded.MergedLevel(0).raw_counts());
  // Debiased estimates are byte-identical, not just close.
  EXPECT_EQ(single.DebiasedCounts(0), sharded.DebiasedCounts(0));
}

TEST(ShardedAggregatorTest, RejectsMalformedAndOutOfWindow) {
  ShardedAggregator agg(LengthSpec(), 2);
  Report wrong_kind;
  wrong_kind.kind = ReportKind::kSelection;
  Report bad_level;
  bad_level.kind = ReportKind::kLength;
  bad_level.level = 3;  // window is [0, 1)
  proto::ReportBatch batch;
  batch.Append(LengthReport(2));
  batch.AppendEncoded("garbage");
  batch.Append(wrong_kind);
  batch.Append(bad_level);
  batch.Append(LengthReport(99));  // 99 out of domain
  agg.ConsumeBatch(1, batch);
  EXPECT_EQ(agg.accepted(), 1u);
  EXPECT_EQ(agg.rejected(), 4u);
  EXPECT_GT(agg.bytes_ingested(), 0u);
}

TEST(ShardedAggregatorTest, RoutesLevelsWithinWindow) {
  StageSpec spec;
  spec.kind = ReportKind::kSubShape;
  spec.domain = 7;
  spec.epsilon = 1.0;
  spec.min_level = 1;
  spec.num_levels = 3;
  ShardedAggregator agg(spec, 2);
  proto::ReportBatch batch;
  for (uint64_t level = 1; level <= 3; ++level) {
    Report report;
    report.kind = ReportKind::kSubShape;
    report.level = level;
    report.value = level;  // distinct value per level
    batch.Append(report);
  }
  agg.ConsumeBatch(0, batch);
  for (size_t bucket = 0; bucket < 3; ++bucket) {
    auto merged = agg.MergedLevel(bucket);
    EXPECT_EQ(merged.accepted(), 1u) << bucket;
    EXPECT_EQ(merged.raw_counts()[bucket + 1], 1u) << bucket;
  }
}

}  // namespace
}  // namespace privshape
