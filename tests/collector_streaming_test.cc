/// Failure modes and exactness of the streaming ingestion lanes and the
/// exact aggregator merge: client errors mid-stream, backpressure under
/// tiny queue depths, and the determinism contract (byte-identical shapes
/// AND exact accepted/rejected/bytes tallies) across
/// {queue depth} x {shard count} vs. an inline single-shard run and the
/// single-threaded core pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/round_coordinator.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/privshape.h"

namespace privshape {
namespace {

using collector::AnswerFn;
using collector::ClientFleet;
using collector::CollectorMetrics;
using collector::CollectorOptions;
using collector::RoundCoordinator;
using collector::StageSpec;
using core::MechanismConfig;

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

StageSpec LengthSpec(const MechanismConfig& config) {
  StageSpec spec;
  spec.kind = proto::ReportKind::kLength;
  spec.domain = static_cast<size_t>(config.ell_high - config.ell_low + 1);
  spec.epsilon = config.epsilon;
  return spec;
}

AnswerFn LengthAnswer(const MechanismConfig& config) {
  // One shared context for the whole round, as the coordinator builds it.
  auto built = proto::RoundContext::Length(config.ell_low, config.ell_high,
                                           config.epsilon);
  EXPECT_TRUE(built.ok()) << built.status();  // fail loudly on bad configs
  auto ctx = std::make_shared<proto::RoundContext>(std::move(*built));
  return [ctx](proto::ClientSession& session, size_t,
               proto::AnswerScratch& scratch, proto::ReportBatch& out) {
    return session.AnswerTo(*ctx, &scratch, &out);
  };
}

void ExpectSameResult(const core::MechanismResult& a,
                      const core::MechanismResult& b) {
  EXPECT_EQ(a.frequent_length, b.frequent_length);
  ASSERT_EQ(a.shapes.size(), b.shapes.size());
  for (size_t i = 0; i < a.shapes.size(); ++i) {
    EXPECT_EQ(a.shapes[i].shape, b.shapes[i].shape);
    EXPECT_EQ(a.shapes[i].frequency, b.shapes[i].frequency);
  }
}

// --- Failure modes ------------------------------------------------------

TEST(StreamingFailureTest, ClientErrorsMidStreamAreCountedNotIngested) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 2000;
  ClientFleet fleet = PlantedFleet(kUsers, config);
  ThreadPool pool(4);
  CollectorOptions options;
  options.num_shards = 8;
  options.batch_size = 16;
  options.queue_depth = 2;
  RoundCoordinator coordinator(config, options, &pool);

  std::vector<size_t> population(kUsers);
  std::iota(population.begin(), population.end(), size_t{0});
  AnswerFn healthy = LengthAnswer(config);
  // Every 7th user dies mid-round; its report must neither be ingested
  // nor wedge the pipeline.
  AnswerFn flaky = [&healthy](proto::ClientSession& session, size_t user,
                              proto::AnswerScratch& scratch,
                              proto::ReportBatch& out) {
    if (user % 7 == 3) {
      return Status::Internal("simulated client failure");
    }
    return healthy(session, user, scratch, out);
  };
  auto outcome =
      coordinator.RunRound(fleet, population, LengthSpec(config), flaky);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  size_t expected_errors = 0;
  for (size_t user = 0; user < kUsers; ++user) {
    if (user % 7 == 3) ++expected_errors;
  }
  EXPECT_EQ(outcome->client_errors, expected_errors);
  EXPECT_EQ(outcome->agg.accepted(), kUsers - expected_errors);
  EXPECT_EQ(outcome->agg.rejected(), 0u);
}

TEST(StreamingFailureTest, BackpressureNeverDropsOrDuplicatesReports) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = PlantedFleet(kUsers, config);
  std::vector<size_t> population(kUsers);
  std::iota(population.begin(), population.end(), size_t{0});
  StageSpec spec = LengthSpec(config);
  AnswerFn answer = LengthAnswer(config);

  // Reference: one lane, one drainer, every stripe answered inline on
  // the calling thread — no concurrency on the producing side.
  CollectorOptions single;
  single.num_shards = 1;
  auto expected = RoundCoordinator(config, single, nullptr)
                      .RunRound(fleet, population, spec, answer);
  ASSERT_TRUE(expected.ok()) << expected.status();

  // Hostile config: many producers per drainer queue, depth-1 queues,
  // batch size 1 — every Push can block.
  ThreadPool pool(4);
  CollectorOptions hostile;
  hostile.num_shards = 32;
  hostile.batch_size = 1;
  hostile.queue_depth = 1;
  auto streamed = RoundCoordinator(config, hostile, &pool)
                      .RunRound(fleet, population, spec, answer);
  ASSERT_TRUE(streamed.ok()) << streamed.status();

  EXPECT_EQ(streamed->agg.accepted(), expected->agg.accepted());
  EXPECT_EQ(streamed->agg.rejected(), expected->agg.rejected());
  EXPECT_EQ(streamed->agg.bytes_ingested(), expected->agg.bytes_ingested());
  EXPECT_EQ(streamed->client_errors, expected->client_errors);
  // Not just totals: the merged per-value counts are identical.
  EXPECT_EQ(streamed->agg.MergedLevel(0).raw_counts(),
            expected->agg.MergedLevel(0).raw_counts());
}

// --- Block answering: stripes that are not multiples of the block -------

/// Labeled planted fleet where every 11th user is unlabeled, so its P_e
/// session fails on the device (a client error, never a report).
ClientFleet GappyLabeledFleet(size_t n, const MechanismConfig& config) {
  return ClientFleet(
      n, [](size_t user) { return PlantedWord(user); }, config.metric,
      config.seed, [](size_t user) {
        return user % 11 == 5 ? -1 : static_cast<int>(user % 3);
      });
}

TEST(StreamingFailureTest, OddStripesKeepExactTalliesForEveryWordRound) {
  MechanismConfig config = TestConfig();
  const std::vector<Sequence> candidates = {
      {0, 1, 2}, {2, 1, 0}, {1, 0, 1}, {1, 1}};
  std::vector<std::pair<StageSpec, std::shared_ptr<proto::RoundContext>>>
      rounds;
  {
    proto::CandidateRequest request;
    request.level = 1;
    request.epsilon = config.epsilon;
    request.candidates = candidates;
    auto ctx = proto::RoundContext::Selection(request, config.metric);
    ASSERT_TRUE(ctx.ok());
    StageSpec spec;
    spec.kind = proto::ReportKind::kSelection;
    spec.domain = candidates.size();
    spec.epsilon = config.epsilon;
    spec.min_level = 1;
    rounds.emplace_back(
        spec, std::make_shared<proto::RoundContext>(std::move(*ctx)));
    auto refine = proto::RoundContext::Refinement(request, config.metric);
    ASSERT_TRUE(refine.ok());
    spec.kind = proto::ReportKind::kRefinement;
    spec.min_level = 0;
    rounds.emplace_back(
        spec, std::make_shared<proto::RoundContext>(std::move(*refine)));
    proto::ClassRefineRequest classes;
    classes.epsilon = config.epsilon;
    classes.num_classes = 3;
    classes.candidates = candidates;
    auto cls = proto::RoundContext::ClassRefinement(classes, config.metric);
    ASSERT_TRUE(cls.ok());
    spec.kind = proto::ReportKind::kClassRefine;
    spec.domain = cls->cells();
    rounds.emplace_back(
        spec, std::make_shared<proto::RoundContext>(std::move(*cls)));
  }

  const size_t kShards = 3;
  ThreadPool pool(3);
  for (size_t stripe : {size_t{1}, size_t{9}, size_t{17}}) {
    // Spread-out user ids, so a block's sessions are not consecutive.
    std::vector<size_t> population(stripe * kShards);
    for (size_t i = 0; i < population.size(); ++i) population[i] = 5 * i + 1;
    ClientFleet fleet = GappyLabeledFleet(5 * population.size() + 1, config);
    for (const auto& [spec, ctx] : rounds) {
      SCOPED_TRACE("stripe=" + std::to_string(stripe) +
                   " kind=" + std::to_string(static_cast<int>(spec.kind)));
      // The existing mid-stream injection: every 7th user dies before
      // answering.
      AnswerFn flaky = [round_ctx = ctx](proto::ClientSession& session,
                                         size_t user,
                                         proto::AnswerScratch& scratch,
                                         proto::ReportBatch& out) {
        if (user % 7 == 3) return Status::Internal("simulated failure");
        return session.AnswerTo(*round_ctx, &scratch, &out);
      };
      // Reference: one MakeSession and a fresh scratch per user.
      proto::ReportAggregator want(spec.kind, spec.domain, spec.epsilon);
      size_t want_errors = 0;
      size_t want_distinct = 0;
      for (size_t shard = 0; shard < kShards; ++shard) {
        std::vector<Sequence> seen;
        for (size_t i = stripe * shard; i < stripe * (shard + 1); ++i) {
          size_t user = population[i];
          proto::ClientSession session = fleet.MakeSession(user);
          proto::AnswerScratch fresh;
          proto::ReportBatch batch;
          if (user % 7 == 3) {
            ++want_errors;
            continue;
          }
          bool unlabeled = session.label() < 0 &&
                           spec.kind == proto::ReportKind::kClassRefine;
          Sequence word = fleet.WordFor(user);
          if (!unlabeled &&
              std::find(seen.begin(), seen.end(), word) == seen.end()) {
            seen.push_back(word);
          }
          if (!session.AnswerTo(*ctx, &fresh, &batch).ok()) {
            ++want_errors;
            continue;
          }
          want.Consume(batch.view(0));
        }
        want_distinct += seen.size();
      }
      // Stripes answered inline on the calling thread, and on the pool.
      for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
        CollectorOptions options;
        options.num_shards = kShards;
        options.batch_size = 4;
        auto got = RoundCoordinator(config, options, workers)
                       .RunRound(fleet, population, spec, flaky);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got->client_errors, want_errors);
        EXPECT_EQ(got->agg.accepted(), want.accepted());
        EXPECT_EQ(got->agg.rejected(), 0u);
        EXPECT_EQ(got->agg.MergedLevel(0).raw_counts(), want.raw_counts());
        EXPECT_EQ(got->distinct_words, want_distinct);
      }
    }
  }
}

// --- Determinism contract: queue depth x shard count --------------------

TEST(StreamingDeterminismTest, QueueDepthsAndShardCountsAreExact) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 3000;
  ClientFleet fleet = PlantedFleet(kUsers, config);

  core::PrivShape reference(config);
  auto expected = reference.Run(fleet.MaterializeWords());
  ASSERT_TRUE(expected.ok()) << expected.status();

  // The tallies baseline: one lane, one drainer, stripes answered inline.
  CollectorOptions single_options;
  single_options.num_shards = 1;
  CollectorMetrics single_metrics;
  auto single = RoundCoordinator(config, single_options, nullptr)
                    .Collect(fleet, &single_metrics);
  ASSERT_TRUE(single.ok()) << single.status();
  ExpectSameResult(*expected, *single);

  ThreadPool pool(4);
  // Queue depths {1, 8, 0 = unbounded} x shards {1, 4, 16}.
  for (size_t depth : {size_t{1}, size_t{8}, size_t{0}}) {
    for (size_t shards : {size_t{1}, size_t{4}, size_t{16}}) {
      CollectorOptions options;
      options.num_shards = shards;
      options.queue_depth = depth;
      options.batch_size = 64;
      CollectorMetrics metrics;
      auto got =
          RoundCoordinator(config, options, &pool).Collect(fleet, &metrics);
      ASSERT_TRUE(got.ok())
          << got.status() << " depth=" << depth << " shards=" << shards;
      ExpectSameResult(*expected, *got);

      // Exact round-by-round tallies vs. the single-lane run: same
      // stages, same accepted/rejected/bytes per stage — lanes, queues
      // and threads change scheduling, never counts.
      ASSERT_EQ(metrics.rounds.size(), single_metrics.rounds.size());
      for (size_t r = 0; r < metrics.rounds.size(); ++r) {
        const auto& got_round = metrics.rounds[r];
        const auto& want_round = single_metrics.rounds[r];
        EXPECT_EQ(got_round.stage, want_round.stage);
        EXPECT_EQ(got_round.users, want_round.users) << got_round.stage;
        EXPECT_EQ(got_round.accepted, want_round.accepted)
            << got_round.stage;
        EXPECT_EQ(got_round.rejected, want_round.rejected)
            << got_round.stage;
        EXPECT_EQ(got_round.client_errors, want_round.client_errors)
            << got_round.stage;
        EXPECT_EQ(got_round.bytes_up, want_round.bytes_up)
            << got_round.stage;
      }
      EXPECT_EQ(metrics.num_shards, shards);
      EXPECT_EQ(metrics.ingest, "streaming");
    }
  }
}

TEST(StreamingDeterminismTest, InlineExecutionStillStreams) {
  // pool == nullptr: producers run on the calling thread, drainers are
  // still real threads — results stay identical.
  MechanismConfig config = TestConfig();
  ClientFleet fleet = PlantedFleet(1500, config);
  CollectorOptions options;
  options.num_shards = 4;
  options.queue_depth = 1;
  auto inline_run =
      RoundCoordinator(config, options, nullptr).Collect(fleet);
  ASSERT_TRUE(inline_run.ok()) << inline_run.status();
  ThreadPool pool(8);
  auto pooled = RoundCoordinator(config, options, &pool).Collect(fleet);
  ASSERT_TRUE(pooled.ok()) << pooled.status();
  ExpectSameResult(*inline_run, *pooled);
}

// --- Exact aggregator merge ---------------------------------------------
//
// ShardedAggregator::Merge is the exact-merge primitive a multi-site
// deployment would fold its sites' rounds with.

TEST(MultiCollectorTest, MergedAggregatorEqualsSingleSite) {
  MechanismConfig config = TestConfig();
  const size_t kUsers = 2000;
  ClientFleet fleet = PlantedFleet(kUsers, config);
  std::vector<size_t> population(kUsers);
  std::iota(population.begin(), population.end(), size_t{0});
  StageSpec spec = LengthSpec(config);
  AnswerFn answer = LengthAnswer(config);
  ThreadPool pool(4);

  CollectorOptions options;
  options.num_shards = 4;
  RoundCoordinator site(config, options, &pool);
  auto whole = site.RunRound(fleet, population, spec, answer);
  ASSERT_TRUE(whole.ok()) << whole.status();

  // Split the population across 3 rounds with different shard counts,
  // then merge: identical counts.
  std::vector<size_t> slice_a(population.begin(), population.begin() + 700);
  std::vector<size_t> slice_b(population.begin() + 700,
                              population.begin() + 1500);
  std::vector<size_t> slice_c(population.begin() + 1500, population.end());
  CollectorOptions other;
  other.num_shards = 7;
  auto a = site.RunRound(fleet, slice_a, spec, answer);
  auto b = RoundCoordinator(config, other, &pool)
               .RunRound(fleet, slice_b, spec, answer);
  auto c = site.RunRound(fleet, slice_c, spec, answer);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(a->agg.Merge(b->agg).ok());
  ASSERT_TRUE(a->agg.Merge(c->agg).ok());

  EXPECT_EQ(a->agg.accepted(), whole->agg.accepted());
  EXPECT_EQ(a->agg.rejected(), whole->agg.rejected());
  EXPECT_EQ(a->agg.bytes_ingested(), whole->agg.bytes_ingested());
  EXPECT_EQ(a->agg.MergedLevel(0).raw_counts(),
            whole->agg.MergedLevel(0).raw_counts());
  EXPECT_EQ(a->agg.DebiasedCounts(0), whole->agg.DebiasedCounts(0));
}

TEST(MultiCollectorTest, MergeRejectsMismatchedStages) {
  StageSpec length;
  length.kind = proto::ReportKind::kLength;
  length.domain = 5;
  length.epsilon = 2.0;
  StageSpec other = length;
  other.domain = 6;
  collector::ShardedAggregator a(length, 2);
  collector::ShardedAggregator b(other, 2);
  EXPECT_FALSE(a.Merge(b).ok());
  collector::ShardedAggregator c(length, 3);
  EXPECT_TRUE(a.Merge(c).ok());
}

}  // namespace
}  // namespace privshape
