/// EM candidate selection (§III-C-2, Eq. (2)) as a P_c round answers it
/// — every user scores the broadcast candidates against their own word
/// and releases one index through the Exponential Mechanism
/// (AnswerRoundInProcess over the Selection context) — plus the scalar
/// matching references (MatchDistances*, ClosestCandidate) the SIMD
/// kernels are checked against.

#include "core/em_selection.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "common/rng.h"
#include "core/rounds.h"

namespace privshape {
namespace {

std::vector<size_t> AllUsers(size_t n) {
  std::vector<size_t> users(n);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

/// The selection counts of one P_c round (prefix matching, as every trie
/// level runs it).
Result<std::vector<double>> SelectionRound(
    const std::vector<Sequence>& candidates,
    const std::vector<Sequence>& sequences,
    const std::vector<size_t>& population, dist::Metric metric,
    double epsilon, uint64_t seed) {
  proto::CandidateRequest request;
  request.epsilon = epsilon;
  request.candidates = candidates;
  auto ctx = proto::RoundContext::Selection(std::move(request), metric);
  if (!ctx.ok()) return ctx.status();
  auto counts = core::AnswerRoundInProcess(*ctx, population, sequences,
                                           nullptr, seed);
  if (!counts.ok()) return counts.status();
  return std::move((*counts)[0]);
}

TEST(EmSelectionTest, CountsSumToPopulationSize) {
  std::vector<Sequence> candidates = {{0, 1}, {1, 2}, {2, 0}};
  std::vector<Sequence> sequences(50, Sequence{0, 1, 2});
  auto counts = SelectionRound(candidates, sequences, AllUsers(50),
                               dist::Metric::kSed, 2.0, 111);
  ASSERT_TRUE(counts.ok());
  double total = 0;
  for (double c : *counts) total += c;
  EXPECT_DOUBLE_EQ(total, 50.0);
}

TEST(EmSelectionTest, TrueCandidateDominatesAtHighEps) {
  std::vector<Sequence> candidates = {{0, 1}, {2, 3}, {3, 0}};
  std::vector<Sequence> sequences(400, Sequence{0, 1});
  auto counts = SelectionRound(candidates, sequences, AllUsers(400),
                               dist::Metric::kSed, 8.0, 112);
  ASSERT_TRUE(counts.ok());
  EXPECT_GT((*counts)[0], (*counts)[1]);
  EXPECT_GT((*counts)[0], (*counts)[2]);
  EXPECT_GT((*counts)[0], 300.0);
}

TEST(EmSelectionTest, LowEpsApproachesUniform) {
  std::vector<Sequence> candidates = {{0, 1}, {2, 3}};
  std::vector<Sequence> sequences(10000, Sequence{0, 1});
  auto counts = SelectionRound(candidates, sequences, AllUsers(10000),
                               dist::Metric::kSed, 0.01, 113);
  ASSERT_TRUE(counts.ok());
  // At eps ~ 0 both candidates are nearly equally likely.
  EXPECT_NEAR((*counts)[0] / 10000.0, 0.5, 0.03);
}

TEST(EmSelectionTest, PrefixCompareUsesUserPrefix) {
  // User sequence "abcd"; candidate "ab" matches its 2-prefix exactly, so
  // with prefix comparison candidate 0 dominates over "cd".
  std::vector<Sequence> candidates = {{0, 1}, {2, 3}};
  std::vector<Sequence> sequences(300, Sequence{0, 1, 2, 3});
  auto counts = SelectionRound(candidates, sequences, AllUsers(300),
                               dist::Metric::kSed, 6.0, 114);
  ASSERT_TRUE(counts.ok());
  EXPECT_GT((*counts)[0], (*counts)[1]);
}

TEST(EmSelectionTest, EmptyPopulationGivesZeroCounts) {
  std::vector<Sequence> candidates = {{0}, {1}};
  std::vector<Sequence> sequences(5, Sequence{0});
  auto counts = SelectionRound(candidates, sequences, {},
                               dist::Metric::kDtw, 1.0, 115);
  ASSERT_TRUE(counts.ok());
  EXPECT_DOUBLE_EQ((*counts)[0], 0.0);
  EXPECT_DOUBLE_EQ((*counts)[1], 0.0);
}

TEST(EmSelectionTest, RejectsEmptyCandidates) {
  std::vector<Sequence> sequences(5, Sequence{0});
  EXPECT_FALSE(SelectionRound({}, sequences, AllUsers(5),
                              dist::Metric::kSed, 1.0, 116)
                   .ok());
}

TEST(EmSelectionTest, RejectsBadUserIndex) {
  std::vector<Sequence> candidates = {{0}};
  std::vector<Sequence> sequences(5, Sequence{0});
  EXPECT_FALSE(SelectionRound(candidates, sequences, {77},
                              dist::Metric::kSed, 1.0, 117)
                   .ok());
}

std::vector<dist::Metric> AllMetrics() {
  return {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
          dist::Metric::kHausdorff};
}

Sequence RandomWord(Rng* rng, size_t max_len, int alphabet) {
  Sequence word;
  size_t len = 1 + rng->Index(max_len);
  for (size_t i = 0; i < len; ++i) {
    word.push_back(static_cast<Symbol>(rng->Index(alphabet)));
  }
  return word;
}

TEST(MatchDistancesTest, InPlaceVariantBitIdenticalWithReusedBuffers) {
  Rng rng(0x3a7c);
  dist::DtwScratch scratch;
  std::vector<double> out;  // deliberately reused across everything
  for (dist::Metric m : AllMetrics()) {
    auto distance = dist::MakeDistance(m);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Sequence> candidates;
      for (size_t c = 0; c < 1 + rng.Index(6); ++c) {
        candidates.push_back(RandomWord(&rng, 6, 4));
      }
      Sequence seq = RandomWord(&rng, 8, 4);
      for (bool prefix : {true, false}) {
        std::vector<double> expect =
            core::MatchDistances(seq, candidates, prefix, *distance);
        core::MatchDistancesInto(seq, candidates, prefix, *distance,
                                 &scratch, &out);
        // Bit-equal element-wise: the determinism contract needs the EM
        // scores (hence draws) identical on both paths.
        ASSERT_EQ(expect.size(), out.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(expect[i], out[i]) << dist::MetricName(m) << " cand "
                                       << i;
        }
      }
    }
  }
}

TEST(ClosestCandidateTest, EarlyAbandonAgreesWithExhaustiveArgmin) {
  Rng rng(0xc10c);
  dist::DtwScratch scratch;
  for (dist::Metric m : AllMetrics()) {
    auto distance = dist::MakeDistance(m);
    for (int trial = 0; trial < 150; ++trial) {
      std::vector<Sequence> candidates;
      for (size_t c = 0; c < 1 + rng.Index(8); ++c) {
        candidates.push_back(RandomWord(&rng, 6, 3));
      }
      Sequence seq = RandomWord(&rng, 7, 3);
      // Exhaustive reference: full distances, strict < updates.
      double best = std::numeric_limits<double>::infinity();
      size_t expect = 0;
      for (size_t i = 0; i < candidates.size(); ++i) {
        double d = distance->Distance(seq, candidates[i]);
        if (d < best) {
          best = d;
          expect = i;
        }
      }
      EXPECT_EQ(expect,
                core::ClosestCandidate(seq, candidates, *distance, &scratch))
          << dist::MetricName(m) << " trial " << trial;
      EXPECT_EQ(expect, core::ClosestCandidate(seq, candidates, *distance))
          << dist::MetricName(m);
    }
  }
}

TEST(ClosestCandidateTest, TiesBreakToFirstIndexUnderEarlyAbandon) {
  // Duplicate candidates (exact ties, distance 0 among them) and an
  // exact match later in the list: the FIRST zero-distance candidate
  // must win on every path.
  std::vector<Sequence> candidates = {{2, 2}, {0, 1}, {0, 1}, {0, 1}};
  Sequence seq = {0, 1};
  dist::DtwScratch scratch;
  for (dist::Metric m : AllMetrics()) {
    auto distance = dist::MakeDistance(m);
    EXPECT_EQ(core::ClosestCandidate(seq, candidates, *distance, &scratch),
              1u)
        << dist::MetricName(m);
  }
  // All candidates tie (all identical): index 0 wins.
  std::vector<Sequence> all_same(5, Sequence{1, 2, 1});
  for (dist::Metric m : AllMetrics()) {
    auto distance = dist::MakeDistance(m);
    EXPECT_EQ(
        core::ClosestCandidate({2, 0}, all_same, *distance, &scratch), 0u)
        << dist::MetricName(m);
  }
}

TEST(EmSelectionTest, WorksWithEveryMetric) {
  std::vector<Sequence> candidates = {{0, 1}, {1, 0}};
  std::vector<Sequence> sequences(20, Sequence{0, 1});
  for (dist::Metric m :
       {dist::Metric::kDtw, dist::Metric::kSed, dist::Metric::kEuclidean,
        dist::Metric::kHausdorff}) {
    auto counts = SelectionRound(candidates, sequences, AllUsers(20), m,
                                 2.0, 118);
    ASSERT_TRUE(counts.ok()) << dist::MetricName(m);
  }
}

}  // namespace
}  // namespace privshape
