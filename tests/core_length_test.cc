/// Frequent-length estimation (§III-C-a, Eq. (1)) as the P_a round runs
/// it: each user answers the Length context through its own
/// ClientSession (AnswerRoundInProcess), the server takes the argmax of
/// the debiased counts (first maximum wins), and the round sequence
/// (RunRounds) rejects populations and ranges it cannot serve.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/privshape.h"
#include "core/rounds.h"

namespace privshape {
namespace {

std::vector<Sequence> MakeSequencesWithLengths(
    const std::vector<size_t>& lengths) {
  std::vector<Sequence> out;
  for (size_t len : lengths) {
    Sequence s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<Symbol>(i % 3));
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<size_t> AllUsers(size_t n) {
  std::vector<size_t> users(n);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

/// The P_a round over `population` plus the server's argmax.
Result<int> EstimateLength(const std::vector<Sequence>& sequences,
                           const std::vector<size_t>& population, int ell_low,
                           int ell_high, double epsilon, uint64_t seed) {
  auto ctx = proto::RoundContext::Length(ell_low, ell_high, epsilon);
  if (!ctx.ok()) return ctx.status();
  auto counts = core::AnswerRoundInProcess(*ctx, population, sequences,
                                           nullptr, seed);
  if (!counts.ok()) return counts.status();
  const std::vector<double>& estimates = (*counts)[0];
  size_t best = 0;
  for (size_t v = 1; v < estimates.size(); ++v) {
    if (estimates[v] > estimates[best]) best = v;
  }
  return ell_low + static_cast<int>(best);
}

TEST(LengthEstimationTest, RecoversDominantLengthAtModerateEps) {
  // 70% of users have length 5; the estimator should find it.
  std::vector<size_t> lengths;
  for (int i = 0; i < 700; ++i) lengths.push_back(5);
  for (int i = 0; i < 150; ++i) lengths.push_back(3);
  for (int i = 0; i < 150; ++i) lengths.push_back(8);
  auto sequences = MakeSequencesWithLengths(lengths);
  auto ell = EstimateLength(sequences, AllUsers(sequences.size()), 1, 10,
                            2.0, 91);
  ASSERT_TRUE(ell.ok());
  EXPECT_EQ(*ell, 5);
}

TEST(LengthEstimationTest, ClipsIntoRange) {
  // Every user has length 50 but the range caps at 10: the clipped value
  // 10 must win.
  std::vector<size_t> lengths(500, 50);
  auto sequences = MakeSequencesWithLengths(lengths);
  auto ell = EstimateLength(sequences, AllUsers(sequences.size()), 1, 10,
                            4.0, 92);
  ASSERT_TRUE(ell.ok());
  EXPECT_EQ(*ell, 10);
}

TEST(LengthEstimationTest, SingletonRangeShortCircuits) {
  // A one-value range needs no perturbation: every user reports the one
  // bucket and the estimate is that length.
  auto sequences = MakeSequencesWithLengths({3, 4, 5});
  auto ctx = proto::RoundContext::Length(7, 7, 1.0);
  ASSERT_TRUE(ctx.ok());
  auto counts =
      core::AnswerRoundInProcess(*ctx, AllUsers(3), sequences, nullptr, 93);
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts->size(), 1u);
  EXPECT_EQ((*counts)[0].size(), 1u);
  auto ell = EstimateLength(sequences, AllUsers(3), 7, 7, 1.0, 93);
  ASSERT_TRUE(ell.ok());
  EXPECT_EQ(*ell, 7);
}

TEST(LengthEstimationTest, RejectsEmptyPopulation) {
  // With no users there is no P_a population: the sequence stops before
  // asking anyone, and the mechanism rejects the empty dataset.
  core::MechanismConfig config;
  size_t rounds = 0;
  auto result = core::RunRounds(
      config, 0,
      [&](const core::RoundRequest&)
          -> Result<std::vector<std::vector<double>>> {
        ++rounds;
        return Status::Internal("not reached");
      });
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rounds, 0u);
  EXPECT_FALSE(core::PrivShape(config).Run({}).ok());
}

TEST(LengthEstimationTest, RejectsBadRange) {
  auto sequences = MakeSequencesWithLengths({3});
  EXPECT_FALSE(EstimateLength(sequences, AllUsers(1), 5, 4, 1.0, 95).ok());
  EXPECT_FALSE(EstimateLength(sequences, AllUsers(1), 0, 4, 1.0, 95).ok());
  core::MechanismConfig config;
  config.ell_low = 5;
  config.ell_high = 4;
  auto many = MakeSequencesWithLengths(std::vector<size_t>(200, 3));
  EXPECT_FALSE(core::PrivShape(config).Run(many).ok());
}

TEST(LengthEstimationTest, RejectsOutOfRangeUserIndex) {
  auto sequences = MakeSequencesWithLengths({3});
  EXPECT_FALSE(EstimateLength(sequences, {5}, 1, 10, 1.0, 96).ok());
}

TEST(LengthEstimationTest, HighEpsAlwaysRecoversUnanimousLength) {
  std::vector<size_t> lengths(200, 6);
  auto sequences = MakeSequencesWithLengths(lengths);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto ell = EstimateLength(sequences, AllUsers(sequences.size()), 1, 10,
                              8.0, seed);
    ASSERT_TRUE(ell.ok());
    EXPECT_EQ(*ell, 6);
  }
}

}  // namespace
}  // namespace privshape
