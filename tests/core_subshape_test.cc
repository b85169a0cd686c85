/// The P_b round: the pair encoding (proto::PairToIndex / IndexToPair),
/// padding-and-sampling answers through each user's ClientSession
/// (AnswerRoundInProcess over the SubShape context), and the server's
/// per-level ranking (RankSubShapes).

#include "core/subshape.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "core/rounds.h"
#include "protocol/messages.h"

namespace privshape {
namespace {

using proto::IndexToPair;
using proto::PairToIndex;
using proto::SubShapeDomainSize;

TEST(PairIndexTest, DomainSizes) {
  EXPECT_EQ(SubShapeDomainSize(4, false), 4u * 3u + 1u);
  EXPECT_EQ(SubShapeDomainSize(4, true), 16u + 1u);
  EXPECT_EQ(SubShapeDomainSize(3, false), 7u);
}

// Property: PairToIndex / IndexToPair are mutually inverse bijections over
// the full valid domain, for both pair-domain variants.
class PairBijectionTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PairBijectionTest, RoundTripsEveryPair) {
  auto [t, allow_repeats] = GetParam();
  std::set<size_t> seen;
  for (int a = 0; a < t; ++a) {
    for (int b = 0; b < t; ++b) {
      if (!allow_repeats && a == b) continue;
      size_t idx = PairToIndex(static_cast<Symbol>(a),
                               static_cast<Symbol>(b), t, allow_repeats);
      EXPECT_LT(idx, SubShapeDomainSize(t, allow_repeats) - 1);
      EXPECT_TRUE(seen.insert(idx).second) << "collision at " << a << "," << b;
      auto [ra, rb] = IndexToPair(idx, t, allow_repeats);
      EXPECT_EQ(ra, a);
      EXPECT_EQ(rb, b);
    }
  }
  // The mapping is onto [0, pairs).
  EXPECT_EQ(seen.size(), SubShapeDomainSize(t, allow_repeats) - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Domains, PairBijectionTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8),
                       ::testing::Bool()));

std::vector<size_t> AllUsers(size_t n) {
  std::vector<size_t> users(n);
  std::iota(users.begin(), users.end(), 0);
  return users;
}

/// The P_b round over `population` plus the server's top-m ranking.
Result<core::SubShapeEstimates> SubShapeRound(
    const std::vector<Sequence>& sequences,
    const std::vector<size_t>& population, int ell_s, int t, size_t top_m,
    double epsilon, bool allow_repeats, uint64_t seed) {
  auto ctx = proto::RoundContext::SubShape(t, ell_s, epsilon, allow_repeats);
  if (!ctx.ok()) return ctx.status();
  auto counts = core::AnswerRoundInProcess(*ctx, population, sequences,
                                           nullptr, seed);
  if (!counts.ok()) return counts.status();
  return core::RankSubShapes(*counts, t, top_m, allow_repeats);
}

TEST(SubShapeTest, RecoversPlantedTransitions) {
  // Every user holds "abca" (t=3): level 1 pair (a,b), level 2 (b,c),
  // level 3 (c,a). With eps = 4 the top-1 pair per level must match.
  std::vector<Sequence> sequences(3000, Sequence{0, 1, 2, 0});
  auto est = SubShapeRound(sequences, AllUsers(sequences.size()),
                           /*ell_s=*/4, /*t=*/3, /*top_m=*/1,
                           /*epsilon=*/4.0, /*allow_repeats=*/false,
                           101);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->top_transitions.size(), 3u);
  EXPECT_EQ(est->top_transitions[0][0], (trie::Transition{0, 1}));
  EXPECT_EQ(est->top_transitions[1][0], (trie::Transition{1, 2}));
  EXPECT_EQ(est->top_transitions[2][0], (trie::Transition{2, 0}));
}

TEST(SubShapeTest, SingleLevelSequenceYieldsNoTransitions) {
  // ell_S = 1 has no adjacent pairs: there is no P_b round to run, and
  // the server ranks the empty count set into no transitions.
  EXPECT_EQ(proto::RoundContext::SubShape(3, 1, 1.0, false).status().code(),
            StatusCode::kFailedPrecondition);
  core::SubShapeEstimates est = core::RankSubShapes({}, 3, 2, false);
  EXPECT_TRUE(est.top_transitions.empty());
}

TEST(SubShapeTest, ShortSequencesReportPaddingSentinel) {
  // Users hold single-symbol words but ell_s = 4: all sampled pairs fall in
  // the padded region, so no real pair should dominate; the function must
  // still return top lists (noise only).
  std::vector<Sequence> sequences(2000, Sequence{0});
  auto est = SubShapeRound(sequences, AllUsers(sequences.size()), 4, 3,
                           2, 4.0, false, 103);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->counts.size(), 3u);
  // The sentinel bucket (last index) should hold nearly all the mass at
  // each level; real pairs stay near zero.
  for (const auto& level_counts : est->counts) {
    size_t sentinel = level_counts.size() - 1;
    double total_real = 0.0;
    for (size_t i = 0; i < sentinel; ++i) total_real += level_counts[i];
    EXPECT_GT(level_counts[sentinel], total_real);
  }
}

TEST(SubShapeTest, TopMRespectsRequestedCount) {
  std::vector<Sequence> sequences(1000, Sequence{0, 1, 0, 1});
  auto est = SubShapeRound(sequences, AllUsers(sequences.size()), 4, 4,
                           5, 2.0, false, 104);
  ASSERT_TRUE(est.ok());
  for (const auto& level : est->top_transitions) {
    EXPECT_EQ(level.size(), 5u);
  }
}

TEST(SubShapeTest, AllowRepeatsHandlesUncompressedWords) {
  // Raw SAX words with runs: (a,a) must be representable.
  std::vector<Sequence> sequences(2000, Sequence{0, 0, 1, 1});
  auto est = SubShapeRound(sequences, AllUsers(sequences.size()), 4, 2,
                           1, 4.0, true, 105);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->top_transitions[0][0], (trie::Transition{0, 0}));
  EXPECT_EQ(est->top_transitions[1][0], (trie::Transition{0, 1}));
  EXPECT_EQ(est->top_transitions[2][0], (trie::Transition{1, 1}));
}

TEST(SubShapeTest, RejectsInvalidInputs) {
  std::vector<Sequence> sequences(10, Sequence{0, 1});
  EXPECT_FALSE(
      SubShapeRound(sequences, AllUsers(10), 0, 3, 1, 1.0, false, 106)
          .ok());
  EXPECT_FALSE(
      SubShapeRound(sequences, {99}, 3, 3, 1, 1.0, false, 106).ok());
}

}  // namespace
}  // namespace privshape
