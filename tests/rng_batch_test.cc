// Regression tests pinning the batched-randomness canonical order.
// Since this PR, GRR consumes exactly two raw engine words per draw and
// unary encoding exactly one word per cell (threshold compares); every
// report path — in-process rounds and wire sessions — shares these
// implementations, so these tests are the contract that keeps the
// consumption order (and with it the byte-identical determinism matrix)
// from drifting.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "ldp/grr.h"
#include "ldp/unary_encoding.h"

namespace privshape {
namespace {

TEST(FillU64Test, MatchesStdMt19937_64Stream) {
  // Crossing the 156-output lazy prefix exercises both the lazy loop and
  // the materialized-engine bulk path.
  LazyMt64 lazy(123456789);
  std::mt19937_64 reference(123456789);
  std::vector<uint64_t> got(400);
  lazy.FillU64(got.data(), got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], reference()) << "output " << i;
  }
}

TEST(FillU64Test, ChunkedFillsEqualOneBigFill) {
  LazyMt64 a(42), b(42);
  std::vector<uint64_t> big(300), chunked(300);
  a.FillU64(big.data(), big.size());
  b.FillU64(chunked.data(), 7);
  b.FillU64(chunked.data() + 7, 150);  // crosses the lazy prefix mid-way
  b.FillU64(chunked.data() + 157, 143);
  EXPECT_EQ(big, chunked);
}

TEST(FillU64Test, InterleavesExactlyWithSingleDraws) {
  LazyMt64 a(7), b(7);
  std::vector<uint64_t> buf(5);
  a.FillU64(buf.data(), 5);
  uint64_t next_a = a();
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(buf[i], b());
  EXPECT_EQ(next_a, b());
}

// --- Lockstep seeding ---------------------------------------------------

/// Seeds `n` fresh engines in lockstep, then reads the first 400 outputs
/// of each (across the 156-output lazy prefix) through operator() for
/// even engines and through chunked FillU64 calls for odd ones, and
/// compares every output with std::mt19937_64 on the same seed.
void ExpectLockstepMatchesStd(size_t n) {
  std::vector<std::unique_ptr<LazyMt64>> engines;
  std::vector<LazyMt64*> ptrs;
  for (size_t i = 0; i < n; ++i) {
    engines.push_back(std::make_unique<LazyMt64>(DeriveSeed(99, i)));
    ptrs.push_back(engines.back().get());
  }
  ASSERT_TRUE(
      LazyMt64::SeedLockstep(n, [&](size_t i) { return ptrs[i]; }).ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FALSE(engines[i]->fresh()) << "engine " << i;
    std::mt19937_64 reference(DeriveSeed(99, i));
    std::vector<uint64_t> got(400);
    if (i % 2 == 0) {
      for (uint64_t& word : got) word = (*engines[i])();
    } else {
      // Chunks of 1, 7, 150 (crossing output 156 mid-call) and the rest.
      engines[i]->FillU64(got.data(), 1);
      engines[i]->FillU64(got.data() + 1, 7);
      engines[i]->FillU64(got.data() + 8, 150);
      engines[i]->FillU64(got.data() + 158, got.size() - 158);
    }
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], reference()) << "engine " << i << " output " << k;
    }
  }
}

TEST(LockstepSeedTest, MatchesStdMt19937_64ForEveryBlockSize) {
  for (size_t n : {0, 1, 7, 8, 9, 17}) {
    SCOPED_TRACE("block size " + std::to_string(n));
    ExpectLockstepMatchesStd(n);
  }
}

TEST(LockstepSeedTest, EngineThatDrewIsNeverReseeded) {
  LazyMt64 fresh_a(5), drawn(6), fresh_b(7);
  std::mt19937_64 reference(6);
  EXPECT_EQ(drawn(), reference());
  EXPECT_FALSE(drawn.fresh());
  LazyMt64* block[] = {&fresh_a, &drawn, &fresh_b};
  Status seeded =
      LazyMt64::SeedLockstep(3, [&](size_t i) { return block[i]; });
  EXPECT_EQ(seeded.code(), StatusCode::kFailedPrecondition);
  // Nothing in the block was touched: the fresh engines are still fresh
  // and the drawn one continues its own stream.
  EXPECT_TRUE(fresh_a.fresh());
  EXPECT_TRUE(fresh_b.fresh());
  for (int k = 0; k < 200; ++k) ASSERT_EQ(drawn(), reference()) << k;

  // An engine seeded once is not fresh either: a second pass fails.
  LazyMt64 once(8);
  auto only_once = [&](size_t) { return &once; };
  ASSERT_TRUE(LazyMt64::SeedLockstep(1, only_once).ok());
  EXPECT_EQ(LazyMt64::SeedLockstep(1, only_once).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LockstepSeedTest, RngAdapterSeedsWholeBlockOrNothing) {
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<Rng*> ptrs;
  for (size_t i = 0; i < LazyMt64::kLockstepLanes + 1; ++i) {
    rngs.push_back(std::make_unique<Rng>(DeriveSeed(3, i)));
    ptrs.push_back(rngs.back().get());
  }
  auto rng_at = [&](size_t i) { return ptrs[i]; };
  (void)rngs[5]->engine()();
  EXPECT_EQ(Rng::SeedLockstep(ptrs.size(), rng_at).code(),
            StatusCode::kFailedPrecondition);
  for (size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(rngs[i]->engine().fresh(), i != 5) << i;
  }
  ASSERT_TRUE(Rng::SeedLockstep(5, rng_at).ok());
  for (size_t i = 0; i < 5; ++i) {
    std::mt19937_64 reference(DeriveSeed(3, i));
    uint64_t word = 0;
    rngs[i]->FillU64(&word, 1);
    EXPECT_EQ(word, reference()) << i;
  }
}

TEST(ThresholdForProbabilityTest, EdgesAndMonotonicity) {
  EXPECT_EQ(ThresholdForProbability(0.0), 0u);
  EXPECT_EQ(ThresholdForProbability(-1.0), 0u);
  EXPECT_EQ(ThresholdForProbability(1.0), ~uint64_t{0});
  EXPECT_EQ(ThresholdForProbability(2.0), ~uint64_t{0});
  EXPECT_EQ(ThresholdForProbability(0.5), uint64_t{1} << 63);
  EXPECT_EQ(ThresholdForProbability(0.25), uint64_t{1} << 62);
  EXPECT_LT(ThresholdForProbability(0.3), ThresholdForProbability(0.31));
}

TEST(BoundedFromU64Test, StaysInRangeAndCoversIt) {
  for (uint64_t n : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    EXPECT_EQ(BoundedFromU64(0, n), 0u);
    EXPECT_EQ(BoundedFromU64(~uint64_t{0}, n), n - 1);
  }
  // Equal slices map to equal indices: the midpoint word of n = 2 flips.
  EXPECT_EQ(BoundedFromU64((uint64_t{1} << 63) - 1, 2), 0u);
  EXPECT_EQ(BoundedFromU64(uint64_t{1} << 63, 2), 1u);
}

TEST(LessThanU64Test, MatchesScalarCompareAtEveryOffset) {
  // Lengths around the vector width cover the SIMD body and scalar tail.
  Rng rng(99);
  for (size_t n = 0; n <= 19; ++n) {
    std::vector<uint64_t> in(n);
    rng.FillU64(in.data(), n);
    if (n > 2) in[1] = 0;  // plant exact edges
    if (n > 3) in[2] = ~uint64_t{0};
    uint64_t threshold = n % 2 == 0 ? ThresholdForProbability(0.5)
                                    : ThresholdForProbability(0.1);
    std::vector<uint8_t> got(n, 0xAA);
    simd::LessThanU64(in.data(), n, threshold, got.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], in[i] < threshold ? 1 : 0) << "n=" << n << " i=" << i;
    }
  }
}

TEST(GrrBatchTest, ConsumesExactlyTwoWordsPerDraw) {
  auto grr = ldp::Grr::Create(10, 1.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(2024);
  Rng reference(2024);
  uint64_t expected[2];
  reference.FillU64(expected, 2);
  size_t out = grr->PerturbValue(3, &rng);
  // Replay the canonical rule on the same two words.
  size_t want;
  if (expected[0] < ThresholdForProbability(grr->p())) {
    want = 3;
  } else {
    size_t r = static_cast<size_t>(BoundedFromU64(expected[1], 9));
    want = r >= 3 ? r + 1 : r;
  }
  EXPECT_EQ(out, want);
  // Both engines must now be in the same position: next draws agree.
  uint64_t a[1], b[1];
  rng.FillU64(a, 1);
  reference.FillU64(b, 1);
  EXPECT_EQ(a[0], b[0]);
}

TEST(GrrBatchTest, KeepRateTracksP) {
  auto grr = ldp::Grr::Create(4, 2.0);
  ASSERT_TRUE(grr.ok());
  Rng rng(555);
  int kept = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (grr->PerturbValue(2, &rng) == 2) ++kept;
  }
  // P[report = true value] = p + q (keep, or flip landing back is
  // impossible under GRR's flip-to-other rule, so just p).
  EXPECT_NEAR(static_cast<double>(kept) / kTrials, grr->p(), 0.01);
}

TEST(OueBatchTest, EncodeConsumesOneWordPerCell) {
  const size_t kCells = 13;
  auto oue = ldp::UnaryEncoding::Create(kCells, 1.5,
                                        ldp::UnaryEncoding::Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng rng(31337);
  Rng reference(31337);
  std::vector<uint64_t> expected(kCells);
  reference.FillU64(expected.data(), kCells);

  std::vector<uint64_t> words;
  std::vector<uint8_t> bits;
  const size_t kValue = 5;
  oue->EncodeInto(kValue, &rng, &words, &bits);
  ASSERT_EQ(bits.size(), kCells);
  ASSERT_EQ(words, expected);
  for (size_t i = 0; i < kCells; ++i) {
    double keep = i == kValue ? oue->p() : oue->q();
    EXPECT_EQ(bits[i], expected[i] < ThresholdForProbability(keep) ? 1 : 0)
        << "cell " << i;
  }
  // Engine position: exactly kCells words consumed.
  uint64_t a[1], b[1];
  rng.FillU64(a, 1);
  reference.FillU64(b, 1);
  EXPECT_EQ(a[0], b[0]);
}

TEST(OueBatchTest, PerturbValueDelegatesToEncodeInto) {
  auto oue = ldp::UnaryEncoding::Create(9, 0.8,
                                        ldp::UnaryEncoding::Variant::kOptimized);
  ASSERT_TRUE(oue.ok());
  Rng a(77), b(77);
  std::vector<uint8_t> from_perturb = oue->PerturbValue(4, &a);
  std::vector<uint64_t> words;
  std::vector<uint8_t> from_encode;
  oue->EncodeInto(4, &b, &words, &from_encode);
  EXPECT_EQ(from_perturb, from_encode);
}

}  // namespace
}  // namespace privshape
