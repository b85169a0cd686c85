/// The per-word answer memo (proto::AnswerMemo inside AnswerScratch): a
/// scratch reused across users, rounds and more distinct words than the
/// memo's cap must emit exactly the reports a fresh scratch per user
/// emits, and the memo's memory must stay within its constant bound.

#include <gtest/gtest.h>

#include <memory>
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

using proto::AnswerMemo;
using proto::AnswerScratch;
using proto::CandidateRequest;
using proto::ClassRefineRequest;
using proto::ClientSession;
using proto::ReportBatch;
using proto::RoundContext;

constexpr int kClasses = 3;

/// A population that repeats a handful of words, as SAX words do.
Sequence RepeatedWord(uint64_t user) {
  static const std::vector<Sequence> kPool = {
      {0, 1, 2}, {2, 1, 0}, {0, 1, 2, 3}, {1, 1}, {3, 2, 1, 0, 1}, {2}};
  return kPool[DeriveSeed(11, user) % kPool.size()];
}

/// Word u of a population of pairwise distinct words (base-4 digits of u,
/// so no two users share a word).
Sequence DistinctWord(uint64_t user) {
  Sequence word;
  uint64_t v = user;
  do {
    word.push_back(static_cast<Symbol>(v % 4));
    v /= 4;
  } while (v > 0);
  word.push_back(3);  // keeps leading zeros significant
  return word;
}

ClientSession SessionFor(const Sequence& word, uint64_t user, int label) {
  return ClientSession(word, DeriveSeed(7, user), label);
}

std::vector<Sequence> Candidates() {
  return {{0, 1, 2}, {2, 1, 0}, {1, 1}, {3, 0, 2, 1}, {1, 2, 3}};
}

RoundContext SelectionContext(std::vector<Sequence> candidates) {
  CandidateRequest request;
  request.level = 1;
  request.epsilon = 3.0;
  request.candidates = std::move(candidates);
  auto ctx = RoundContext::Selection(std::move(request), dist::Metric::kSed);
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  return std::move(*ctx);
}

RoundContext RefinementContext(std::vector<Sequence> candidates) {
  CandidateRequest request;
  request.epsilon = 3.0;
  request.candidates = std::move(candidates);
  auto ctx =
      RoundContext::Refinement(std::move(request), dist::Metric::kSed);
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  return std::move(*ctx);
}

RoundContext ClassContext(std::vector<Sequence> candidates) {
  ClassRefineRequest request;
  request.epsilon = 3.0;
  request.num_classes = kClasses;
  request.candidates = std::move(candidates);
  auto ctx =
      RoundContext::ClassRefinement(std::move(request), dist::Metric::kSed);
  EXPECT_TRUE(ctx.ok()) << ctx.status();
  return std::move(*ctx);
}

/// User u's encoded report against `ctx` through `scratch`, or the error
/// status text when the session fails to answer.
std::string Answer(const RoundContext& ctx, const Sequence& word,
                   uint64_t user, int label, AnswerScratch* scratch) {
  ClientSession session = SessionFor(word, user, label);
  ReportBatch batch;
  Status st = session.AnswerTo(ctx, scratch, &batch);
  if (!st.ok()) return "error: " + st.ToString();
  return std::string(batch.view(0));
}

/// Reused scratch vs a fresh scratch per user, over `users` users.
void ExpectReuseMatchesFresh(const RoundContext& ctx,
                             Sequence (*word_of)(uint64_t), uint64_t users,
                             AnswerScratch* reused) {
  for (uint64_t user = 0; user < users; ++user) {
    Sequence word = word_of(user);
    int label = static_cast<int>(user % kClasses);
    AnswerScratch fresh;
    ASSERT_EQ(Answer(ctx, word, user, label, reused),
              Answer(ctx, word, user, label, &fresh))
        << "user " << user;
  }
}

TEST(AnswerMemoTest, ReusedScratchMatchesFreshScratchPerUser) {
  const uint64_t kUsers = 600;
  RoundContext selection = SelectionContext(Candidates());
  RoundContext refinement = RefinementContext(Candidates());
  RoundContext classes = ClassContext(Candidates());
  for (const RoundContext* ctx : {&selection, &refinement, &classes}) {
    SCOPED_TRACE(static_cast<int>(ctx->kind()));
    AnswerScratch scratch;
    ExpectReuseMatchesFresh(*ctx, RepeatedWord, kUsers, &scratch);
    // Each distinct word is computed once; every other user is a hit.
    EXPECT_EQ(scratch.distinct_words, scratch.memo.size());
    EXPECT_LE(scratch.distinct_words, 6u);
  }
}

TEST(AnswerMemoTest, SecondContextIsNeverServedAStaleEntry) {
  AnswerScratch scratch;
  uint64_t first_serial = 0;
  {
    RoundContext first = SelectionContext(Candidates());
    first_serial = first.serial();
    ExpectReuseMatchesFresh(first, RepeatedWord, 200, &scratch);
    ASSERT_GT(scratch.memo.size(), 0u);
  }
  // Built after the first is destroyed (its storage may be reused), with
  // different candidates: every answer must come from the new candidates.
  std::vector<Sequence> other = {{3, 3, 3}, {0, 0}, {2, 1, 0}};
  RoundContext second = SelectionContext(other);
  EXPECT_NE(second.serial(), first_serial);
  ExpectReuseMatchesFresh(second, RepeatedWord, 200, &scratch);
  // The same scratch then serves a refinement round over the same words.
  RoundContext third = RefinementContext(other);
  ExpectReuseMatchesFresh(third, RepeatedWord, 200, &scratch);
}

TEST(AnswerMemoTest, MoreDistinctWordsThanTheCapStayByteIdentical) {
  const uint64_t kUsers = AnswerMemo::kMaxEntries + 500;
  RoundContext selection = SelectionContext(Candidates());
  RoundContext classes = ClassContext(Candidates());
  for (const RoundContext* ctx : {&selection, &classes}) {
    AnswerScratch scratch;
    ExpectReuseMatchesFresh(*ctx, DistinctWord, kUsers, &scratch);
    // Every word is new, so every answer computed its word-dependent half;
    // the memo stopped caching at its cap and, having never hit, turned
    // itself off.
    EXPECT_EQ(scratch.distinct_words, kUsers);
    EXPECT_EQ(scratch.memo.size(), AnswerMemo::kMaxEntries);
    EXPECT_FALSE(scratch.memo.on());
    // A second pass is answered exactly, without the memo.
    ExpectReuseMatchesFresh(*ctx, DistinctWord, kUsers, &scratch);
    EXPECT_EQ(scratch.distinct_words, 2 * kUsers);
    // A new context turns it back on.
    RoundContext next = SelectionContext(Candidates());
    ExpectReuseMatchesFresh(next, RepeatedWord, 50, &scratch);
    EXPECT_TRUE(scratch.memo.on());
  }
}

/// Word u drawn from 3000 distinct words in random order: more than the
/// memo holds, but most users repeat a word seen before.
Sequence WordOfThreeThousand(uint64_t user) {
  return DistinctWord(DeriveSeed(5, user) % 3000);
}

TEST(AnswerMemoTest, RepeatedWordsPastTheCapKeepTheMemoOn) {
  const uint64_t kUsers = 8000;
  RoundContext selection = SelectionContext(Candidates());
  AnswerScratch scratch;
  ExpectReuseMatchesFresh(selection, WordOfThreeThousand, kUsers, &scratch);
  EXPECT_EQ(scratch.memo.size(), AnswerMemo::kMaxEntries);
  EXPECT_TRUE(scratch.memo.on());
  EXPECT_LT(scratch.distinct_words, kUsers / 2);
}

TEST(AnswerMemoTest, MemoryIsBoundedByTheCap) {
  // Long candidate lists and long words push on the probability and
  // symbol arenas rather than the entry count.
  std::vector<Sequence> many;
  for (uint64_t i = 0; i < 200; ++i) many.push_back(DistinctWord(i * 7));
  RoundContext selection = SelectionContext(many);
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 3 * AnswerMemo::kMaxEntries; ++user) {
    Sequence word = DistinctWord(user);
    word.resize(word.size() + 40, static_cast<Symbol>(user % 4));
    ClientSession session = SessionFor(word, user, -1);
    ReportBatch batch;
    ASSERT_TRUE(session.AnswerTo(selection, &scratch, &batch).ok());
    ASSERT_LE(scratch.memo.MemoryBytes(), AnswerMemo::kMaxBytes) << user;
  }
  EXPECT_LE(scratch.memo.size(), AnswerMemo::kMaxEntries);
  EXPECT_GT(scratch.memo.size(), 0u);
  // The probability arena filled up before the entry cap did.
  EXPECT_LT(scratch.memo.size(), AnswerMemo::kMaxEntries);
}

TEST(AnswerMemoTest, UnlabeledSessionStillFailsInClassRound) {
  RoundContext classes = ClassContext(Candidates());
  AnswerScratch scratch;
  for (uint64_t user = 0; user < 100; ++user) {
    Sequence word = RepeatedWord(user);
    // Every fourth user is unlabeled (or mislabeled): it must fail even
    // though its word is already in the memo.
    int label = user % 4 == 3 ? (user % 8 == 3 ? -1 : kClasses)
                              : static_cast<int>(user % kClasses);
    ClientSession session = SessionFor(word, user, label);
    ReportBatch batch;
    Status st = session.AnswerTo(classes, &scratch, &batch);
    if (user % 4 == 3) {
      EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << user;
      EXPECT_EQ(batch.size(), 0u);
    } else {
      ASSERT_TRUE(st.ok()) << st;
      AnswerScratch fresh;
      EXPECT_EQ(std::string(batch.view(0)),
                Answer(classes, word, user, label, &fresh));
    }
  }
}

TEST(AnswerMemoTest, SelectIsProbabilitiesThenTheOneDraw) {
  auto em = ldp::ExponentialMechanism::Create(2.0);
  ASSERT_TRUE(em.ok());
  std::vector<double> scores = {0.1, 1.0, 0.4, 0.0, 0.7};
  auto probs = em->SelectionProbabilities(scores);
  ASSERT_TRUE(probs.ok());
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng a(seed), b(seed);
    auto lhs = em->Select(scores, &a);
    auto rhs = em->SelectFromProbabilities(*probs, &b);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs);
    EXPECT_EQ(a.engine()(), b.engine()());  // same words consumed
  }
  Rng rng(1);
  EXPECT_FALSE(em->SelectFromProbabilities({}, &rng).ok());
}

}  // namespace
}  // namespace privshape
