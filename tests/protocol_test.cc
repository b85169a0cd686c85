#include <gtest/gtest.h>

#include "protocol/codec.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"

namespace privshape {
namespace {

using proto::CandidateRequest;
using proto::ClientSession;
using proto::Decoder;
using proto::DecodeCandidateRequest;
using proto::DecodeReport;
using proto::EncodeCandidateRequest;
using proto::EncodeReport;
using proto::Encoder;
using proto::Report;
using proto::ReportAggregator;
using proto::ReportKind;
using proto::RoundContext;

TEST(CodecTest, VarintRoundTrip) {
  Encoder enc;
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1ULL << 20,
                                  0xFFFFFFFFFFFFFFFFULL};
  for (uint64_t v : values) enc.PutVarint(v);
  Decoder dec(enc.Release());
  for (uint64_t v : values) {
    auto got = dec.GetVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, DoubleRoundTrip) {
  Encoder enc;
  enc.PutDouble(3.14159);
  enc.PutDouble(-0.0);
  enc.PutDouble(1e300);
  Decoder dec(enc.Release());
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 3.14159);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), -0.0);
  EXPECT_DOUBLE_EQ(*dec.GetDouble(), 1e300);
}

TEST(CodecTest, BytesRoundTrip) {
  Encoder enc;
  enc.PutBytes({1, 2, 250, 0});
  enc.PutBytes({});
  Decoder dec(enc.Release());
  EXPECT_EQ(*dec.GetBytes(), (std::vector<uint8_t>{1, 2, 250, 0}));
  EXPECT_TRUE(dec.GetBytes()->empty());
}

TEST(CodecTest, TruncatedInputsFail) {
  Decoder empty(std::string_view{});
  EXPECT_FALSE(empty.GetVarint().ok());
  Decoder partial(std::string(1, '\x80'));  // continuation bit, no next byte
  EXPECT_FALSE(partial.GetVarint().ok());
  Decoder short_double(std::string(4, 'x'));
  EXPECT_FALSE(short_double.GetDouble().ok());
  Encoder enc;
  enc.PutVarint(100);  // claims 100 bytes follow
  Decoder bad_bytes(enc.Release());
  EXPECT_FALSE(bad_bytes.GetBytes().ok());
}

TEST(CodecTest, HugeByteLengthFailsInsteadOfWrapping) {
  // A corrupt length varint near 2^64 must surface as a Status: the
  // overflow-prone check `pos_ + len > size` would wrap and let the
  // reserve abort the process (fatal on a collector drainer thread).
  Encoder enc;
  enc.PutVarint(~uint64_t{0});  // bits-length claims 2^64 - 1 bytes
  Decoder dec(enc.Release());
  EXPECT_FALSE(dec.GetBytes().ok());

  Encoder report;
  report.PutVarint(proto::kWireVersion);
  report.PutVarint(1);  // kLength
  report.PutVarint(0);
  report.PutVarint(0);
  report.PutVarint(~uint64_t{0});  // bits length, no bits follow
  auto decoded = DecodeReport(report.buffer());
  EXPECT_FALSE(decoded.ok());
}

TEST(CodecTest, StringRoundTripAndTruncation) {
  // PutString/GetStringView carry opaque byte strings (the net layer's
  // nested-message fields) without copying on decode.
  Encoder enc;
  enc.PutString("hello");
  enc.PutString("");
  enc.PutString(std::string_view("\x00\xff\x80", 3));
  std::string wire = enc.Release();
  Decoder dec{std::string_view(wire)};
  auto a = dec.GetStringView();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "hello");
  auto b = dec.GetStringView();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->empty());
  auto c = dec.GetStringView();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, std::string_view("\x00\xff\x80", 3));
  EXPECT_TRUE(dec.AtEnd());
  // The view aliases the wire buffer — no copy was made.
  EXPECT_GE(a->data(), wire.data());
  EXPECT_LT(a->data(), wire.data() + wire.size());

  // Every truncation of the encoding must fail cleanly, and a length
  // claiming more bytes than remain must not read past the end.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    Decoder trunc(std::string_view(wire).substr(0, cut));
    bool failed = false;
    for (int i = 0; i < 3; ++i) {
      auto got = trunc.GetStringView();
      if (!got.ok()) {
        failed = true;
        break;
      }
    }
    EXPECT_TRUE(failed) << "cut=" << cut;
  }
  Encoder liar;
  liar.PutVarint(~uint64_t{0});  // string length claims 2^64 - 1 bytes
  Decoder dishonest(liar.Release());
  EXPECT_FALSE(dishonest.GetStringView().ok());
}

TEST(MessagesTest, AppendEncodedMatchesAppend) {
  // The daemon re-assembles uploaded batches from wire views with
  // AppendEncoded; the result must be indistinguishable from a batch
  // built by encoding the same reports directly.
  Report report;
  report.kind = ReportKind::kLength;
  report.value = 7;
  proto::ReportBatch direct;
  direct.Append(report);
  report.value = 9;
  direct.Append(report);

  proto::ReportBatch relayed;
  for (size_t i = 0; i < direct.size(); ++i) {
    relayed.AppendEncoded(direct.view(i));
  }
  ASSERT_EQ(relayed.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(relayed.view(i), direct.view(i));
    auto decoded = DecodeReport(relayed.view(i));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->value, i == 0 ? 7 : 9);
  }
}

TEST(MessagesTest, ReportRoundTrip) {
  Report report;
  report.kind = ReportKind::kSubShape;
  report.level = 3;
  report.value = 17;
  report.bits = {1, 0, 1};
  auto decoded = DecodeReport(EncodeReport(report));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, report);
}

TEST(MessagesTest, ReportRejectsCorruption) {
  Report report;
  report.kind = ReportKind::kLength;
  report.value = 5;
  std::string wire = EncodeReport(report);
  EXPECT_FALSE(DecodeReport(wire.substr(0, wire.size() - 1)).ok());
  EXPECT_FALSE(DecodeReport(wire + "x").ok());
  EXPECT_FALSE(DecodeReport("").ok());
}

TEST(MessagesTest, ReportRejectsUnknownKind) {
  Encoder enc;
  enc.PutVarint(proto::kWireVersion);
  enc.PutVarint(9);  // no such kind
  enc.PutVarint(0);
  enc.PutVarint(0);
  enc.PutBytes({});
  EXPECT_FALSE(DecodeReport(enc.Release()).ok());
}

TEST(MessagesTest, CandidateRequestRoundTrip) {
  CandidateRequest request;
  request.level = 2;
  request.epsilon = 4.0;
  request.candidates = {{0, 1, 2}, {2, 1}};
  auto decoded = DecodeCandidateRequest(EncodeCandidateRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, request);
}

/// What a remote client does with a broadcast: answer the round's
/// context, and ship the encoded report.
std::string AnswerOverWire(ClientSession& client, const RoundContext& ctx) {
  Report report;
  Status answered = client.Answer(ctx, nullptr, &report);
  EXPECT_TRUE(answered.ok()) << answered;
  return EncodeReport(report);
}

TEST(SessionTest, LengthAnswerIsValidReport) {
  ClientSession client({0, 1, 2}, 7);
  auto ctx = RoundContext::Length(1, 10, 4.0);
  ASSERT_TRUE(ctx.ok());
  auto report = DecodeReport(AnswerOverWire(client, *ctx));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, ReportKind::kLength);
  EXPECT_LT(report->value, 10u);
}

TEST(SessionTest, SubShapeAnswerCarriesLevel) {
  ClientSession client({0, 1, 2, 0}, 8);
  auto ctx = RoundContext::SubShape(3, 4, 4.0, false);
  ASSERT_TRUE(ctx.ok());
  auto report = DecodeReport(AnswerOverWire(client, *ctx));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, ReportKind::kSubShape);
  EXPECT_GE(report->level, 1u);
  EXPECT_LE(report->level, 3u);
}

TEST(SessionTest, SubShapeRequiresTwoLevels) {
  EXPECT_FALSE(RoundContext::SubShape(3, 1, 4.0, false).ok());
}

TEST(SessionTest, CandidateAnswerSelectsWithinRange) {
  ClientSession client({0, 1}, 10);
  CandidateRequest request;
  request.level = 1;
  request.epsilon = 6.0;
  request.candidates = {{0, 1}, {2, 0}, {1, 2}};
  auto ctx = RoundContext::Selection(EncodeCandidateRequest(request),
                                     dist::Metric::kSed);
  ASSERT_TRUE(ctx.ok());
  auto report = DecodeReport(AnswerOverWire(client, *ctx));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, ReportKind::kSelection);
  EXPECT_EQ(report->level, 1u);
  EXPECT_LT(report->value, 3u);
}

TEST(SessionTest, RefinementAnswerUsesGrr) {
  ClientSession client({0, 1, 2}, 11);
  CandidateRequest request;
  request.epsilon = 8.0;
  request.candidates = {{0, 1, 2}, {2, 1, 0}};
  auto ctx = RoundContext::Refinement(EncodeCandidateRequest(request),
                                      dist::Metric::kSed);
  ASSERT_TRUE(ctx.ok());
  auto report = DecodeReport(AnswerOverWire(client, *ctx));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->kind, ReportKind::kRefinement);
  EXPECT_LT(report->value, 2u);
}

TEST(SessionTest, MalformedRequestsRejected) {
  // A corrupt or empty broadcast builds no context, so no client answers.
  EXPECT_FALSE(RoundContext::Selection("garbage", dist::Metric::kSed).ok());
  CandidateRequest empty;
  empty.epsilon = 1.0;
  EXPECT_FALSE(RoundContext::Selection(EncodeCandidateRequest(empty),
                                       dist::Metric::kSed)
                   .ok());
}

TEST(AggregatorTest, EndToEndLengthEstimationOverWire) {
  // 400 clients, 70% of which hold length-3 words: the aggregate over the
  // wire recovers 3 as the frequent length.
  const int kLow = 1, kHigh = 6;
  const double kEps = 4.0;
  proto::LengthRequest request;
  request.ell_low = kLow;
  request.ell_high = kHigh;
  request.epsilon = kEps;
  auto decoded =
      proto::DecodeLengthRequest(proto::EncodeLengthRequest(request));
  ASSERT_TRUE(decoded.ok());
  auto ctx = RoundContext::Length(*decoded);
  ASSERT_TRUE(ctx.ok());
  ReportAggregator agg(ReportKind::kLength, ctx->domain(), kEps);
  for (int i = 0; i < 400; ++i) {
    Sequence word;
    size_t len = (i % 10) < 7 ? 3 : 5;
    for (size_t j = 0; j < len; ++j) {
      word.push_back(static_cast<Symbol>(j % 3));
    }
    ClientSession client(std::move(word), 100 + static_cast<uint64_t>(i));
    agg.Consume(AnswerOverWire(client, *ctx));
  }
  EXPECT_EQ(agg.accepted(), 400u);
  EXPECT_EQ(agg.rejected(), 0u);
  auto counts = agg.EstimatedCounts();
  size_t best = 0;
  for (size_t v = 1; v < counts.size(); ++v) {
    if (counts[v] > counts[best]) best = v;
  }
  EXPECT_EQ(kLow + static_cast<int>(best), 3);
}

TEST(AggregatorTest, RejectsWrongKindAndGarbage) {
  ReportAggregator agg(ReportKind::kLength, 5, 1.0);
  Report wrong;
  wrong.kind = ReportKind::kSelection;
  wrong.value = 1;
  agg.Consume(EncodeReport(wrong));
  agg.Consume("not-a-report");
  Report out_of_domain;
  out_of_domain.kind = ReportKind::kLength;
  out_of_domain.value = 17;
  agg.Consume(EncodeReport(out_of_domain));
  EXPECT_EQ(agg.accepted(), 0u);
  EXPECT_EQ(agg.rejected(), 3u);
}

TEST(AggregatorTest, SelectionCountsAreRaw) {
  ReportAggregator agg(ReportKind::kSelection, 3, 1.0);
  for (int i = 0; i < 5; ++i) {
    Report report;
    report.kind = ReportKind::kSelection;
    report.value = 2;
    agg.Consume(EncodeReport(report));
  }
  auto counts = agg.EstimatedCounts();
  EXPECT_DOUBLE_EQ(counts[2], 5.0);
  EXPECT_DOUBLE_EQ(counts[0], 0.0);
}

}  // namespace
}  // namespace privshape
