#include "layers.h"

#include <chrono>
#include <memory>

#include "collector/sharded_aggregator.h"
#include "core/rounds.h"
#include "net/frame.h"
#include "protocol/messages.h"
#include "protocol/round_context.h"
#include "protocol/session.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace pc = privshape::collector;
namespace proto = privshape::proto;
using privshape::Result;
using privshape::Status;

namespace {

// Reports per ingested batch, as in the coordinator and the loadgen.
constexpr size_t kBatchSize = 256;

using Clock = std::chrono::steady_clock;

double Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double Us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t.time_since_epoch())
      .count();
}

Stage SlotOf(proto::ReportKind kind) {
  switch (kind) {
    case proto::ReportKind::kLength:
      return kPa;
    case proto::ReportKind::kSubShape:
      return kPb;
    case proto::ReportKind::kSelection:
      return kPc;
    case proto::ReportKind::kRefinement:
    case proto::ReportKind::kClassRefine:
      break;
  }
  return kPd;
}

/// Request decode plus the RoundContext factory of the round's kind.
Result<proto::RoundContext> BuildContext(proto::ReportKind kind,
                                         const std::string& request,
                                         privshape::dist::Metric metric) {
  switch (kind) {
    case proto::ReportKind::kLength: {
      auto decoded = proto::DecodeLengthRequest(request);
      if (!decoded.ok()) return decoded.status();
      return proto::RoundContext::Length(*decoded);
    }
    case proto::ReportKind::kSubShape: {
      auto decoded = proto::DecodeSubShapeRequest(request);
      if (!decoded.ok()) return decoded.status();
      return proto::RoundContext::SubShape(*decoded);
    }
    case proto::ReportKind::kSelection:
      return proto::RoundContext::Selection(request, metric);
    case proto::ReportKind::kRefinement:
      return proto::RoundContext::Refinement(request, metric);
    case proto::ReportKind::kClassRefine:
      return proto::RoundContext::ClassRefinement(request, metric);
  }
  return Status::InvalidArgument("unknown round kind");
}

void AppendSpan(std::string* out, const std::string& name, double ts_us,
                double dur_us, const std::string& args) {
  if (!out->empty()) *out += ",\n";
  *out += "{\"name\":\"" + name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
          "\"ts\":" + std::to_string(ts_us) +
          ",\"dur\":" + std::to_string(dur_us) + ",\"args\":{" + args + "}}";
}

/// One round, untimed: the shape core::PrivShape::Run would take over
/// DriveProtocol.
pc::RoundOutcome RunUntimed(const pc::ClientFleet& fleet,
                            const std::vector<size_t>& population,
                            const pc::StageSpec& spec,
                            const proto::RoundContext& ctx) {
  pc::RoundOutcome outcome{pc::ShardedAggregator(spec, 1), 0, {}};
  auto ingest_hist = std::make_unique<privshape::telemetry::Histogram>();
  proto::AnswerScratch scratch;
  proto::ReportBatch batch;
  batch.Reserve(kBatchSize);
  auto flush = [&] {
    auto t0 = Clock::now();
    outcome.agg.ConsumeBatch(0, batch);
    ingest_hist->Record(static_cast<uint64_t>(Ns(t0, Clock::now())));
    batch.Clear();
  };
  for (size_t user : population) {
    proto::ClientSession session = fleet.MakeSession(user);
    if (!session.AnswerTo(ctx, &scratch, &batch).ok()) {
      ++outcome.client_errors;
      continue;
    }
    if (batch.size() >= kBatchSize) flush();
  }
  if (!batch.empty()) flush();
  outcome.ingest_latency = ingest_hist->Snapshot();
  return outcome;
}

/// One round with every public call timed separately. Per-report times
/// are summed into the stage totals; spans are per round.
pc::RoundOutcome RunTraced(const pc::ClientFleet& fleet,
                           const std::vector<Sequence>& pool,
                           const std::vector<size_t>& population,
                           const pc::StageSpec& spec,
                           const proto::RoundContext& ctx, uint64_t round_id,
                           StageTotals* totals) {
  pc::RoundOutcome outcome{pc::ShardedAggregator(spec, 1), 0, {}};
  auto ingest_hist = std::make_unique<privshape::telemetry::Histogram>();
  proto::AnswerScratch scratch;
  proto::Report& report = scratch.report;
  proto::ReportBatch batch;
  batch.Reserve(kBatchSize);
  // The match probe gets its own scratch so it cannot warm the answer's.
  privshape::dist::TableScratch probe_scratch;
  std::vector<double> probe_distances;
  const bool matches = !ctx.table().empty();
  const bool prefix = ctx.kind() == proto::ReportKind::kSelection;
  privshape::net::FrameReader reader;
  std::string frame;
  privshape::net::Frame decoded_frame;

  auto flush = [&] {
    auto f0 = Clock::now();
    std::string body = privshape::net::EncodeBatchUpload(round_id, batch);
    frame.clear();
    privshape::net::AppendFrame(privshape::net::MsgType::kBatchUpload, body,
                                &frame);
    auto f1 = Clock::now();
    reader.Append(frame);
    auto next = reader.Next(&decoded_frame);
    auto upload = privshape::net::DecodeBatchUpload(decoded_frame.payload);
    auto f2 = Clock::now();
    if (!next.ok() || !*next || !upload.ok() ||
        upload->reports.size() != batch.size()) {
      // A frame that does not round-trip loses the batch: it shows as
      // unaccepted reports, so the run fails its accepted-share check.
      batch.Clear();
      return;
    }
    outcome.agg.ConsumeBatch(0, batch);
    auto f3 = Clock::now();
    totals->frame_encode_ns += Ns(f0, f1);
    totals->frame_decode_ns += Ns(f1, f2);
    totals->ingest_ns += Ns(f2, f3);
    ingest_hist->Record(static_cast<uint64_t>(Ns(f2, f3)));
    batch.Clear();
  };

  for (size_t user : population) {
    proto::ClientSession session = fleet.MakeSession(user);
    auto a0 = Clock::now();
    Status answered = session.Answer(ctx, &scratch, &report);
    auto a1 = Clock::now();
    if (!answered.ok()) {
      ++outcome.client_errors;
      continue;
    }
    totals->answer_ns += Ns(a0, a1);
    if (matches) {
      const Sequence& word = pool[user % pool.size()];
      auto m0 = Clock::now();
      ctx.table().MatchInto(word, *ctx.distance(), prefix, &probe_scratch,
                            &probe_distances);
      totals->match_ns += Ns(m0, Clock::now());
    }
    size_t bytes_before = batch.bytes();
    auto e0 = Clock::now();
    batch.Append(report);
    totals->encode_ns += Ns(e0, Clock::now());
    totals->encoded_bytes += batch.bytes() - bytes_before;
    ++totals->reports;
    if (batch.size() >= kBatchSize) flush();
  }
  if (!batch.empty()) flush();
  outcome.ingest_latency = ingest_hist->Snapshot();
  return outcome;
}

}  // namespace

Stage StageOf(const std::string& stage) {
  if (stage == "Pa") return kPa;
  if (stage == "Pb") return kPb;
  if (stage.rfind("Pc", 0) == 0) return kPc;
  return kPd;
}

pc::RoundRunner InlineRunner(const pc::ClientFleet& fleet,
                             const std::vector<Sequence>& pool,
                             InlineTally* tally, LayerTrace* trace) {
  uint64_t round_id = 0;
  return [&fleet, &pool, tally, trace, round_id](
             const std::vector<size_t>& population, const pc::StageSpec& spec,
             const std::string& encoded_request,
             const pc::AnswerFn&) mutable -> pc::RoundOutcome {
    auto r0 = Clock::now();
    auto context = BuildContext(spec.kind, encoded_request, fleet.metric());
    auto r1 = Clock::now();
    if (!context.ok()) {
      // Nobody can answer: every user of the round counts as a failure.
      tally->asked += population.size();
      return pc::RoundOutcome{pc::ShardedAggregator(spec, 1),
                              population.size(),
                              {}};
    }
    const proto::RoundContext& ctx = *context;
    ++round_id;
    tally->asked += population.size();
    if (trace == nullptr) {
      pc::RoundOutcome outcome = RunUntimed(fleet, population, spec, ctx);
      tally->accepted += outcome.agg.accepted();
      return outcome;
    }

    Stage slot = SlotOf(spec.kind);
    StageTotals& totals = trace->stages[slot];
    ++totals.rounds;
    totals.users += population.size();
    totals.candidates += ctx.candidates().size();
    totals.context_build_ns += Ns(r0, r1);
    pc::RoundOutcome outcome = RunTraced(fleet, pool, population, spec, ctx,
                                         round_id, &totals);
    tally->accepted += outcome.agg.accepted();

    // Debias timed here, and the counts kept for the server replay.
    auto d0 = Clock::now();
    std::vector<std::vector<double>> counts(spec.num_levels);
    for (size_t lvl = 0; lvl < spec.num_levels; ++lvl) {
      counts[lvl] = outcome.agg.DebiasedCounts(lvl);
    }
    auto d1 = Clock::now();
    totals.debias_ns += Ns(d0, d1);
    switch (slot) {
      case kPa:
        trace->length_counts = counts[0];
        break;
      case kPb:
        trace->subshape_counts = counts;
        break;
      case kPc:
        trace->level_candidates.push_back(ctx.candidates());
        trace->level_counts.push_back(counts[0]);
        break;
      default:
        trace->refine_candidates = ctx.candidates();
        trace->refine_counts = counts[0];
        break;
    }
    auto r2 = Clock::now();
    trace->runner_ns += Ns(r0, r2);
    std::string name = kStageNames[slot];
    if (slot == kPc) name += ".level" + std::to_string(spec.min_level);
    AppendSpan(&trace->spans, name, Us(r0), Ns(r0, r2) / 1e3,
               "\"users\":" + std::to_string(population.size()) +
                   ",\"accepted\":" +
                   std::to_string(outcome.agg.accepted()));
    AppendSpan(&trace->spans, "context_build", Us(r0), Ns(r0, r1) / 1e3, "");
    AppendSpan(&trace->spans, "debias", Us(d0), Ns(d0, d1) / 1e3, "");
    return outcome;
  };
}

Result<privshape::core::MechanismResult> ReplayServer(
    const privshape::core::MechanismConfig& config, const LayerTrace& trace,
    ServerTimes* times) {
  auto server = privshape::core::PrivShapeServer::Create(config);
  if (!server.ok()) return server.status();
  auto t0 = Clock::now();
  PRIVSHAPE_RETURN_IF_ERROR(server->FinishLength(trace.length_counts));
  auto t1 = Clock::now();
  PRIVSHAPE_RETURN_IF_ERROR(server->FinishSubShapes(trace.subshape_counts));
  auto t2 = Clock::now();
  times->finish_length = Ns(t0, t1);
  times->finish_subshapes = Ns(t1, t2);
  int ell_s = server->frequent_length();
  if (static_cast<size_t>(ell_s) != trace.level_counts.size()) {
    return Status::Internal("replay: trie height differs from the run");
  }
  for (int level = 0; level < ell_s; ++level) {
    auto b0 = Clock::now();
    auto candidates = server->BeginTrieLevel(level);
    auto b1 = Clock::now();
    if (!candidates.ok()) return candidates.status();
    if (*candidates != trace.level_candidates[static_cast<size_t>(level)]) {
      return Status::Internal("replay: level candidates differ from the run");
    }
    auto f0 = Clock::now();
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishTrieLevel(
        trace.level_counts[static_cast<size_t>(level)]));
    auto f1 = Clock::now();
    times->begin_trie_level += Ns(b0, b1);
    times->finish_trie_level += Ns(f0, f1);
  }
  auto r0 = Clock::now();
  auto candidates = server->BeginRefinement();
  auto r1 = Clock::now();
  if (!candidates.ok()) return candidates.status();
  if (*candidates != trace.refine_candidates) {
    return Status::Internal("replay: refinement candidates differ");
  }
  times->begin_refinement = Ns(r0, r1);
  auto e0 = Clock::now();
  auto result = config.num_classes > 0
                    ? server->FinishClassRefinement(trace.refine_counts)
                    : server->FinishRefinement(trace.refine_counts);
  times->finish = Ns(e0, Clock::now());
  return result;
}

}  // namespace perfbench
