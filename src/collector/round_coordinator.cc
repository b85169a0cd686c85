#include "collector/round_coordinator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "collector/ingest_lanes.h"
#include "common/shutdown.h"
#include "core/population.h"
#include "core/subshape.h"
#include "protocol/messages.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace privshape::collector {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times one round, runs it (under a chrome-trace span when tracing is
/// on), folds its telemetry into the process registry, and appends its
/// RoundStats. A failed round records nothing and returns its status; a
/// set shutdown flag turns the partial round just recorded into a
/// Cancelled protocol result — never into a server-side decision.
Result<RoundOutcome> RunTimedRound(const RoundRunner& run_round,
                                   const std::vector<size_t>& population,
                                   const StageSpec& spec,
                                   const std::string& encoded_request,
                                   const AnswerFn& answer,
                                   const std::string& stage,
                                   CollectorMetrics* metrics) {
  // Resolved once per process; Record/Add through the cached pointers is
  // the lock-free path the registry's contract promises.
  static telemetry::Registry& reg = telemetry::Registry::Default();
  static telemetry::Counter* rounds_total =
      reg.GetCounter("collector_rounds_total");
  static telemetry::Counter* accepted_total =
      reg.GetCounter("collector_reports_accepted_total");
  static telemetry::Counter* rejected_total =
      reg.GetCounter("collector_reports_rejected_total");
  static telemetry::Counter* client_errors_total =
      reg.GetCounter("collector_client_errors_total");
  static telemetry::Counter* bytes_up_total =
      reg.GetCounter("collector_bytes_up_total");
  static telemetry::Counter* bytes_down_total =
      reg.GetCounter("collector_bytes_down_total");
  static telemetry::Histogram* ingest_global =
      reg.GetHistogram("collector_ingest_batch_ns");
  static telemetry::Gauge* round_users =
      reg.GetGauge("collector_round_users");

  telemetry::TraceSpan span(telemetry::GlobalTrace(), stage, "round");
  round_users->Set(static_cast<int64_t>(population.size()));
  double start = Now();
  Result<RoundOutcome> result =
      run_round(population, spec, encoded_request, answer);
  double seconds = Now() - start;
  span.Close();
  round_users->Set(0);
  if (!result.ok()) return result.status();
  const RoundOutcome& outcome = *result;

  rounds_total->Add(1);
  accepted_total->Add(outcome.agg.accepted());
  rejected_total->Add(outcome.agg.rejected());
  client_errors_total->Add(outcome.client_errors);
  bytes_up_total->Add(outcome.agg.bytes_ingested());
  bytes_down_total->Add(encoded_request.size() * population.size());
  ingest_global->Merge(outcome.ingest_latency);

  if (metrics != nullptr) {
    RoundStats stats;
    stats.stage = stage;
    stats.users = population.size();
    stats.accepted = outcome.agg.accepted();
    stats.rejected = outcome.agg.rejected();
    stats.client_errors = outcome.client_errors;
    stats.distinct_words = outcome.distinct_words;
    stats.bytes_up = outcome.agg.bytes_ingested();
    stats.bytes_down = encoded_request.size() * population.size();
    stats.seconds = seconds;
    const telemetry::HistogramSnapshot& lat = outcome.ingest_latency;
    if (!lat.empty()) {
      stats.ingest_batches = lat.count;
      stats.ingest_p50_ns = lat.Quantile(0.50);
      stats.ingest_p95_ns = lat.Quantile(0.95);
      stats.ingest_p99_ns = lat.Quantile(0.99);
      stats.ingest_max_ns = lat.max;
      stats.ingest_mean_ns = lat.Mean();
    }
    metrics->rounds.push_back(std::move(stats));
  }
  if (ShutdownRequested()) {
    return Status::Cancelled("shutdown requested mid-protocol");
  }
  return result;
}

/// Every round's clients answer against the one pre-built context.
AnswerFn AnswerWith(const proto::RoundContext& ctx) {
  return [&ctx](proto::ClientSession& session, size_t,
                proto::AnswerScratch& scratch, proto::ReportBatch& out) {
    return session.AnswerTo(ctx, &scratch, &out);
  };
}

}  // namespace

RoundCoordinator::RoundCoordinator(core::MechanismConfig config,
                                   CollectorOptions options,
                                   ThreadPool* pool)
    : config_(config), options_(options), pool_(pool) {}

size_t RoundCoordinator::EffectiveThreads() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

size_t RoundCoordinator::EffectiveShards() const {
  size_t shards =
      options_.num_shards > 0 ? options_.num_shards : EffectiveThreads();
  return shards > 0 ? shards : 1;
}

Result<RoundOutcome> RoundCoordinator::RunRound(
    const ClientFleet& fleet, const std::vector<size_t>& population,
    const StageSpec& spec, const AnswerFn& answer) const {
  size_t num_shards = EffectiveShards();
  size_t batch_size = options_.batch_size > 0 ? options_.batch_size : 1;
  RoundOutcome outcome{ShardedAggregator(spec, num_shards), 0, {}, 0};
  std::atomic<size_t> client_errors{0};
  std::atomic<size_t> distinct_words{0};
  // Drainers must be dedicated threads (pool tasks could be starved by
  // producers blocked on full queues), but they count against the thread
  // budget: ceil(threads/2) of them, so a T-thread round schedules at
  // most 1.5T runnable threads — decode+count is far cheaper than
  // answering, so half the workers absorb it.
  IngestLanes lanes(&outcome.agg, (EffectiveThreads() + 1) / 2,
                    options_.queue_depth, "collector");

  // Shard s owns the contiguous stripe [n*s/S, n*(s+1)/S) of the
  // population. Integer-count merging makes the final estimates
  // independent of this partition (and of which lane ingests what).
  auto produce_stripe = [&](size_t shard) {
    size_t n = population.size();
    size_t begin = n * shard / num_shards;
    size_t end = n * (shard + 1) / num_shards;
    size_t errors = 0;
    // One scratch per stripe: the answer path reuses its DP rows, score
    // buffers and per-word memo across every user of the stripe, and
    // reports encode into the batch's flat buffer — no per-report
    // allocation. Sessions are built a lockstep-seeded block at a time.
    proto::AnswerScratch scratch;
    proto::ReportBatch batch;
    batch.Reserve(batch_size);
    fleet.ForEachSession(
        Span<const size_t>(population.data() + begin, end - begin),
        [&](size_t user, proto::ClientSession& session) {
          // Graceful shutdown: stop producing new reports mid-stripe. The
          // already-pushed batches drain normally, so the partial round's
          // accounting stays exact; DriveProtocol turns the flag into a
          // Cancelled status before any server-side decision.
          if (ShutdownRequested()) return false;
          Status answered = answer(session, user, scratch, batch);
          if (!answered.ok()) {
            ++errors;
            return true;
          }
          if (batch.size() >= batch_size) {
            lanes.Push(shard, std::move(batch));
            batch = proto::ReportBatch();
            batch.Reserve(batch_size);
          }
          return true;
        });
    if (!batch.empty()) lanes.Push(shard, std::move(batch));
    client_errors.fetch_add(errors);
    distinct_words.fetch_add(scratch.distinct_words);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(num_shards, produce_stripe);
  } else {
    for (size_t shard = 0; shard < num_shards; ++shard) produce_stripe(shard);
  }

  auto latency = lanes.Finish();
  if (!latency.ok()) return latency.status();
  outcome.ingest_latency = std::move(*latency);
  outcome.client_errors = client_errors.load();
  outcome.distinct_words = distinct_words.load();
  return outcome;
}

Result<core::MechanismResult> DriveProtocol(
    const core::MechanismConfig& config, size_t num_users,
    const RoundRunner& run_round, CollectorMetrics* metrics) {
  double start = Now();
  if (num_users == 0) {
    return Status::InvalidArgument("empty fleet");
  }
  auto server = core::PrivShapeServer::Create(config);
  if (!server.ok()) return server.status();
  if (metrics != nullptr) metrics->num_users = num_users;

  // Same split, same shared-engine usage as the core pipeline: the stage
  // assignment is the server's only draw from the shared seed.
  Rng rng(config.seed);
  core::FourWaySplit split =
      core::SplitFourWay(num_users, config.frac_a, config.frac_b,
                         config.frac_c, config.frac_d, &rng);

  // Round P_a: frequent length. The coordinator pre-builds the shared
  // RoundContext once (GRR tables and all); every client answers against
  // it with per-worker scratch — the zero-allocation report path.
  {
    StageSpec spec;
    spec.kind = proto::ReportKind::kLength;
    spec.domain = static_cast<size_t>(config.ell_high - config.ell_low + 1);
    spec.epsilon = config.epsilon;
    if (split.pa.empty()) {
      return Status::InvalidArgument(
          "length estimation requires a non-empty population");
    }
    proto::LengthRequest request;
    request.ell_low = config.ell_low;
    request.ell_high = config.ell_high;
    request.epsilon = config.epsilon;
    // Encoded once per round, like every broadcast: these are the bytes a
    // wire deployment ships to each P_a user, and what bytes_down counts.
    std::string encoded_request = proto::EncodeLengthRequest(request);
    auto context = proto::RoundContext::Length(request);
    if (!context.ok()) return context.status();
    auto outcome = RunTimedRound(run_round, split.pa, spec, encoded_request,
                                 AnswerWith(*context), "Pa", metrics);
    if (!outcome.ok()) return outcome.status();
    PRIVSHAPE_RETURN_IF_ERROR(
        server->FinishLength(outcome->agg.DebiasedCounts(0)));
  }
  int ell_s = server->frequent_length();

  // Round P_b: frequent sub-shape transitions.
  size_t num_levels = server->NumSubShapeLevels();
  if (num_levels == 0) {
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishSubShapes({}));
  } else {
    StageSpec spec;
    spec.kind = proto::ReportKind::kSubShape;
    spec.domain = core::SubShapeDomainSize(config.t, config.allow_repeats);
    spec.epsilon = config.epsilon;
    spec.min_level = 1;
    spec.num_levels = num_levels;
    proto::SubShapeRequest request;
    request.alphabet = config.t;
    request.ell_s = ell_s;
    request.epsilon = config.epsilon;
    request.allow_repeats = config.allow_repeats;
    std::string encoded_request = proto::EncodeSubShapeRequest(request);
    auto context = proto::RoundContext::SubShape(request);
    if (!context.ok()) return context.status();
    auto outcome = RunTimedRound(run_round, split.pb, spec, encoded_request,
                                 AnswerWith(*context), "Pb", metrics);
    if (!outcome.ok()) return outcome.status();
    std::vector<std::vector<double>> level_counts(num_levels);
    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
      level_counts[lvl] = outcome->agg.DebiasedCounts(lvl);
    }
    PRIVSHAPE_RETURN_IF_ERROR(server->FinishSubShapes(level_counts));
  }

  // Rounds P_c: one candidate broadcast + EM selection per trie level.
  std::vector<std::vector<size_t>> level_groups =
      core::PartitionGroups(split.pc, static_cast<size_t>(ell_s));
  for (int level = 0; level < ell_s; ++level) {
    auto candidates = server->BeginTrieLevel(level);
    if (!candidates.ok()) return candidates.status();
    proto::CandidateRequest request;
    request.level = static_cast<uint64_t>(level);
    request.epsilon = config.epsilon;
    request.candidates = *candidates;
    // Still encoded once per round: the broadcast bytes are what a wire
    // deployment ships, and the metrics account for them — but no client
    // decodes it anymore; they all share the pre-decoded context.
    std::string encoded_request = proto::EncodeCandidateRequest(request);
    auto context =
        proto::RoundContext::Selection(std::move(request), config.metric);
    if (!context.ok()) return context.status();
    StageSpec spec;
    spec.kind = proto::ReportKind::kSelection;
    spec.domain = candidates->size();
    spec.epsilon = config.epsilon;
    spec.min_level = static_cast<uint64_t>(level);
    auto outcome = RunTimedRound(
        run_round, level_groups[static_cast<size_t>(level)], spec,
        encoded_request, AnswerWith(*context),
        "Pc.level" + std::to_string(level), metrics);
    if (!outcome.ok()) return outcome.status();
    PRIVSHAPE_RETURN_IF_ERROR(
        server->FinishTrieLevel(outcome->agg.DebiasedCounts(0)));
  }

  // Round P_d / P_e: refinement over the surviving candidates — GRR over
  // candidate indices for clustering (P_d), or the OUE candidate x class
  // round (P_e, §V-E) when the mechanism runs the classification task.
  auto candidates = server->BeginRefinement();
  if (!candidates.ok()) return candidates.status();
  Result<core::MechanismResult> result = Status::Internal("unreachable");
  if (config.disable_refinement) {
    result = server->FinishWithoutRefinement();
  } else if (config.num_classes > 0) {
    proto::ClassRefineRequest request;
    request.epsilon = config.epsilon;
    request.num_classes = static_cast<uint64_t>(config.num_classes);
    request.candidates = *candidates;
    std::string encoded_request = proto::EncodeClassRefineRequest(request);
    auto context = proto::RoundContext::ClassRefinement(std::move(request),
                                                        config.metric);
    if (!context.ok()) return context.status();
    StageSpec spec;
    spec.kind = proto::ReportKind::kClassRefine;
    spec.domain = context->cells();
    spec.epsilon = config.epsilon;
    auto outcome = RunTimedRound(run_round, split.pd, spec, encoded_request,
                                 AnswerWith(*context), "Pe", metrics);
    if (!outcome.ok()) return outcome.status();
    result = server->FinishClassRefinement(outcome->agg.DebiasedCounts(0));
  } else {
    proto::CandidateRequest request;
    request.level = 0;
    request.epsilon = config.epsilon;
    request.candidates = *candidates;
    std::string encoded_request = proto::EncodeCandidateRequest(request);
    auto context =
        proto::RoundContext::Refinement(std::move(request), config.metric);
    if (!context.ok()) return context.status();
    StageSpec spec;
    spec.kind = proto::ReportKind::kRefinement;
    spec.domain = std::max<size_t>(candidates->size(), 2);
    spec.epsilon = config.epsilon;
    auto outcome = RunTimedRound(run_round, split.pd, spec, encoded_request,
                                 AnswerWith(*context), "Pd", metrics);
    if (!outcome.ok()) return outcome.status();
    result = server->FinishRefinement(outcome->agg.DebiasedCounts(0));
  }

  if (metrics != nullptr) metrics->total_seconds = Now() - start;
  return result;
}

Result<core::MechanismResult> RoundCoordinator::Collect(
    const ClientFleet& fleet, CollectorMetrics* metrics) {
  if (config_.num_classes > 0 && !fleet.labeled()) {
    return Status::FailedPrecondition(
        "classification refinement requires a labeled fleet");
  }
  if (metrics != nullptr) {
    metrics->num_shards = EffectiveShards();
    metrics->num_threads = EffectiveThreads();
    metrics->queue_depth = options_.queue_depth;
    metrics->ingest = "streaming";
  }
  return DriveProtocol(
      config_, fleet.num_users(),
      [this, &fleet](const std::vector<size_t>& population,
                     const StageSpec& spec, const std::string&,
                     const AnswerFn& answer) {
        return RunRound(fleet, population, spec, answer);
      },
      metrics);
}

}  // namespace privshape::collector
