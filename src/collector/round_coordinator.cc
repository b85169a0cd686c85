#include "collector/round_coordinator.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "collector/ingest_lanes.h"
#include "common/shutdown.h"
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
  if (metrics != nullptr) metrics->num_users = num_users;
  // The collector's executor: every round runs timed through `run_round`,
  // its clients answering against the sequence's pre-built context.
  auto result = core::RunRounds(
      config, num_users,
      [&](const core::RoundRequest& round)
          -> Result<std::vector<std::vector<double>>> {
        const proto::RoundContext& ctx = round.context;
        StageSpec spec;
        spec.kind = ctx.kind();
        spec.domain = ctx.domain();
        spec.epsilon = ctx.epsilon();
        spec.min_level = ctx.min_level();
        spec.num_levels = ctx.num_levels();
        auto outcome =
            RunTimedRound(run_round, round.population, spec,
                          round.encoded_request, AnswerWith(ctx),
                          round.stage, metrics);
        if (!outcome.ok()) return outcome.status();
        std::vector<std::vector<double>> counts(spec.num_levels);
        for (size_t lvl = 0; lvl < spec.num_levels; ++lvl) {
          counts[lvl] = outcome->agg.DebiasedCounts(lvl);
        }
        return counts;
      });
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
