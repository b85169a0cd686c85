#ifndef PRIVSHAPE_COLLECTOR_ROUND_COORDINATOR_H_
#define PRIVSHAPE_COLLECTOR_ROUND_COORDINATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/metrics.h"
#include "collector/sharded_aggregator.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/rounds.h"
#include "telemetry/telemetry.h"

namespace privshape::collector {

/// Serving-layer knobs, orthogonal to the mechanism configuration: none of
/// them may change the extracted shapes (that is the determinism
/// contract), only how fast the rounds run.
struct CollectorOptions {
  /// Independent aggregation lanes; 0 means one per pool thread. More
  /// shards than threads is fine (workers pick up whole shards).
  size_t num_shards = 0;
  /// Encoded reports buffered per shard before they are handed to the
  /// aggregation side (one queue item / ConsumeBatch call per batch).
  size_t batch_size = 256;
  /// Batches buffered per drainer queue before Push blocks (ingestion
  /// backpressure); 0 means unbounded.
  size_t queue_depth = 8;
};

/// Answers one round's request for one materialized client, appending the
/// encoded report to `out` on success (and appending nothing on failure).
/// `user` is the fleet-wide user id (used by tests to inject mid-stream
/// failures); `scratch` is the calling worker's reusable answer buffers —
/// with a shared RoundContext this whole path allocates nothing per
/// report. Typically `session.AnswerTo(ctx, &scratch, &out)`.
using AnswerFn =
    std::function<Status(proto::ClientSession&, size_t user,
                         proto::AnswerScratch& scratch,
                         proto::ReportBatch& out)>;

/// Everything one round execution produces: the (possibly multi-lane)
/// aggregation state, plus the count of sessions that failed to answer.
struct RoundOutcome {
  ShardedAggregator agg;
  size_t client_errors = 0;
  /// Per-batch ingest latency (one ConsumeBatch call = one sample, in
  /// nanoseconds). A snapshot — plain movable data — because outcomes are
  /// returned by value; the runner's live Histogram never leaves its
  /// round.
  telemetry::HistogramSnapshot ingest_latency;
  /// Word-dependent answers computed (AnswerScratch::distinct_words),
  /// summed over the round's workers: each worker's distinct words while
  /// its memo has room and is on, one per user after that
  /// (proto::AnswerMemo). 0 where clients answer remotely (the socket
  /// daemon).
  size_t distinct_words = 0;
};

/// Executes one collection round over `population` for stage `spec`:
/// whatever the executor (the in-process coordinator, or the socket daemon
/// broadcasting to live connections), the returned aggregation must be
/// exactly what a single unsharded aggregator fed the same reports would
/// hold. A round that cannot complete (every client gone, a failed
/// drainer) returns its status, and DriveProtocol stops with it.
/// `encoded_request` is the round's broadcast message, already encoded —
/// in-process runners ignore it (their clients share the pre-decoded
/// RoundContext), the network runner ships it verbatim to every client.
using RoundRunner = std::function<Result<RoundOutcome>(
    const std::vector<size_t>& population, const StageSpec& spec,
    const std::string& encoded_request, const AnswerFn& answer)>;

/// Drives the full Algorithm 2 protocol (P_a -> P_b -> ell_S x P_c ->
/// P_d, or the OUE classification round P_e when config.num_classes > 0
/// -> post-processing) against `run_round`: this is core::RunRounds — the
/// one round sequence, which core::PrivShape::Run runs in process — with
/// every round executed and timed through `run_round`. `num_users` is the
/// whole population (the stage split is the server's only draw from the
/// shared seed).
/// Per-round metrics (stage timings, accepted/rejected/bytes, client
/// errors) are recorded into `metrics` when non-null. A round's error
/// status is returned as is, before any server-side decision.
///
/// Graceful shutdown: DriveProtocol polls common/shutdown.h's flag after
/// every round (and RunRound's stripe workers poll it per user), so a
/// SIGINT mid-protocol stops producing new reports, records the partial
/// round's stats, and returns Status::Cancelled instead of finishing —
/// the caller still holds usable metrics.
Result<core::MechanismResult> DriveProtocol(
    const core::MechanismConfig& config, size_t num_users,
    const RoundRunner& run_round, CollectorMetrics* metrics = nullptr);

/// The in-process collector: answers rounds over the fleet on its thread
/// pool and ingests reports through IngestLanes into a lock-free
/// ShardedAggregator. Aggregation is exact integer merging, so for a
/// fixed fleet seed the result is byte-identical to core::PrivShape::Run
/// on the same words, for any {shard, thread, batch, queue-depth}
/// configuration.
class RoundCoordinator {
 public:
  /// `pool` must outlive the coordinator; pass nullptr to run every round
  /// inline on the calling thread (still sharded, still deterministic).
  RoundCoordinator(core::MechanismConfig config, CollectorOptions options,
                   ThreadPool* pool);

  /// Runs the whole protocol over the fleet. Classification refinement
  /// (config.num_classes > 0) requires a labeled fleet — the P_e round
  /// replaces P_d's GRR with OUE over candidate x class cells.
  Result<core::MechanismResult> Collect(const ClientFleet& fleet,
                                        CollectorMetrics* metrics = nullptr);

  /// Broadcasts one round to `population` and ingests the answers: pool
  /// workers answer population stripes and push encoded batches into
  /// IngestLanes, whose drainers aggregate concurrently. Fails only if a
  /// drainer failed.
  Result<RoundOutcome> RunRound(const ClientFleet& fleet,
                                const std::vector<size_t>& population,
                                const StageSpec& spec,
                                const AnswerFn& answer) const;

  size_t EffectiveShards() const;
  size_t EffectiveThreads() const;

 private:
  core::MechanismConfig config_;
  CollectorOptions options_;
  ThreadPool* pool_;
};

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_ROUND_COORDINATOR_H_
