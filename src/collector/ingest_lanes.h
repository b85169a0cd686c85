#ifndef PRIVSHAPE_COLLECTOR_INGEST_LANES_H_
#define PRIVSHAPE_COLLECTOR_INGEST_LANES_H_

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collector/sharded_aggregator.h"
#include "common/batch_queue.h"
#include "common/status.h"
#include "protocol/messages.h"
#include "telemetry/telemetry.h"

namespace privshape::collector {

/// One queued unit of ingestion: a flat batch of encoded reports bound
/// for one aggregation lane (one buffer per batch — producers allocate
/// per batch, never per report).
struct ShardBatch {
  size_t shard = 0;
  proto::ReportBatch reports;
};

/// The one ingestion topology, shared by the in-process coordinator (fed
/// by pool workers) and the socket daemon (fed by its event loop).
///
/// D bounded MPSC queues, each drained by its own dedicated thread into
/// `agg`: drainer d is the only consumer of queue d and the only writer
/// of lanes {s : s % D == d}, so aggregation takes no locks and the
/// integer-count merge stays exact whatever the arrival order. Every
/// ConsumeBatch call is one sample of the per-batch ingest histogram.
///
/// Lifetime: `agg` must outlive the lanes. Finish (or, on an early exit,
/// the destructor) closes every queue and joins every drainer; batches
/// pushed before that are always ingested.
class IngestLanes {
 public:
  /// Starts min(num_drainers, agg->num_shards()) drainers (at least one).
  /// `queue_depth` bounds each queue (0 = unbounded); queue d mirrors its
  /// depth into the `<gauge_prefix>_queue_depth_d<d>` gauge.
  IngestLanes(ShardedAggregator* agg, size_t num_drainers,
              size_t queue_depth, const std::string& gauge_prefix);
  ~IngestLanes();

  IngestLanes(const IngestLanes&) = delete;
  IngestLanes& operator=(const IngestLanes&) = delete;

  /// Hands `reports` to the drainer owning lane `shard % num_shards`
  /// (any index is fine; participant or stripe numbers work). Blocks while
  /// that drainer's queue is full — the backpressure that reaches pool
  /// workers directly and socket clients through TCP. A batch pushed
  /// after its drainer failed is dropped; Finish reports the failure.
  void Push(size_t shard, proto::ReportBatch reports);

  /// Closes the queues, waits until every batch is ingested, and returns
  /// the round's per-batch ingest latency (nanoseconds) — or Internal if
  /// a drainer failed, since the aggregation is then incomplete.
  Result<telemetry::HistogramSnapshot> Finish();

 private:
  void Drain(size_t d);
  void CloseAndJoin();

  ShardedAggregator* agg_;
  std::vector<std::unique_ptr<BatchQueue<ShardBatch>>> queues_;
  /// Per-drainer failure, written only by that drainer and read only after
  /// the join.
  std::vector<Status> errors_;
  /// Shared by every drainer (Record is relaxed atomics, once per batch);
  /// heap-allocated because it is ~24KB of atomics.
  std::unique_ptr<telemetry::Histogram> ingest_latency_;
  std::vector<std::thread> drainers_;
};

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_INGEST_LANES_H_
