#include "collector/ingest_lanes.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

namespace privshape::collector {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

IngestLanes::IngestLanes(ShardedAggregator* agg, size_t num_drainers,
                         size_t queue_depth, const std::string& gauge_prefix)
    : agg_(agg),
      ingest_latency_(std::make_unique<telemetry::Histogram>()) {
  size_t drainers = std::clamp<size_t>(num_drainers, 1, agg->num_shards());
  queues_.reserve(drainers);
  for (size_t d = 0; d < drainers; ++d) {
    queues_.push_back(std::make_unique<BatchQueue<ShardBatch>>(queue_depth));
    // Live backpressure visibility: a mid-round scrape shows which
    // drainers are saturated.
    queues_.back()->set_depth_gauge(
        telemetry::Registry::Default()
            .GetGauge(gauge_prefix + "_queue_depth_d" + std::to_string(d))
            ->raw());
  }
  errors_.assign(drainers, Status::Ok());
  drainers_.reserve(drainers);
  for (size_t d = 0; d < drainers; ++d) {
    drainers_.emplace_back([this, d] { Drain(d); });
  }
}

IngestLanes::~IngestLanes() { CloseAndJoin(); }

void IngestLanes::Drain(size_t d) {
  // An exception escaping a thread body would terminate the process, so
  // it becomes this drainer's error. The failed drainer closes its own
  // queue so producers blocked on it wake up; their remaining batches
  // are dropped, and Finish fails the round.
  try {
    ShardBatch item;
    while (queues_[d]->Pop(&item)) {
      uint64_t t0 = NowNs();
      agg_->ConsumeBatch(item.shard, item.reports);
      ingest_latency_->Record(NowNs() - t0);
    }
  } catch (const std::exception& e) {
    errors_[d] = Status::Internal("ingest drainer " + std::to_string(d) +
                                  " failed: " + e.what());
    queues_[d]->Close();
  } catch (...) {
    errors_[d] = Status::Internal("ingest drainer " + std::to_string(d) +
                                  " failed");
    queues_[d]->Close();
  }
}

void IngestLanes::Push(size_t shard, proto::ReportBatch reports) {
  // Reduced to a lane first, so lane s always routes to drainer s % D and
  // keeps its single writer whatever index the caller passes.
  shard %= agg_->num_shards();
  queues_[shard % queues_.size()]->Push(ShardBatch{shard, std::move(reports)});
}

void IngestLanes::CloseAndJoin() {
  for (auto& queue : queues_) queue->Close();
  for (auto& drainer : drainers_) {
    if (drainer.joinable()) drainer.join();
  }
}

Result<telemetry::HistogramSnapshot> IngestLanes::Finish() {
  CloseAndJoin();
  for (const Status& error : errors_) {
    if (!error.ok()) return error;
  }
  return ingest_latency_->Snapshot();
}

}  // namespace privshape::collector
