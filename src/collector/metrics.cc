#include "collector/metrics.h"

#include <fstream>

namespace privshape::collector {

double RoundStats::IngestedPerSec() const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(accepted + rejected) / seconds;
}

double RoundStats::AcceptedPerSec() const {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(accepted) / seconds;
}

size_t CollectorMetrics::TotalReports() const {
  size_t total = 0;
  for (const RoundStats& round : rounds) {
    total += round.accepted + round.rejected;
  }
  return total;
}

size_t CollectorMetrics::TotalAccepted() const {
  size_t total = 0;
  for (const RoundStats& round : rounds) total += round.accepted;
  return total;
}

size_t CollectorMetrics::TotalRejected() const {
  size_t total = 0;
  for (const RoundStats& round : rounds) total += round.rejected;
  return total;
}

size_t CollectorMetrics::TotalBytesUp() const {
  size_t total = 0;
  for (const RoundStats& round : rounds) total += round.bytes_up;
  return total;
}

double CollectorMetrics::TotalIngestedPerSec() const {
  if (total_seconds <= 0.0) return 0.0;
  return static_cast<double>(TotalReports()) / total_seconds;
}

double CollectorMetrics::TotalAcceptedPerSec() const {
  if (total_seconds <= 0.0) return 0.0;
  return static_cast<double>(TotalAccepted()) / total_seconds;
}

JsonValue CollectorMetrics::ToJson() const {
  JsonValue doc = JsonValue::Object();
  doc.Set("num_users", JsonValue::Uint(num_users));
  doc.Set("num_shards", JsonValue::Uint(num_shards));
  doc.Set("num_threads", JsonValue::Uint(num_threads));
  doc.Set("queue_depth", JsonValue::Uint(queue_depth));
  doc.Set("ingest", JsonValue::Str(ingest));
  doc.Set("total_seconds", JsonValue::Num(total_seconds));
  doc.Set("total_reports", JsonValue::Uint(TotalReports()));
  doc.Set("total_accepted", JsonValue::Uint(TotalAccepted()));
  doc.Set("total_rejected", JsonValue::Uint(TotalRejected()));
  doc.Set("total_bytes_up", JsonValue::Uint(TotalBytesUp()));
  // "ingested" divides accepted + rejected by wall-clock (serving
  // capacity); "accepted" divides only validated reports (useful work).
  // The old "reports_per_sec" key silently meant the former.
  doc.Set("ingested_per_sec", JsonValue::Num(TotalIngestedPerSec()));
  doc.Set("accepted_per_sec", JsonValue::Num(TotalAcceptedPerSec()));
  if (ingest == "socket") {
    doc.Set("connections", JsonValue::Uint(connections));
    doc.Set("disconnects", JsonValue::Uint(disconnects));
    doc.Set("protocol_errors", JsonValue::Uint(protocol_errors));
    doc.Set("stale_batches", JsonValue::Uint(stale_batches));
    doc.Set("deadline_drops", JsonValue::Uint(deadline_drops));
  }
  JsonValue stages = JsonValue::Array();
  for (const RoundStats& round : rounds) {
    JsonValue stage = JsonValue::Object();
    stage.Set("stage", JsonValue::Str(round.stage));
    stage.Set("users", JsonValue::Uint(round.users));
    stage.Set("accepted", JsonValue::Uint(round.accepted));
    stage.Set("rejected", JsonValue::Uint(round.rejected));
    stage.Set("client_errors", JsonValue::Uint(round.client_errors));
    stage.Set("distinct_words", JsonValue::Uint(round.distinct_words));
    stage.Set("bytes_up", JsonValue::Uint(round.bytes_up));
    stage.Set("bytes_down", JsonValue::Uint(round.bytes_down));
    stage.Set("seconds", JsonValue::Num(round.seconds));
    stage.Set("ingested_per_sec", JsonValue::Num(round.IngestedPerSec()));
    stage.Set("accepted_per_sec", JsonValue::Num(round.AcceptedPerSec()));
    if (round.ingest_batches > 0) {
      JsonValue latency = JsonValue::Object();
      latency.Set("batches", JsonValue::Uint(round.ingest_batches));
      latency.Set("p50_ns", JsonValue::Num(round.ingest_p50_ns));
      latency.Set("p95_ns", JsonValue::Num(round.ingest_p95_ns));
      latency.Set("p99_ns", JsonValue::Num(round.ingest_p99_ns));
      latency.Set("max_ns", JsonValue::Uint(round.ingest_max_ns));
      latency.Set("mean_ns", JsonValue::Num(round.ingest_mean_ns));
      stage.Set("ingest_latency", std::move(latency));
    }
    stages.Push(std::move(stage));
  }
  doc.Set("rounds", std::move(stages));
  return doc;
}

Status CollectorMetrics::WriteJsonFile(const std::string& path) const {
  return collector::WriteJsonFile(ToJson(), path);
}

Status WriteJsonFile(const JsonValue& doc, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open metrics file: " + path);
  }
  out << doc.Dump(2);
  return out.good() ? Status::Ok()
                    : Status::Internal("failed writing metrics: " + path);
}

}  // namespace privshape::collector
