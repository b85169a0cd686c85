/// \file
/// `privshape_loadgen` — simulates the device fleet against a running
/// privshape_collectord, multiplexing the users over N TCP connections.
/// Must be launched with the same --users/--dataset/--seed (and
/// --num-classes for classification runs) as the daemon; the handshake
/// rejects a fleet-size or seed mismatch.
///
/// Examples:
///   privshape_loadgen --port 9477 --users 100000 --connections 8
///   privshape_loadgen --port 9478 --users 50000 --num-classes 3
///       --connections 4 --check
///
/// --check re-runs the mechanism through the single-threaded core
/// pipeline on the locally synthesized words and exits 2 unless the
/// daemon's broadcast shapes are byte-identical — the determinism
/// contract, verified end to end over real sockets. Unknown flags exit 1.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "collector/loadgen.h"
#include "collector/metrics.h"
#include "collector/shapes_io.h"
#include "common/cli.h"
#include "common/json.h"
#include "core/privshape.h"
#include "telemetry/trace.h"

namespace {

using namespace privshape;  // NOLINT(build/namespaces)

Result<size_t> GetCount(const CliArgs& args, const std::string& name,
                        int def) {
  auto value = args.GetIntStatus(name, def);
  if (!value.ok()) return value.status();
  if (*value < 0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  return static_cast<size_t>(*value);
}

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  Status flags = args.RejectUnknown(
      {"host", "port", "users", "connections", "batch-size", "timeout",
       "dataset", "seed", "epsilon", "k", "c", "num-classes", "num_classes",
       "check", "trace", "json"});
  if (!flags.ok()) {
    std::cerr << "privshape_loadgen: " << flags << "\n";
    return 1;
  }

  std::string dataset = args.GetString("dataset", "trace");
  auto config = collector::GeneratedDatasetConfig(dataset);
  if (!config.ok()) {
    std::cerr << "privshape_loadgen: " << config.status() << "\n";
    return 1;
  }
  auto epsilon = args.GetDoubleStatus("epsilon", config->epsilon);
  auto timeout = args.GetDoubleStatus("timeout", 120.0);
  auto seed = args.GetIntStatus("seed", 2023);
  auto k = args.GetIntStatus("k", config->k);
  auto c = args.GetIntStatus("c", config->c);
  auto classes = args.GetIntStatus("num_classes", 0);
  if (classes.ok()) classes = args.GetIntStatus("num-classes", *classes);
  auto users = GetCount(args, "users", 100000);
  auto port = GetCount(args, "port", 0);
  auto connections = GetCount(args, "connections", 1);
  auto batch_size = GetCount(args, "batch-size", 256);
  for (const auto* flag : {&users, &port, &connections, &batch_size}) {
    if (!flag->ok()) {
      std::cerr << "privshape_loadgen: " << flag->status() << "\n";
      return 1;
    }
  }
  if (!epsilon.ok() || !timeout.ok() || !seed.ok() || !k.ok() || !c.ok() ||
      !classes.ok()) {
    std::cerr << "privshape_loadgen: malformed numeric flag\n";
    return 1;
  }
  if (*classes < 0) {
    std::cerr << "privshape_loadgen: --num-classes must be >= 0\n";
    return 1;
  }
  if (*port == 0 || *port > 65535) {
    std::cerr << "privshape_loadgen: --port must be in [1, 65535]\n";
    return 1;
  }
  config->epsilon = *epsilon;
  config->seed = static_cast<uint64_t>(*seed);
  config->k = *k;
  config->c = *c;
  config->num_classes = *classes;

  auto words = collector::GeneratedWordSource(dataset, config->seed);
  if (!words.ok()) {
    std::cerr << "privshape_loadgen: " << words.status() << "\n";
    return 1;
  }
  collector::ClientFleet::LabelFn label_fn;
  if (config->num_classes > 0) {
    auto dataset_classes = collector::GeneratedNumClasses(dataset);
    if (!dataset_classes.ok() || config->num_classes < *dataset_classes) {
      std::cerr << "privshape_loadgen: --num-classes must be >= the "
                   "dataset's class count\n";
      return 1;
    }
    auto labels = collector::GeneratedLabelSource(dataset);
    if (!labels.ok()) {
      std::cerr << "privshape_loadgen: " << labels.status() << "\n";
      return 1;
    }
    label_fn = std::move(*labels);
  }
  collector::ClientFleet fleet(*users, std::move(*words), config->metric,
                               config->seed, std::move(label_fn));

  collector::LoadgenOptions options;
  options.host = args.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(*port);
  options.connections = *connections;
  options.batch_size = *batch_size;
  options.timeout_seconds = *timeout;

  // --trace FILE: per-round client spans, chrome://tracing JSON on exit.
  telemetry::ScopedTraceFile trace(args.GetString("trace", ""));

  std::printf("privshape_loadgen: %zu users over %zu connection(s) to "
              "%s:%u\n",
              *users, options.connections, options.host.c_str(),
              options.port);
  std::fflush(stdout);
  auto outcome = collector::RunLoadgen(fleet, options);
  if (!outcome.ok()) {
    std::cerr << "privshape_loadgen: " << outcome.status() << "\n";
    return 1;
  }

  bool labeled = config->num_classes > 0;
  collector::PrintShapes(outcome->result, labeled);
  std::printf("rounds: %zu, reports sent: %zu, client errors: %zu, "
              "bytes up/down: %zu/%zu\n",
              outcome->rounds, outcome->reports_sent,
              outcome->client_errors, outcome->bytes_up,
              outcome->bytes_down);
  if (!outcome->stage_latency.empty()) {
    std::printf("\nclient round-trip latency (RoundBegin -> RoundDone):\n");
    std::printf("%-10s %8s %12s %12s %12s %12s\n", "stage", "samples",
                "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)");
    for (const auto& lat : outcome->stage_latency) {
      std::printf("%-10s %8llu %12.3f %12.3f %12.3f %12.3f\n",
                  lat.stage.c_str(),
                  static_cast<unsigned long long>(lat.samples),
                  lat.p50_ns / 1e6, lat.p95_ns / 1e6, lat.p99_ns / 1e6,
                  static_cast<double>(lat.max_ns) / 1e6);
    }
  }

  bool check_ran = false;
  bool check_ok = false;
  if (args.Has("check")) {
    std::printf("check: materializing %zu words for the core reference\n",
                *users);
    std::vector<Sequence> all_words = fleet.MaterializeWords();
    std::vector<int> all_labels = fleet.MaterializeLabels();
    core::PrivShape reference(*config);
    auto expected =
        reference.Run(all_words, labeled ? &all_labels : nullptr);
    if (!expected.ok()) {
      std::cerr << "privshape_loadgen: core pipeline failed: "
                << expected.status() << "\n";
      return 1;
    }
    check_ran = true;
    check_ok = collector::SameShapes(*expected, outcome->result);
    if (check_ok) {
      std::printf(
          "check: socket shapes == core pipeline (byte-identical)\n");
    } else {
      std::cerr << "privshape_loadgen: socket shapes DIVERGE from the "
                   "core pipeline — determinism contract VIOLATED\n";
    }
  }

  std::string json = args.GetString("json", "");
  if (!json.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("users", JsonValue::Uint(*users));
    doc.Set("connections", JsonValue::Uint(options.connections));
    doc.Set("rounds", JsonValue::Uint(outcome->rounds));
    doc.Set("reports_sent", JsonValue::Uint(outcome->reports_sent));
    doc.Set("client_errors", JsonValue::Uint(outcome->client_errors));
    doc.Set("distinct_words", JsonValue::Uint(outcome->distinct_words));
    doc.Set("bytes_up", JsonValue::Uint(outcome->bytes_up));
    doc.Set("bytes_down", JsonValue::Uint(outcome->bytes_down));
    JsonValue stages = JsonValue::Array();
    for (const auto& lat : outcome->stage_latency) {
      JsonValue stage = JsonValue::Object();
      stage.Set("stage", JsonValue::Str(lat.stage));
      stage.Set("samples", JsonValue::Uint(lat.samples));
      stage.Set("p50_ns", JsonValue::Num(lat.p50_ns));
      stage.Set("p95_ns", JsonValue::Num(lat.p95_ns));
      stage.Set("p99_ns", JsonValue::Num(lat.p99_ns));
      stage.Set("max_ns", JsonValue::Uint(lat.max_ns));
      stage.Set("mean_ns", JsonValue::Num(lat.mean_ns));
      stages.Push(std::move(stage));
    }
    doc.Set("stage_latency", std::move(stages));
    if (check_ran) doc.Set("check_ok", JsonValue::Bool(check_ok));
    Status written = collector::WriteJsonFile(doc, json);
    if (!written.ok()) {
      std::cerr << "privshape_loadgen: " << written << "\n";
      return 1;
    }
    std::printf("loadgen stats written to %s\n", json.c_str());
  }

  if (check_ran && !check_ok) return 2;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
