/// \file
/// `privshape_collectord` — the PrivShape collection protocol served over
/// TCP. The daemon owns only the mechanism configuration and the fleet
/// size; the users' private words live on the client side
/// (privshape_loadgen or any speaker of the net/ wire protocol). Runs the
/// whole Algorithm 2 protocol once a quorum of clients handshakes, prints
/// the extracted shapes, and exits.
///
/// Examples:
///   privshape_collectord --port 9477 --users 100000 --min-clients 8
///   privshape_collectord --port 0 --users 50000 --dataset symbols
///   privshape_collectord --port 9478 --users 50000 --num-classes 3
///       --json collectord-metrics.json
///
/// SIGINT/SIGTERM: finishes draining the round in flight, closes every
/// socket, still writes --json metrics, exits 3. Unknown flags (--help
/// included) exit 1 and list the accepted ones.

#include <cstdio>
#include <iostream>
#include <string>

#include "collector/client_fleet.h"
#include "collector/daemon.h"
#include "collector/shapes_io.h"
#include "common/cli.h"
#include "common/shutdown.h"
#include "telemetry/trace.h"

namespace {

using namespace privshape;  // NOLINT(build/namespaces)

/// Non-negative flag value, parsed strictly (same contract as the
/// in-process collector CLI: typos fail loudly, never run defaults).
Result<size_t> GetCount(const CliArgs& args, const std::string& name,
                        int def) {
  auto value = args.GetIntStatus(name, def);
  if (!value.ok()) return value.status();
  if (*value < 0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  return static_cast<size_t>(*value);
}

/// Mechanism config from flags: the generated-dataset defaults plus the
/// same overrides privshape_collector accepts. The loadgen builds its
/// fleet from the same flags — seed agreement is enforced by the
/// handshake, the rest by --check.
Result<core::MechanismConfig> ConfigFromArgs(const CliArgs& args) {
  std::string dataset = args.GetString("dataset", "trace");
  auto config = collector::GeneratedDatasetConfig(dataset);
  if (!config.ok()) return config.status();
  auto epsilon = args.GetDoubleStatus("epsilon", config->epsilon);
  if (!epsilon.ok()) return epsilon.status();
  config->epsilon = *epsilon;
  auto seed = args.GetIntStatus("seed", 2023);
  if (!seed.ok()) return seed.status();
  config->seed = static_cast<uint64_t>(*seed);
  auto k = args.GetIntStatus("k", config->k);
  if (!k.ok()) return k.status();
  config->k = *k;
  auto c = args.GetIntStatus("c", config->c);
  if (!c.ok()) return c.status();
  config->c = *c;
  auto classes = args.GetIntStatus("num_classes", 0);
  if (!classes.ok()) return classes.status();
  classes = args.GetIntStatus("num-classes", *classes);
  if (!classes.ok()) return classes.status();
  if (*classes < 0) {
    return Status::InvalidArgument("--num-classes must be >= 0");
  }
  config->num_classes = *classes;
  return config;
}

int Main(int argc, char** argv) {
  CliArgs args(argc, argv);
  Status flags = args.RejectUnknown(
      {"host", "port", "users", "min-clients", "shards", "drainers",
       "queue-depth", "accept-timeout", "round-deadline", "stats-port",
       "dataset", "seed", "epsilon", "k", "c", "num-classes", "num_classes",
       "trace", "json"});
  if (!flags.ok()) {
    std::cerr << "privshape_collectord: " << flags << "\n";
    return 1;
  }
  InstallShutdownHandler();

  auto config = ConfigFromArgs(args);
  if (!config.ok()) {
    std::cerr << "privshape_collectord: " << config.status() << "\n";
    return 1;
  }
  auto users = GetCount(args, "users", 100000);
  auto port = GetCount(args, "port", 0);
  auto min_clients = GetCount(args, "min-clients", 1);
  auto shards = GetCount(args, "shards", 0);
  auto drainers = GetCount(args, "drainers", 2);
  auto queue_depth = GetCount(args, "queue-depth",
                              static_cast<int>(collector::DaemonOptions{}
                                                   .queue_depth));
  auto accept_timeout = args.GetDoubleStatus("accept-timeout", 30.0);
  auto round_deadline = args.GetDoubleStatus("round-deadline", 30.0);
  for (const auto* flag : {&users, &port, &min_clients, &shards, &drainers,
                           &queue_depth}) {
    if (!flag->ok()) {
      std::cerr << "privshape_collectord: " << flag->status() << "\n";
      return 1;
    }
  }
  if (!accept_timeout.ok() || !round_deadline.ok()) {
    std::cerr << "privshape_collectord: "
              << (!accept_timeout.ok() ? accept_timeout.status()
                                       : round_deadline.status())
              << "\n";
    return 1;
  }
  if (*port > 65535) {
    std::cerr << "privshape_collectord: --port must be <= 65535\n";
    return 1;
  }
  if (*min_clients == 0) {
    std::cerr << "privshape_collectord: --min-clients must be >= 1\n";
    return 1;
  }

  collector::DaemonOptions options;
  options.host = args.GetString("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(*port);
  options.min_clients = *min_clients;
  options.accept_timeout_seconds = *accept_timeout;
  options.round_deadline_seconds = *round_deadline;
  options.num_shards = *shards;
  options.num_drainers = *drainers;
  options.queue_depth = *queue_depth;
  if (args.Has("stats-port")) {
    auto stats_port = GetCount(args, "stats-port", 0);
    if (!stats_port.ok() || *stats_port > 65535) {
      std::cerr << "privshape_collectord: --stats-port must be in "
                   "[0, 65535]\n";
      return 1;
    }
    options.stats_enabled = true;
    options.stats_port = static_cast<uint16_t>(*stats_port);
  }

  // --trace FILE: record per-round/per-connection spans and write a
  // chrome://tracing JSON on exit.
  telemetry::ScopedTraceFile trace(args.GetString("trace", ""));

  collector::CollectorDaemon daemon(*config, *users, options);
  Status started = daemon.Start();
  if (!started.ok()) {
    std::cerr << "privshape_collectord: " << started << "\n";
    return 1;
  }
  // CI greps this line for the bound port; flush before blocking.
  std::printf("privshape_collectord: listening on %s:%u (%zu users, "
              "min %zu clients)\n",
              options.host.c_str(), daemon.port(), *users, *min_clients);
  if (options.stats_enabled) {
    // CI greps this line for the scrape port.
    std::printf("privshape_collectord: stats endpoint on %s:%u\n",
                options.host.c_str(), daemon.stats_port());
  }
  std::fflush(stdout);

  collector::CollectorMetrics metrics;
  auto result = daemon.Serve(&metrics);

  bool labeled = config->num_classes > 0;
  std::string json = args.GetString("json", "");
  auto write_json = [&](const core::MechanismResult* shapes) -> bool {
    if (json.empty()) return true;
    JsonValue doc = metrics.ToJson();
    if (shapes != nullptr) {
      doc.Set("shapes", collector::ShapesJson(*shapes, labeled));
    }
    Status written = collector::WriteJsonFile(doc, json);
    if (!written.ok()) {
      std::cerr << "privshape_collectord: " << written << "\n";
      return false;
    }
    std::printf("metrics written to %s\n", json.c_str());
    return true;
  };

  if (!result.ok()) {
    std::cerr << "privshape_collectord: " << result.status() << "\n";
    // A graceful shutdown still leaves a usable metrics artifact behind.
    bool wrote = write_json(nullptr);
    if (result.status().code() == StatusCode::kCancelled && wrote) return 3;
    return 1;
  }

  collector::PrintShapes(*result, labeled);
  std::printf("\n%-10s %10s %10s %10s %12s %10s %12s %12s\n", "stage",
              "users", "accepted", "rejected", "accepted/s", "seconds",
              "ingp50(us)", "ingp99(us)");
  for (const auto& round : metrics.rounds) {
    std::printf("%-10s %10zu %10zu %10zu %12.0f %10.3f %12.1f %12.1f\n",
                round.stage.c_str(), round.users, round.accepted,
                round.rejected, round.AcceptedPerSec(), round.seconds,
                round.ingest_p50_ns / 1000.0, round.ingest_p99_ns / 1000.0);
  }
  const auto& stats = daemon.stats();
  std::printf("connections: %zu handshaked, %zu disconnects, "
              "%zu protocol errors, %zu stale batches, %zu deadline drops\n",
              stats.handshakes, stats.disconnects, stats.protocol_errors,
              stats.stale_batches, stats.deadline_drops);
  if (!write_json(&*result)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
