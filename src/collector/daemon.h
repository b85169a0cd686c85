/// \file
/// `privshape_collectord` core: a TCP collection server (epoll,
/// non-blocking, length-prefixed frames) that drives the full Algorithm 2
/// protocol over real sockets. Each round, the daemon partitions the
/// stage population across the connected clients, broadcasts the round's
/// encoded request, ingests framed ReportBatch uploads through the same
/// bounded-queue drainer lanes the in-process coordinator uses, and
/// barriers on per-connection RoundDone messages (with a deadline, so a
/// stalled or dead client cannot wedge the fleet). Invariant: for a fixed
/// fleet seed the extracted shapes are byte-identical to core::PrivShape
/// — the wire changes how reports travel, never what is counted.

#ifndef PRIVSHAPE_COLLECTOR_DAEMON_H_
#define PRIVSHAPE_COLLECTOR_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collector/metrics.h"
#include "collector/round_coordinator.h"
#include "common/socket.h"
#include "common/status.h"
#include "core/config.h"
#include "net/frame.h"
#include "telemetry/stats_endpoint.h"

namespace privshape::collector {

/// Serving knobs of the socket daemon. Like CollectorOptions, none of
/// them may change the extracted shapes — only how the rounds run.
struct DaemonOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with CollectorDaemon::port().
  uint16_t port = 0;
  /// Handshaked connections to wait for before the first round starts.
  size_t min_clients = 1;
  /// How long to wait for min_clients before giving up.
  double accept_timeout_seconds = 30.0;
  /// Per-round completion deadline: connections that have not sent
  /// RoundDone by then are dropped and the round completes with the
  /// survivors' reports.
  double round_deadline_seconds = 30.0;
  /// Aggregation lanes (0 = one per drainer).
  size_t num_shards = 0;
  /// Dedicated aggregation drainer threads fed by the event loop.
  size_t num_drainers = 1;
  /// Batches buffered per drainer queue before ingestion backpressures
  /// the event loop (and, through TCP, the clients); 0 = unbounded.
  size_t queue_depth = 8;
  /// Mount a scrape endpoint (Prometheus text on /metrics, JSON snapshot
  /// elsewhere) on the daemon's own event loop. 0 binds an ephemeral
  /// port; read it back with CollectorDaemon::stats_port().
  bool stats_enabled = false;
  uint16_t stats_port = 0;
};

/// Wire-level health counters, exposed for tests and merged into the
/// CollectorMetrics JSON. Only read them after Serve returned.
struct DaemonStats {
  size_t connections_accepted = 0;  ///< TCP accepts
  size_t handshakes = 0;            ///< valid Hello/Welcome exchanges
  size_t disconnects = 0;           ///< connections lost before Complete
  size_t protocol_errors = 0;       ///< connections dropped for violations
  size_t stale_batches = 0;         ///< uploads for a past round, discarded
  size_t deadline_drops = 0;        ///< connections dropped at a deadline
};

/// The collection daemon. Usage:
///   CollectorDaemon daemon(config, num_users, options);
///   PRIVSHAPE_RETURN_IF_ERROR(daemon.Start());   // port() now valid
///   auto result = daemon.Serve(&metrics);        // runs the protocol
/// Single-threaded event loop plus drainer threads per round; the whole
/// object must be driven from one thread. Serve polls the global
/// shutdown flag (common/shutdown.h) and returns Status::Cancelled —
/// with queues drained, sockets closed, and metrics populated — when a
/// SIGINT/SIGTERM arrives mid-protocol.
class CollectorDaemon {
 public:
  /// `num_users` is the total simulated fleet size; every client's Hello
  /// must declare the same number or the handshake is rejected.
  CollectorDaemon(core::MechanismConfig config, size_t num_users,
                  DaemonOptions options);
  ~CollectorDaemon();

  CollectorDaemon(const CollectorDaemon&) = delete;
  CollectorDaemon& operator=(const CollectorDaemon&) = delete;

  /// Binds and listens. After this, port() is the actual port.
  Status Start();

  uint16_t port() const { return port_; }

  /// Actual port of the scrape endpoint; 0 when stats are disabled or
  /// Start has not run.
  uint16_t stats_port() const {
    return stats_endpoint_ != nullptr ? stats_endpoint_->port() : 0;
  }

  /// Accepts clients until min_clients are handshaked, then drives the
  /// whole protocol over the wire and broadcasts the result. Returns the
  /// extracted shapes; on shutdown or fatal transport error, returns the
  /// corresponding status with `metrics` still populated as far as the
  /// run got.
  Result<core::MechanismResult> Serve(CollectorMetrics* metrics = nullptr);

  const DaemonStats& stats() const { return stats_; }
  const core::MechanismConfig& config() const { return config_; }

  size_t EffectiveShards() const;
  size_t EffectiveDrainers() const;

 private:
  struct Connection;
  struct RoundState;

  // Event-loop plumbing (definitions in daemon.cc).
  Status ProcessEvents(int timeout_ms);
  void AcceptPending();
  void HandleReadable(Connection& conn);
  void HandleFrame(Connection& conn, const net::Frame& frame);
  void HandleHello(Connection& conn, const net::Frame& frame);
  void HandleBatchUpload(Connection& conn, const net::Frame& frame);
  void HandleRoundDone(Connection& conn, const net::Frame& frame);
  void SendFrame(Connection& conn, net::MsgType type, std::string_view body);
  void FlushOutbox(Connection& conn);
  void DropConnection(Connection& conn, const std::string& reason,
                      bool protocol_error);
  size_t LiveHandshaked() const;

  /// One round over the wire. Fails with FailedPrecondition when no
  /// client is left to ask, or with the event loop's or a drainer's error.
  Result<RoundOutcome> RunNetworkRound(const std::vector<size_t>& population,
                                       const StageSpec& spec,
                                       const std::string& encoded_request);
  void BroadcastComplete(const core::MechanismResult& result);
  void CloseAll();

  /// Scrape-response body for the stats endpoint: runs on the event-loop
  /// thread, so reading daemon state here is race-free.
  std::string StatsContent(std::string_view path);

  // Thread-safety contract (checked by design, not by a mutex): every
  // member below — the connection table, the wire stats, the round
  // pointer — is owned exclusively by the one thread driving Serve's
  // event loop. Per-round drainer threads never touch daemon state;
  // the only cross-thread handoff is the round's IngestLanes
  // (collector/ingest_lanes.h, annotated BatchQueues inside), plus
  // telemetry's lock-free instruments. Adding a second toucher means adding a
  // Mutex + PS_GUARDED_BY here first.
  core::MechanismConfig config_;
  size_t num_users_;
  DaemonOptions options_;
  DaemonStats stats_;

  UniqueFd listener_;
  uint16_t port_ = 0;
  Poller poller_;
  std::vector<PollEvent> events_;
  std::vector<std::unique_ptr<Connection>> conns_;
  /// Scrape endpoint sharing poller_; its tags live at 1<<62 and up,
  /// far above any conns_ index and below kListenerTag.
  std::unique_ptr<telemetry::StatsEndpoint> stats_endpoint_;

  uint64_t current_round_ = 0;
  RoundState* round_ = nullptr;  ///< non-null only inside RunNetworkRound
};

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_DAEMON_H_
