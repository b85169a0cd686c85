/// \file
/// `privshape_loadgen` core: drives a CollectorDaemon over real TCP from
/// the client side, simulating the whole device fleet multiplexed over N
/// connections. Each connection thread handshakes, then answers every
/// round it is assigned with the same per-user-seeded ClientSession path
/// the in-process collector uses — so the daemon cannot tell a loadgen
/// from a million real devices, and the extracted shapes stay
/// byte-identical to core::PrivShape for the same fleet seed.

#ifndef PRIVSHAPE_COLLECTOR_LOADGEN_H_
#define PRIVSHAPE_COLLECTOR_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "collector/client_fleet.h"
#include "common/status.h"
#include "core/config.h"

namespace privshape::collector {

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Parallel TCP connections the fleet is multiplexed over.
  size_t connections = 1;
  /// Reports per BatchUpload frame.
  size_t batch_size = 256;
  /// SO_RCVTIMEO per read: bounds how long a connection waits for the
  /// next round (covers the daemon's aggregation time between rounds).
  double timeout_seconds = 120.0;
};

/// Client-observed round handling latency for one protocol stage:
/// RoundBegin decoded -> RoundDone written, one sample per connection
/// that served the stage. Percentiles come from the telemetry
/// log-linear histogram (<= 6.25% relative bucketing error).
struct StageLatency {
  std::string stage;     ///< "Pa", "Pb", "Pc.level0", ..., "Pd"/"Pe"
  uint64_t samples = 0;  ///< connections that served this stage
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  uint64_t max_ns = 0;
  double mean_ns = 0.0;
};

/// What a loadgen run produced, aggregated over every connection.
struct LoadgenOutcome {
  /// The daemon's extracted shapes, decoded from its Complete broadcast
  /// (identical on every connection — verified).
  core::MechanismResult result;
  size_t rounds = 0;        ///< rounds served by the busiest connection
  size_t reports_sent = 0;  ///< encoded reports uploaded, all connections
  size_t client_errors = 0; ///< sessions that failed to answer
  /// Word-dependent answers computed, summed over connections and rounds
  /// (once per cached word, once per user for words proto::AnswerMemo
  /// did not cache).
  size_t distinct_words = 0;
  size_t bytes_up = 0;      ///< frame bytes written (all connections)
  size_t bytes_down = 0;    ///< frame bytes read (all connections)
  /// Per-stage latency distributions, in protocol order.
  std::vector<StageLatency> stage_latency;
};

/// Runs the fleet against a daemon at options.host:options.port and
/// blocks until the protocol completes (every connection received the
/// Complete broadcast) or any connection fails. The fleet's num_users
/// must match the daemon's --users, and its seed/labeling must match the
/// daemon's mechanism config — both are cross-checked in the handshake
/// so a mismatched pair fails loudly before any round runs.
Result<LoadgenOutcome> RunLoadgen(const ClientFleet& fleet,
                                  const LoadgenOptions& options);

}  // namespace privshape::collector

#endif  // PRIVSHAPE_COLLECTOR_LOADGEN_H_
