#include "collector/daemon.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "collector/ingest_lanes.h"
#include "common/logging.h"
#include "common/shutdown.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace privshape::collector {

namespace {

/// Poller tag of the listening socket (connection tags are conns_
/// indices, which can never reach this).
constexpr uint64_t kListenerTag = ~uint64_t{0};

/// Tag base of the stats endpoint: far above any realistic conns_ index,
/// below kListenerTag, so the three tag families never collide.
constexpr uint64_t kStatsTagBase = uint64_t{1} << 62;

/// Daemon-side instruments, resolved once per process (relaxed-atomic
/// record path thereafter, per the registry contract).
struct DaemonInstruments {
  telemetry::Counter* accepted;
  telemetry::Counter* handshakes;
  telemetry::Counter* disconnects;
  telemetry::Counter* protocol_errors;
  telemetry::Counter* stale_batches;
  telemetry::Counter* deadline_drops;
  telemetry::Gauge* live_connections;
  telemetry::Gauge* current_round;

  static DaemonInstruments& Get() {
    static DaemonInstruments inst = [] {
      telemetry::Registry& reg = telemetry::Registry::Default();
      return DaemonInstruments{
          reg.GetCounter("daemon_connections_accepted_total"),
          reg.GetCounter("daemon_handshakes_total"),
          reg.GetCounter("daemon_disconnects_total"),
          reg.GetCounter("daemon_protocol_errors_total"),
          reg.GetCounter("daemon_stale_batches_total"),
          reg.GetCounter("daemon_deadline_drops_total"),
          reg.GetGauge("daemon_connections_live"),
          reg.GetGauge("daemon_current_round")};
    }();
    return inst;
  }
};

/// How long the event loop sleeps per poll iteration while a round (or
/// the accept phase) is in flight: short enough that deadlines and the
/// shutdown flag are honored promptly.
constexpr int kPollMs = 50;

/// How long BroadcastComplete keeps flushing buffered frames before
/// giving up on a non-draining client.
constexpr double kFlushTimeoutSeconds = 5.0;

/// Non-blocking send of as much of `data` as the socket accepts right
/// now. Returns the byte count (0 = the socket is full, try again on
/// EPOLLOUT); a peer that vanished surfaces as a status, never SIGPIPE.
Result<size_t> SendSome(int fd, std::string_view data) {
  while (true) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Status::Internal(std::string("send: ") + std::strerror(errno));
  }
}

struct RecvOutcome {
  size_t n = 0;
  bool eof = false;
  bool again = false;
};

/// Non-blocking read of up to `cap` bytes, with EOF and would-block
/// reported as distinct non-error outcomes.
Result<RecvOutcome> RecvSome(int fd, void* buf, size_t cap) {
  while (true) {
    ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) return RecvOutcome{static_cast<size_t>(n), false, false};
    if (n == 0) return RecvOutcome{0, true, false};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return RecvOutcome{0, false, true};
    }
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
}

}  // namespace

/// One client connection's whole lifecycle. Dead connections keep their
/// slot (fd closed, dead = true) so the round accounting can still read
/// how far they got.
struct CollectorDaemon::Connection {
  UniqueFd fd;
  uint64_t id = 0;
  net::FrameReader reader;
  std::string outbox;        ///< frame bytes the socket has not accepted yet
  bool want_write = false;   ///< EPOLLOUT armed for the outbox backlog
  bool handshaked = false;
  bool dead = false;

  // Per-round state, reset by RunNetworkRound.
  size_t round_index = 0;    ///< participant index -> aggregation lane
  size_t assigned = 0;       ///< users this connection answers for
  size_t uploaded = 0;       ///< reports received this round
  bool done = false;         ///< RoundDone barrier reached
  uint64_t done_errors = 0;  ///< client-reported answer failures

  /// TraceNowUs() at accept: the start of this connection's trace span.
  double connected_at_us = 0.0;

  /// Ends the connection's lifetime span (no-op unless tracing is on);
  /// called exactly once, when the connection dies.
  void RecordLifetimeSpan() const {
    if (auto* trace = telemetry::GlobalTrace()) {
      trace->RecordSpan("conn." + std::to_string(id), "connection",
                        connected_at_us, telemetry::TraceNowUs());
    }
  }
};

/// In-flight round plumbing HandleBatchUpload routes into.
struct CollectorDaemon::RoundState {
  uint64_t round_id = 0;
  IngestLanes* lanes = nullptr;
};

CollectorDaemon::CollectorDaemon(core::MechanismConfig config,
                                 size_t num_users, DaemonOptions options)
    : config_(config), num_users_(num_users), options_(std::move(options)) {}

CollectorDaemon::~CollectorDaemon() = default;

size_t CollectorDaemon::EffectiveDrainers() const {
  return options_.num_drainers > 0 ? options_.num_drainers : 1;
}

size_t CollectorDaemon::EffectiveShards() const {
  return options_.num_shards > 0 ? options_.num_shards : EffectiveDrainers();
}

Status CollectorDaemon::Start() {
  if (listener_.valid()) return Status::Ok();
  if (!poller_.valid()) return Status::Internal("epoll_create1 failed");
  if (num_users_ == 0) return Status::InvalidArgument("empty fleet");
  auto listener = TcpListen(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  PRIVSHAPE_RETURN_IF_ERROR(SetNonBlocking(listener_.get()));
  auto port = LocalPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = *port;
  PRIVSHAPE_RETURN_IF_ERROR(poller_.Add(listener_.get(), kListenerTag));
  if (options_.stats_enabled) {
    stats_endpoint_ = std::make_unique<telemetry::StatsEndpoint>(
        &poller_, kStatsTagBase,
        [this](std::string_view path) { return StatsContent(path); });
    PRIVSHAPE_RETURN_IF_ERROR(
        stats_endpoint_->Start(options_.host, options_.stats_port));
    PS_LOG(kInfo, "daemon") << "stats endpoint listening"
                            << Kv("port", stats_endpoint_->port());
  }
  return Status::Ok();
}

std::string CollectorDaemon::StatsContent(std::string_view path) {
  if (path == "/metrics") {
    return telemetry::Registry::Default().TextExposition();
  }
  // Everything else gets the JSON snapshot: the registry plus the
  // daemon's live protocol position. ContentFn runs on the event-loop
  // thread, so these reads never race the handlers that write them.
  JsonValue doc = JsonValue::Object();
  JsonValue daemon = JsonValue::Object();
  daemon.Set("round", JsonValue::Uint(current_round_));
  daemon.Set("round_in_flight", JsonValue::Bool(round_ != nullptr));
  daemon.Set("live_connections", JsonValue::Uint(LiveHandshaked()));
  daemon.Set("connections_accepted",
             JsonValue::Uint(stats_.connections_accepted));
  daemon.Set("handshakes", JsonValue::Uint(stats_.handshakes));
  daemon.Set("disconnects", JsonValue::Uint(stats_.disconnects));
  daemon.Set("protocol_errors", JsonValue::Uint(stats_.protocol_errors));
  daemon.Set("stale_batches", JsonValue::Uint(stats_.stale_batches));
  daemon.Set("deadline_drops", JsonValue::Uint(stats_.deadline_drops));
  doc.Set("daemon", std::move(daemon));
  doc.Set("registry", telemetry::Registry::Default().JsonSnapshot());
  return doc.Dump(2);
}

size_t CollectorDaemon::LiveHandshaked() const {
  size_t live = 0;
  for (const auto& conn : conns_) {
    if (conn != nullptr && !conn->dead && conn->handshaked) ++live;
  }
  return live;
}

void CollectorDaemon::AcceptPending() {
  while (true) {
    auto accepted = TcpAccept(listener_.get());
    if (!accepted.ok()) {
      PS_LOG(kWarning) << "accept failed: " << accepted.status().ToString();
      return;
    }
    if (!accepted->valid()) return;  // drained the backlog
    UniqueFd fd = std::move(*accepted);
    if (!SetNonBlocking(fd.get()).ok() || !SetNoDelay(fd.get()).ok()) {
      continue;  // the fd closes on scope exit
    }
    auto conn = std::make_unique<Connection>();
    conn->id = conns_.size();
    conn->fd = std::move(fd);
    conn->connected_at_us = telemetry::TraceNowUs();
    if (!poller_.Add(conn->fd.get(), conn->id).ok()) continue;
    ++stats_.connections_accepted;
    DaemonInstruments::Get().accepted->Add(1);
    conns_.push_back(std::move(conn));
  }
}

void CollectorDaemon::SendFrame(Connection& conn, net::MsgType type,
                                std::string_view body) {
  if (conn.dead) return;
  net::AppendFrame(type, body, &conn.outbox);
  FlushOutbox(conn);
}

void CollectorDaemon::FlushOutbox(Connection& conn) {
  if (conn.dead) return;
  while (!conn.outbox.empty()) {
    auto sent = SendSome(conn.fd.get(), conn.outbox);
    if (!sent.ok()) {
      DropConnection(conn, sent.status().message(), false);
      return;
    }
    if (*sent == 0) break;  // socket full; resume on EPOLLOUT
    conn.outbox.erase(0, *sent);
  }
  bool want_write = !conn.outbox.empty();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    poller_.Modify(conn.fd.get(), conn.id, want_write);
  }
}

void CollectorDaemon::DropConnection(Connection& conn,
                                     const std::string& reason,
                                     bool protocol_error) {
  if (conn.dead) return;
  DaemonInstruments& inst = DaemonInstruments::Get();
  if (protocol_error) {
    ++stats_.protocol_errors;
    inst.protocol_errors->Add(1);
    if (auto* trace = telemetry::GlobalTrace()) {
      trace->RecordInstant("protocol_error.conn." + std::to_string(conn.id),
                           "connection");
    }
    // Best-effort: tell the peer why before the reset; if the socket
    // won't take it now, it never will.
    std::string frame;
    net::AppendFrame(net::MsgType::kError, net::EncodeError(reason), &frame);
    SendSome(conn.fd.get(), frame);
  }
  PS_LOG(kInfo, "daemon") << "dropping connection " << conn.id << ": "
                          << reason;
  poller_.Remove(conn.fd.get());
  conn.fd.Reset();
  conn.dead = true;
  ++stats_.disconnects;
  inst.disconnects->Add(1);
  if (conn.handshaked) inst.live_connections->Sub(1);
  conn.RecordLifetimeSpan();
}

void CollectorDaemon::HandleReadable(Connection& conn) {
  char buf[64 * 1024];
  while (!conn.dead) {
    auto read = RecvSome(conn.fd.get(), buf, sizeof(buf));
    if (!read.ok()) {
      DropConnection(conn, read.status().message(), false);
      return;
    }
    if (read->again) return;
    if (read->eof) {
      DropConnection(conn, "peer closed the connection", false);
      return;
    }
    conn.reader.Append(std::string_view(buf, read->n));
    net::Frame frame;
    while (!conn.dead) {
      auto next = conn.reader.Next(&frame);
      if (!next.ok()) {
        DropConnection(conn, next.status().message(), true);
        return;
      }
      if (!*next) break;
      HandleFrame(conn, frame);
    }
  }
}

void CollectorDaemon::HandleFrame(Connection& conn, const net::Frame& frame) {
  if (!conn.handshaked) {
    HandleHello(conn, frame);
    return;
  }
  switch (frame.type) {
    case net::MsgType::kBatchUpload:
      HandleBatchUpload(conn, frame);
      return;
    case net::MsgType::kRoundDone:
      HandleRoundDone(conn, frame);
      return;
    default:
      DropConnection(conn,
                     "unexpected frame type " +
                         std::to_string(static_cast<uint64_t>(frame.type)),
                     true);
  }
}

void CollectorDaemon::HandleHello(Connection& conn, const net::Frame& frame) {
  if (frame.type != net::MsgType::kHello) {
    DropConnection(conn, "expected Hello before any other frame", true);
    return;
  }
  auto hello = net::DecodeHello(frame.payload);
  if (!hello.ok()) {
    DropConnection(conn, hello.status().message(), true);
    return;
  }
  if (hello->fleet_users != num_users_) {
    DropConnection(conn,
                   "fleet size mismatch: client declares " +
                       std::to_string(hello->fleet_users) + ", daemon runs " +
                       std::to_string(num_users_),
                   true);
    return;
  }
  conn.handshaked = true;
  ++stats_.handshakes;
  DaemonInstruments::Get().handshakes->Add(1);
  DaemonInstruments::Get().live_connections->Add(1);
  net::WelcomeMsg welcome;
  welcome.conn_id = conn.id;
  welcome.num_users = num_users_;
  welcome.num_classes = static_cast<uint64_t>(
      config_.num_classes > 0 ? config_.num_classes : 0);
  welcome.seed = config_.seed;
  welcome.epsilon = config_.epsilon;
  SendFrame(conn, net::MsgType::kWelcome, net::EncodeWelcome(welcome));
}

void CollectorDaemon::HandleBatchUpload(Connection& conn,
                                        const net::Frame& frame) {
  auto upload = net::DecodeBatchUpload(frame.payload);
  if (!upload.ok()) {
    DropConnection(conn, upload.status().message(), true);
    return;
  }
  if (round_ == nullptr || upload->round_id != round_->round_id) {
    if (upload->round_id <= current_round_) {
      // A laggard's reports for a round that already completed: the
      // population split makes re-counting them impossible to do
      // exactly, so they are dropped — visibly.
      ++stats_.stale_batches;
      DaemonInstruments::Get().stale_batches->Add(1);
      return;
    }
    DropConnection(conn,
                   "upload for future round " +
                       std::to_string(upload->round_id),
                   true);
    return;
  }
  if (conn.done) {
    DropConnection(conn, "upload after RoundDone", true);
    return;
  }
  if (conn.uploaded + upload->reports.size() > conn.assigned) {
    // Duplicate or forged batches: a connection can never legitimately
    // deliver more reports than it was assigned users.
    DropConnection(conn,
                   "more reports than assigned users (" +
                       std::to_string(conn.uploaded + upload->reports.size()) +
                       " > " + std::to_string(conn.assigned) + ")",
                   true);
    return;
  }
  proto::ReportBatch batch;
  batch.Reserve(upload->reports.size());
  for (std::string_view report : upload->reports) {
    batch.AppendEncoded(report);
  }
  conn.uploaded += upload->reports.size();
  // Participant p feeds lane p mod shards. A full queue blocks here — the
  // event loop stops reading sockets and TCP pushes the backpressure down
  // to the clients, exactly like the in-process producers blocking on
  // Push.
  round_->lanes->Push(conn.round_index, std::move(batch));
}

void CollectorDaemon::HandleRoundDone(Connection& conn,
                                      const net::Frame& frame) {
  auto done = net::DecodeRoundDone(frame.payload);
  if (!done.ok()) {
    DropConnection(conn, done.status().message(), true);
    return;
  }
  if (round_ == nullptr || done->round_id != round_->round_id) {
    if (done->round_id <= current_round_) return;  // harmless laggard
    DropConnection(conn,
                   "RoundDone for future round " +
                       std::to_string(done->round_id),
                   true);
    return;
  }
  if (conn.done) {
    DropConnection(conn, "duplicate RoundDone", true);
    return;
  }
  if (done->answered != conn.uploaded) {
    // TCP delivers uploads in order before the barrier message, so a
    // mismatch means lost or fabricated reports — not an exact round.
    DropConnection(conn,
                   "RoundDone declares " + std::to_string(done->answered) +
                       " answers but " + std::to_string(conn.uploaded) +
                       " reports arrived",
                   true);
    return;
  }
  conn.done = true;
  conn.done_errors = done->client_errors;
}

Status CollectorDaemon::ProcessEvents(int timeout_ms) {
  PRIVSHAPE_RETURN_IF_ERROR(poller_.Wait(&events_, timeout_ms));
  for (const PollEvent& event : events_) {
    if (event.tag == kListenerTag) {
      AcceptPending();
      continue;
    }
    if (stats_endpoint_ != nullptr && stats_endpoint_->Owns(event.tag)) {
      // A scrape is served right here, between protocol frames — the
      // "mid-round, without pausing ingestion" property of the endpoint.
      stats_endpoint_->HandleEvent(event);
      continue;
    }
    if (event.tag >= conns_.size()) continue;
    Connection* conn = conns_[event.tag].get();
    if (conn == nullptr || conn->dead) continue;
    if (event.error) {
      DropConnection(*conn, "socket error/hangup", false);
      continue;
    }
    if (event.writable) FlushOutbox(*conn);
    if (!conn->dead && event.readable) HandleReadable(*conn);
  }
  return Status::Ok();
}

Result<RoundOutcome> CollectorDaemon::RunNetworkRound(
    const std::vector<size_t>& population, const StageSpec& spec,
    const std::string& encoded_request) {
  ++current_round_;
  std::vector<Connection*> participants;
  for (auto& conn : conns_) {
    if (conn != nullptr && !conn->dead && conn->handshaked) {
      participants.push_back(conn.get());
    }
  }
  if (participants.empty()) {
    return Status::FailedPrecondition("round " +
                                      std::to_string(current_round_) +
                                      ": every client disconnected");
  }

  RoundOutcome outcome{ShardedAggregator(spec, EffectiveShards()), 0, {},
                       0};
  DaemonInstruments::Get().current_round->Set(
      static_cast<int64_t>(current_round_));
  // The coordinator's lane topology, fed by this event loop instead of
  // pool workers.
  IngestLanes lanes(&outcome.agg, EffectiveDrainers(), options_.queue_depth,
                    "daemon");
  RoundState state{current_round_, &lanes};
  round_ = &state;

  // Participant p answers for the contiguous population slice
  // [n*p/P, n*(p+1)/P) — the exact stripe split the in-process rounds
  // use, though the estimates are independent of the partition either
  // way (integer-count merging is order-free).
  size_t n = population.size();
  size_t num_participants = participants.size();
  for (size_t p = 0; p < num_participants; ++p) {
    Connection* conn = participants[p];
    conn->round_index = p;
    size_t begin = n * p / num_participants;
    size_t end = n * (p + 1) / num_participants;
    conn->assigned = end - begin;
    conn->uploaded = 0;
    conn->done = false;
    conn->done_errors = 0;
    net::RoundBeginMsg msg;
    msg.round_id = current_round_;
    msg.kind = spec.kind;
    msg.request = encoded_request;
    msg.users.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      msg.users.push_back(static_cast<uint64_t>(population[i]));
    }
    SendFrame(*conn, net::MsgType::kRoundBegin, net::EncodeRoundBegin(msg));
  }

  Status polled = Status::Ok();
  double deadline = MonotonicSeconds() + options_.round_deadline_seconds;
  while (polled.ok()) {
    bool pending = false;
    for (Connection* conn : participants) {
      if (!conn->dead && !conn->done) {
        pending = true;
        break;
      }
    }
    if (!pending) break;
    // A set shutdown flag ends the round with whatever arrived; the
    // queues drain normally below and DriveProtocol turns the flag into
    // Cancelled before any server-side decision.
    if (ShutdownRequested()) break;
    if (MonotonicSeconds() > deadline) {
      for (Connection* conn : participants) {
        if (!conn->dead && !conn->done) {
          ++stats_.deadline_drops;
          DaemonInstruments::Get().deadline_drops->Add(1);
          DropConnection(*conn, "round deadline exceeded", false);
        }
      }
      break;
    }
    polled = ProcessEvents(kPollMs);
  }
  round_ = nullptr;
  auto latency = lanes.Finish();
  PRIVSHAPE_RETURN_IF_ERROR(polled);
  if (!latency.ok()) return latency.status();
  outcome.ingest_latency = std::move(*latency);

  // Every assigned-but-undelivered user of a dropped or unfinished
  // connection is a client error: the round completed without them.
  for (Connection* conn : participants) {
    if (conn->done) {
      outcome.client_errors += conn->done_errors;
    } else {
      outcome.client_errors +=
          conn->assigned - std::min(conn->uploaded, conn->assigned);
    }
  }
  return outcome;
}

void CollectorDaemon::BroadcastComplete(const core::MechanismResult& result) {
  net::CompleteMsg msg;
  msg.frequent_length = static_cast<uint64_t>(result.frequent_length);
  msg.shapes.reserve(result.shapes.size());
  for (const auto& shape : result.shapes) {
    msg.shapes.push_back(
        net::WireShape{shape.shape, shape.label, shape.frequency});
  }
  std::string body = net::EncodeComplete(msg);
  for (auto& conn : conns_) {
    if (conn != nullptr && !conn->dead && conn->handshaked) {
      SendFrame(*conn, net::MsgType::kComplete, body);
    }
  }
  // Drain the buffered frames; a client that stopped reading only costs
  // the flush timeout, never a hang.
  double deadline = MonotonicSeconds() + kFlushTimeoutSeconds;
  while (MonotonicSeconds() < deadline) {
    bool draining = false;
    for (auto& conn : conns_) {
      if (conn != nullptr && !conn->dead && !conn->outbox.empty()) {
        draining = true;
        break;
      }
    }
    if (!draining) return;
    if (!ProcessEvents(kPollMs).ok()) return;
  }
}

void CollectorDaemon::CloseAll() {
  for (auto& conn : conns_) {
    if (conn != nullptr && !conn->dead) {
      poller_.Remove(conn->fd.get());
      conn->fd.Reset();
      conn->dead = true;
      if (conn->handshaked) {
        DaemonInstruments::Get().live_connections->Sub(1);
      }
      conn->RecordLifetimeSpan();
    }
  }
  if (stats_endpoint_ != nullptr) stats_endpoint_->Close();
}

Result<core::MechanismResult> CollectorDaemon::Serve(
    CollectorMetrics* metrics) {
  PRIVSHAPE_RETURN_IF_ERROR(Start());

  auto fill_metrics = [&] {
    if (metrics == nullptr) return;
    metrics->ingest = "socket";
    metrics->num_shards = EffectiveShards();
    metrics->num_threads = EffectiveDrainers();
    metrics->queue_depth = options_.queue_depth;
    metrics->connections = stats_.handshakes;
    metrics->disconnects = stats_.disconnects;
    metrics->protocol_errors = stats_.protocol_errors;
    metrics->stale_batches = stats_.stale_batches;
    metrics->deadline_drops = stats_.deadline_drops;
  };

  // Accept phase: wait for the quorum of handshaked clients.
  double accept_deadline =
      MonotonicSeconds() + options_.accept_timeout_seconds;
  while (LiveHandshaked() < options_.min_clients) {
    if (ShutdownRequested()) {
      fill_metrics();
      CloseAll();
      return Status::Cancelled("shutdown requested before rounds started");
    }
    if (MonotonicSeconds() > accept_deadline) {
      fill_metrics();
      CloseAll();
      return Status::FailedPrecondition(
          "accept timeout: " + std::to_string(LiveHandshaked()) + " of " +
          std::to_string(options_.min_clients) +
          " required clients handshaked");
    }
    Status polled = ProcessEvents(kPollMs);
    if (!polled.ok()) {
      fill_metrics();
      CloseAll();
      return polled;
    }
  }
  PS_LOG(kInfo) << "collectord: " << LiveHandshaked()
                << " clients handshaked, starting protocol over "
                << num_users_ << " users";

  Result<core::MechanismResult> result = DriveProtocol(
      config_, num_users_,
      [this](const std::vector<size_t>& population, const StageSpec& spec,
             const std::string& encoded_request, const AnswerFn&) {
        return RunNetworkRound(population, spec, encoded_request);
      },
      metrics);

  fill_metrics();
  if (result.ok()) {
    BroadcastComplete(*result);
  } else {
    std::string frame;
    net::AppendFrame(net::MsgType::kError,
                     net::EncodeError(result.status().ToString()), &frame);
    for (auto& conn : conns_) {
      if (conn != nullptr && !conn->dead && conn->handshaked) {
        SendSome(conn->fd.get(), frame);  // best effort before the close
      }
    }
  }
  CloseAll();
  return result;
}

}  // namespace privshape::collector
