// rdfdb_serve: the deadline-aware network front-end over a
// SnapshotRdfStore, and the only code in rdfdb that opens, accepts,
// parses or answers a socket.
//
// Architecture (DESIGN.md §16): one acceptor thread accepts and either
// admits the connection into a bounded AdmissionQueue or sheds it with
// an immediate 503 + Retry-After; a fixed pool of worker threads pops
// admitted connections, parses the request under the bounded HTTP
// limits, arms a CancelToken with the request deadline (client's
// X-Deadline-Ms, clamped to max_deadline_ms, measured from *accept*
// so queue wait spends the same budget), and serves it. The token is
// threaded through MatchOptions/BulkLoadOptions into the compiled
// executor's row-loop checkpoints, so an expired deadline stops burning
// CPU within one checkpoint interval per executing thread and returns
// a well-formed 504 carrying partial-progress stats from the query
// trace. A watcher thread polls in-flight sockets for client hang-ups
// (POLLRDHUP) and fires Cancel() so abandoned work also stops early.
//
// Endpoints:
//   GET  /query?q=<patterns>&model=<m>[&model=..][&filter=..]
//        [&limit=N][&distinct=1][&threads=N]      rows as JSON
//        (limit and threads: non-negative integers, else 400; threads
//        is clamped to query::kMaxAutoThreads). Rows are rendered id by
//        id from the pinned version's term dictionary into the body,
//        with a per-response memo of cells already rendered, and the
//        body is sent from its own buffer (no Term per cell, no copy).
//   POST /insert?model=<m>[&create=1]             N-Triples body
//   POST /reify?model=<m>&id=<rdf_t_id>           reify a stored triple
//
// Observability (GET only; every facility is the store's own, read
// from the pinned version, so nothing is wired in twice):
//   /metrics   Prometheus text exposition (scrape target)
//   /varz      JSON: uptime, per-interval counter rates since the last
//              scrape, full registry dump, event/slow-log/timeline counts
//   /healthz   "ok\n", or 503 "degraded: <signals>\n" when the event
//              log dropped entries since the last check, the oldest
//              pinned epoch lags kUnhealthyEpochLag behind, a retired
//              version has been unreclaimable for
//              kUnhealthyRetentionAgeSeconds, or the server is shedding
//              (OverloadSignal)
//   /slow      slow-query log, JSON (404 when the store has none)
//   /timeline  Chrome trace-event JSON (404 when the store has none)
//   /profilez  ?seconds=N (default 2, 400 unless finite): sample the
//              process at 100 Hz for N seconds, capped by the request's
//              remaining deadline; flamegraph collapsed stacks
//   /allocz    JSON: live heap + per-scope allocation attribution
//   /activityz JSON: every in-flight operation with live cpu/alloc
//   /historyz  JSON: the flight recorder's metric history ring (404
//              without RdfServerOptions::recorder)
// /metrics, /varz and /healthz refresh the store's memory, epoch-lag
// and retention gauges first.
//
// Error protocol: 400 malformed request/params, 404 unknown path or
// model, 413 over a parse cap, 503 shed (Retry-After set, body JSON
// {"error":"overloaded",...}), 504 deadline exceeded (body JSON with
// partial-progress stats), 499 accounted internally for
// client-abandoned requests, 500 everything else. Success bodies of the
// data endpoints are JSON. Graceful drain: Shutdown() stops accepting,
// serves what was admitted (their deadlines still bound them), joins
// every thread, and flushes the store's event log.

#ifndef RDFDB_SERVER_SERVER_H_
#define RDFDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/metrics_snapshot.h"
#include "rdf/snapshot_store.h"
#include "server/admission.h"
#include "server/http.h"

namespace rdfdb::obs {
class FlightRecorder;
}  // namespace rdfdb::obs

namespace rdfdb::server {

/// /healthz degrades while the oldest pinned reader lags this many
/// epochs behind the published frontier...
inline constexpr int64_t kUnhealthyEpochLag = 1024;
/// ...or while a retired store version has been unreclaimable this long.
inline constexpr int64_t kUnhealthyRetentionAgeSeconds = 60;

struct RdfServerOptions {
  /// Listen port on 127.0.0.1 (0 = ephemeral, see port()).
  uint16_t port = 0;
  /// Worker threads serving admitted requests.
  unsigned workers = 4;
  /// Admission queue capacity; a full queue sheds with 503.
  size_t queue_capacity = 64;
  /// Hard ceiling every request deadline is clamped to.
  int64_t max_deadline_ms = 2000;
  /// Deadline when the client sends no X-Deadline-Ms.
  int64_t default_deadline_ms = 1000;
  /// Request parsing caps (413 beyond them).
  HttpLimits http_limits;
  /// Executor threads per /query (1 = sequential; 0 = auto).
  unsigned query_threads = 1;
  /// /healthz flips to degraded when, over the shed window's complete
  /// seconds, shed/(shed+admitted) >= this fraction and at least
  /// `unhealthy_shed_min` connections were shed (guards tiny samples).
  double unhealthy_shed_fraction = 0.5;
  uint64_t unhealthy_shed_min = 8;
  /// Client hang-up poll cadence for the in-flight watcher.
  int watch_interval_ms = 10;
  /// Optional flight recorder backing /historyz (non-owning).
  const obs::FlightRecorder* recorder = nullptr;
};

/// The store half of the /healthz verdict, read from the gauges in
/// `registry`: " epoch_lag=N" and/or " retention_age_seconds=N" for each
/// gauge at or over its threshold, "" when both are under.
std::string StoreHealthSignals(const obs::MetricsRegistry& registry);

/// Append one /query result cell: the N-Triples form of `value_id` as a
/// JSON string, rendered from `view` straight into `*out` and escaped
/// there. NotFound when `view` has no such id.
Status AppendJsonNTriples(const rdf::StoreView& view, rdf::ValueId value_id,
                          std::string* out);

/// Per-server metric bundle, registered into the store's registry so
/// the flight recorder and /metrics pick it up with no extra wiring.
struct ServerMetrics {
  explicit ServerMetrics(obs::MetricsRegistry* registry);

  obs::Counter* accepted;           ///< rdfdb_server_accepted_total
  obs::Counter* shed;               ///< rdfdb_server_shed_total
  obs::Counter* deadline_exceeded;  ///< rdfdb_server_deadline_exceeded_total
  obs::Counter* cancelled;          ///< rdfdb_server_cancelled_total
  obs::Gauge* queue_depth;          ///< rdfdb_server_queue_depth
  obs::Gauge* inflight;             ///< rdfdb_server_inflight_requests
  obs::Histogram* latency_ns;       ///< rdfdb_server_request_latency_ns
};

class RdfServer {
 public:
  /// `store` is non-owning and must outlive the server.
  RdfServer(rdf::SnapshotRdfStore* store, RdfServerOptions options);
  ~RdfServer();

  RdfServer(const RdfServer&) = delete;
  RdfServer& operator=(const RdfServer&) = delete;

  /// Bind, listen, spawn acceptor + workers + watcher.
  Status Start();

  /// Port actually bound (after Start).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, serve every admitted connection
  /// to completion (bounded by each request's deadline), join all
  /// threads, flush the event log. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  /// True between Start() and Shutdown().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Route and execute one request with an already-armed token — the
  /// socket-free core, public so tests can drive the full protocol
  /// (including 504 bodies) without a connection. `token` may be null
  /// (no deadline).
  HttpResponse Handle(const HttpRequest& request, const CancelToken* token);

  const ServerMetrics& metrics() const { return metrics_; }

  /// The /healthz overload signal ("" = healthy).
  std::string OverloadSignal() const;

 private:
  struct InflightWatch {
    int fd = -1;
    CancelToken* token = nullptr;
  };

  void AcceptLoop();
  void WorkerLoop();
  void WatchLoop();

  /// Serve one admitted connection end-to-end (parse, deadline, route,
  /// respond, close).
  void ServeConn(const AdmittedConn& conn);

  HttpResponse HandleQuery(const HttpRequest& request,
                           const CancelToken* token);
  HttpResponse HandleInsert(const HttpRequest& request,
                            const CancelToken* token);
  HttpResponse HandleReify(const HttpRequest& request);

  /// The observability GETs listed in the header comment.
  HttpResponse HandleObservability(const HttpRequest& request,
                                   const CancelToken* token);
  HttpResponse HandleHealthz();
  HttpResponse HandleVarz(const rdf::StoreView& view);
  HttpResponse HandleProfilez(const HttpRequest& request,
                              const CancelToken* token);

  /// Map a non-OK Status from store/query layers to the wire.
  HttpResponse ResponseForStatus(const Status& status,
                                 std::string partial_stats_json);

  void RegisterWatch(int fd, CancelToken* token);
  void UnregisterWatch(int fd);

  rdf::SnapshotRdfStore* const store_;
  const RdfServerOptions options_;
  ServerMetrics metrics_;
  AdmissionQueue queue_;
  ShedWindow shed_window_;
  const std::chrono::steady_clock::time_point started_;

  std::mutex varz_mu_;                 ///< guards the /varz interval state
  obs::MetricsSnapshot prev_snapshot_;  ///< previous /varz scrape
  bool have_prev_ = false;

  std::mutex health_mu_;            ///< guards the drop watermark
  uint64_t health_seen_drops_ = 0;  ///< event-log drops at last /healthz

  // Atomic because Shutdown() closes-and-invalidates the fd while the
  // acceptor thread is blocked in accept() on it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::thread watcher_;

  mutable std::mutex watch_mu_;
  std::vector<InflightWatch> watched_;

  std::mutex shutdown_mu_;  ///< serializes Shutdown() callers
};

}  // namespace rdfdb::server

#endif  // RDFDB_SERVER_SERVER_H_
