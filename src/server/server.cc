#include "server/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

// Linux-specific "peer closed its end" poll flag; absent unless
// _GNU_SOURCE, so define the kernel value directly.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/active_ops.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/resource_tracker.h"
#include "obs/slow_query_log.h"
#include "obs/span_timeline.h"
#include "obs/trace.h"
#include "query/exec.h"
#include "query/match.h"
#include "rdf/ntriples.h"

namespace rdfdb::server {

namespace {

/// Retry-After seconds on a shed 503.
constexpr int kRetryAfterSeconds = 1;
/// Per-connection socket I/O timeout of a served request.
constexpr int kIoTimeoutMs = 5000;
/// Statements between two deadline checks inside an insert batch.
constexpr size_t kInsertCheckInterval = 1024;
/// /profilez sampling window when the request names none.
constexpr double kDefaultProfileSeconds = 2.0;

/// JSON rendering of the trace counts a partially-executed query
/// accumulated before its deadline fired — the 504 body's "the server
/// did do work for you" accounting.
std::string PartialStatsJson(const obs::QueryTrace& trace) {
  std::string out = "{\"patterns\": [";
  size_t total_scanned = 0;
  for (size_t i = 0; i < trace.patterns.size(); ++i) {
    const obs::PatternTrace& p = trace.patterns[i];
    if (i > 0) out += ", ";
    out += "{\"index\": " + std::to_string(p.pattern_index);
    out += ", \"scanned\": " + std::to_string(p.rows_scanned);
    out += ", \"emitted\": " + std::to_string(p.rows_emitted) + "}";
    total_scanned += p.rows_scanned;
  }
  out += "], \"rows_scanned\": " + std::to_string(total_scanned);
  out += ", \"rows_emitted\": " + std::to_string(trace.rows_emitted);
  out += ", \"value_lookups\": " + std::to_string(trace.value_lookups);
  out += ", \"exec_threads\": " + std::to_string(trace.exec_threads);
  out += ", \"exec_chunks\": " + std::to_string(trace.exec_chunks);
  out += "}";
  return out;
}

/// /query body bytes reserved per result cell (a quoted N-Triples term
/// plus its separator) and for the rest of the body.
constexpr size_t kCellBytesGuess = 48;
constexpr size_t kBodyBytesGuess = 512;

/// Per-response memo of rendered /query cells: VALUE_ID → where that
/// id's JSON cell already sits in the body, in one flat open-addressing
/// table, so a repeated id costs a probe and a memcpy instead of a
/// dictionary decode and two escape scans. Sized once from the cell
/// count (capped); a full memo stops recording and the rest render
/// afresh.
class CellMemo {
 public:
  struct Slot {
    rdf::ValueId id = 0;
    uint32_t offset = 0;
    uint32_t length = 0;  ///< 0 = empty (a cell is at least `""`)
  };

  explicit CellMemo(size_t cells) {
    size_t capacity = 16;
    while (capacity < 2 * cells && capacity < kMaxSlots) capacity <<= 1;
    slots_.resize(capacity);
    mask_ = capacity - 1;
  }

  const Slot* Find(rdf::ValueId id) const {
    for (size_t i = Hash(id) & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.length == 0) return nullptr;
      if (slot.id == id) return &slot;
    }
  }

  /// Record a cell Find missed.
  void Insert(rdf::ValueId id, size_t offset, size_t length) {
    if ((used_ + 1) * 10 > slots_.size() * 7 || offset > UINT32_MAX ||
        length > UINT32_MAX) {
      return;
    }
    size_t i = Hash(id) & mask_;
    while (slots_[i].length != 0) i = (i + 1) & mask_;
    slots_[i] = Slot{id, static_cast<uint32_t>(offset),
                     static_cast<uint32_t>(length)};
    ++used_;
  }

 private:
  static constexpr size_t kMaxSlots = size_t{1} << 16;

  static size_t Hash(rdf::ValueId id) {
    return static_cast<size_t>(Mix64(static_cast<uint64_t>(id)));
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t used_ = 0;
};

void SetSocketTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

HttpResponse TextResponse(int status, std::string body) {
  return HttpResponse{status, "text/plain; charset=utf-8", std::move(body),
                      {}};
}

}  // namespace

Status AppendJsonNTriples(const rdf::StoreView& view, rdf::ValueId value_id,
                          std::string* out) {
  out->push_back('"');
  const size_t start = out->size();
  RDFDB_RETURN_NOT_OK(view.AppendNTriples(value_id, out));
  obs::EscapeJsonInPlace(out, start);
  out->push_back('"');
  return Status::OK();
}

std::string StoreHealthSignals(const obs::MetricsRegistry& registry) {
  std::string failing;
  const obs::Gauge* lag = registry.FindGauge("rdfdb_oldest_pinned_epoch_lag");
  if (lag != nullptr && lag->Value() >= kUnhealthyEpochLag) {
    failing += " epoch_lag=" + std::to_string(lag->Value());
  }
  const obs::Gauge* age =
      registry.FindGauge("rdfdb_version_retention_age_seconds");
  if (age != nullptr && age->Value() >= kUnhealthyRetentionAgeSeconds) {
    failing += " retention_age_seconds=" + std::to_string(age->Value());
  }
  return failing;
}

ServerMetrics::ServerMetrics(obs::MetricsRegistry* registry)
    : accepted(registry->RegisterCounter(
          "rdfdb_server_accepted_total",
          "connections admitted into the request queue")),
      shed(registry->RegisterCounter(
          "rdfdb_server_shed_total",
          "connections refused with 503 because the queue was full")),
      deadline_exceeded(registry->RegisterCounter(
          "rdfdb_server_deadline_exceeded_total",
          "requests that failed with 504 (deadline fired)")),
      cancelled(registry->RegisterCounter(
          "rdfdb_server_cancelled_total",
          "requests abandoned by the client before completion")),
      queue_depth(registry->RegisterGauge(
          "rdfdb_server_queue_depth",
          "admitted connections waiting for a worker")),
      inflight(registry->RegisterGauge(
          "rdfdb_server_inflight_requests",
          "requests currently being served")),
      latency_ns(registry->RegisterHistogram(
          "rdfdb_server_request_latency_ns",
          "accept-to-response latency of served requests",
          obs::DefaultLatencyBucketsNs())) {}

RdfServer::RdfServer(rdf::SnapshotRdfStore* store, RdfServerOptions options)
    : store_(store),
      options_(std::move(options)),
      metrics_(&store->metrics_registry()),
      queue_(options_.queue_capacity),
      shed_window_(5),
      started_(std::chrono::steady_clock::now()) {
  // Pre-existing drops are history, not a new degradation: only drops
  // after the server came up flip /healthz.
  if (const obs::EventLog* events = store_->event_log()) {
    health_seen_drops_ = events->dropped();
  }
}

RdfServer::~RdfServer() { Shutdown(); }

Status RdfServer::Start() {
  if (listen_fd_.load(std::memory_order_acquire) >= 0) {
    return Status::InvalidArgument("server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(fd, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  const unsigned workers = std::max(1u, options_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watcher_ = std::thread([this] { WatchLoop(); });
  return Status::OK();
}

void RdfServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // Stop accepting: close the listener so the blocked accept() fails.
  if (const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
      fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Drain: already-admitted connections are still served (each is
  // bounded by its own deadline), then workers observe the shutdown
  // and exit.
  queue_.Shutdown();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (watcher_.joinable()) watcher_.join();

  if (obs::EventLog* events = store_->event_log()) events->Flush();
  running_.store(false, std::memory_order_release);
}

std::string RdfServer::OverloadSignal() const {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  shed_window_.Rates(&admitted, &shed);
  if (shed < options_.unhealthy_shed_min) return "";
  const double fraction =
      static_cast<double>(shed) / static_cast<double>(shed + admitted);
  if (fraction < options_.unhealthy_shed_fraction) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "shed_fraction=%.2f queue_depth=%zu",
                fraction, queue_.depth());
  return buf;
}

void RdfServer::AcceptLoop() {
  for (;;) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;  // Shutdown already closed the listener
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Shutdown) or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(conn);
      return;
    }
    const AdmittedConn admitted{conn, std::chrono::steady_clock::now()};
    if (queue_.TryPush(admitted)) {
      metrics_.accepted->Inc();
      shed_window_.Record(/*shed=*/false);
      metrics_.queue_depth->Set(static_cast<int64_t>(queue_.depth()));
    } else {
      // Shed: the queue is the server's whole backlog, so refusal is
      // immediate and cheap — a canned 503 with Retry-After, sent with
      // a short timeout so a slow receiver can't wedge the acceptor.
      metrics_.shed->Inc();
      shed_window_.Record(/*shed=*/true);
      SetSocketTimeouts(conn, /*timeout_ms=*/1000);
      HttpResponse resp = JsonResponse(
          503, "{\"error\": \"overloaded\", \"queue_capacity\": " +
                   std::to_string(queue_.capacity()) + "}");
      resp.extra_headers.emplace_back(
          "Retry-After", std::to_string(kRetryAfterSeconds));
      SendHttpResponse(conn, resp);
      // Consume the client's request before closing: closing with
      // unread bytes in the receive buffer makes the kernel send RST,
      // which can destroy the 503 before the client reads it. One
      // bounded drain pass (the short SO_RCVTIMEO above caps it) turns
      // the refusal into a clean FIN.
      ::shutdown(conn, SHUT_WR);
      char drain[1024];
      while (::recv(conn, drain, sizeof(drain), 0) > 0) {
      }
      ::close(conn);
    }
  }
}

void RdfServer::WorkerLoop() {
  while (std::optional<AdmittedConn> conn = queue_.Pop()) {
    metrics_.queue_depth->Set(static_cast<int64_t>(queue_.depth()));
    metrics_.inflight->Add(1);
    ServeConn(*conn);
    metrics_.inflight->Add(-1);
  }
}

void RdfServer::ServeConn(const AdmittedConn& conn) {
  SetSocketTimeouts(conn.fd, kIoTimeoutMs);
  Result<HttpRequest> parsed = ReadHttpRequest(conn.fd, options_.http_limits);
  if (!parsed.ok()) {
    if (!parsed.status().IsIOError()) {
      SendHttpResponse(conn.fd, ResponseForParseError(parsed.status()));
    }
    ::shutdown(conn.fd, SHUT_RDWR);
    ::close(conn.fd);
    return;
  }
  const HttpRequest& request = *parsed;

  // The deadline counts from accept: queue wait and parse time spend
  // the same budget the executor does, so an admitted request is a
  // promise bounded end-to-end.
  int64_t deadline_ms = options_.default_deadline_ms;
  if (std::optional<std::string> h = request.Header("x-deadline-ms")) {
    int64_t requested = 0;
    if (ParseInt64(*h, &requested)) deadline_ms = requested;
  }
  deadline_ms = std::clamp<int64_t>(deadline_ms, 1, options_.max_deadline_ms);
  CancelToken token;
  token.set_deadline(conn.accept_time + std::chrono::milliseconds(deadline_ms));

  HttpResponse resp;
  if (token.Expired()) {
    // Spent its whole budget waiting in the queue: well-formed 504
    // without touching the store.
    resp = JsonResponse(
        504, "{\"error\": \"deadline exceeded\", \"stage\": \"queue\"}");
  } else {
    RegisterWatch(conn.fd, &token);
    obs::ActiveOpGuard active_op(obs::OpKind::kServerRequest,
                                 request.method + " " + request.path);
    resp = Handle(request, &token);
    UnregisterWatch(conn.fd);
  }
  if (resp.status == 504) metrics_.deadline_exceeded->Inc();
  if (resp.status == 499) metrics_.cancelled->Inc();

  SendHttpResponse(conn.fd, resp);
  ::shutdown(conn.fd, SHUT_RDWR);
  ::close(conn.fd);
  metrics_.latency_ns->Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - conn.accept_time)
          .count()));
}

HttpResponse RdfServer::Handle(const HttpRequest& request,
                               const CancelToken* token) {
  const std::string& path = request.path;
  if (path == "/query") {
    if (request.method != "GET") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use GET for /query\n", {}};
    }
    return HandleQuery(request, token);
  }
  if (path == "/insert") {
    if (request.method != "POST") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use POST for /insert\n", {}};
    }
    return HandleInsert(request, token);
  }
  if (path == "/reify") {
    if (request.method != "POST") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use POST for /reify\n", {}};
    }
    return HandleReify(request);
  }
  if (request.method == "GET") {
    return HandleObservability(request, token);
  }
  return TextResponse(405, "method not allowed\n");
}

HttpResponse RdfServer::HandleObservability(const HttpRequest& request,
                                            const CancelToken* token) {
  const std::string& path = request.path;
  // Refresh derived gauges (store memory breakdown, epoch lag,
  // retention age) before any endpoint that reads them.
  if (path == "/metrics" || path == "/varz" || path == "/" ||
      path == "/healthz") {
    store_->UpdateMemoryGauges();
  }
  if (path == "/healthz") return HandleHealthz();
  if (path == "/metrics") {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        store_->metrics_registry().RenderPrometheus(), {}};
  }
  if (path == "/profilez") return HandleProfilez(request, token);
  if (path == "/allocz") return JsonResponse(200, obs::RenderAllocz());
  if (path == "/activityz") return JsonResponse(200, obs::RenderActivityz());
  if (path == "/historyz" && options_.recorder != nullptr) {
    return JsonResponse(200, options_.recorder->RenderHistoryJson());
  }
  // The slow-query log and timeline are whatever the current version
  // carries (SnapshotRdfStore::SetObservability).
  rdf::SnapshotRdfStore::ReadPin pin = store_->Snapshot();
  if (path == "/varz" || path == "/") return HandleVarz(*pin);
  if (path == "/slow" && pin->slow_query_log() != nullptr) {
    return JsonResponse(200, pin->slow_query_log()->ToJson());
  }
  if (path == "/timeline" && pin->timeline() != nullptr) {
    return JsonResponse(200, pin->timeline()->ToChromeTraceJson());
  }
  return TextResponse(404,
                      "not found: " + path +
                          "\nendpoints: /metrics /varz /healthz /slow "
                          "/timeline /profilez /allocz /activityz "
                          "/historyz\n");
}

HttpResponse RdfServer::HandleHealthz() {
  std::string failing;
  if (const obs::EventLog* events = store_->event_log()) {
    const uint64_t drops = events->dropped();
    std::lock_guard<std::mutex> lock(health_mu_);
    if (drops > health_seen_drops_) {
      failing += " event_log_drops=" +
                 std::to_string(drops - health_seen_drops_);
    }
    health_seen_drops_ = drops;
  }
  failing += StoreHealthSignals(store_->metrics_registry());
  if (const std::string overload = OverloadSignal(); !overload.empty()) {
    failing += " " + overload;
  }
  if (failing.empty()) return TextResponse(200, "ok\n");
  return TextResponse(503, "degraded:" + failing + "\n");
}

HttpResponse RdfServer::HandleVarz(const rdf::StoreView& view) {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  std::string extra;
  if (const obs::EventLog* events = store_->event_log()) {
    extra += ",\n \"events_appended\": " + std::to_string(events->appended());
    extra += ",\n \"events_dropped\": " + std::to_string(events->dropped());
  }
  if (const obs::SlowQueryLog* slow = view.slow_query_log()) {
    extra += ",\n \"slow_queries_captured\": " +
             std::to_string(slow->captured());
  }
  if (const obs::Timeline* timeline = view.timeline()) {
    extra += ",\n \"timeline_spans\": " + std::to_string(timeline->size());
  }
  const obs::MetricsRegistry& registry = store_->metrics_registry();
  const obs::MetricsSnapshot cur = obs::TakeMetricsSnapshot(registry);
  obs::MetricsSnapshot prev;
  {
    std::lock_guard<std::mutex> lock(varz_mu_);
    prev = have_prev_ ? prev_snapshot_ : cur;
    prev_snapshot_ = cur;
    have_prev_ = true;
  }
  return JsonResponse(200,
                      obs::RenderVarzJson(registry, prev, cur, uptime, extra));
}

HttpResponse RdfServer::HandleProfilez(const HttpRequest& request,
                                       const CancelToken* token) {
  // Blocking by design: sample the whole process and return flamegraph
  // collapsed stacks. The window never outlasts the request's deadline,
  // so a profile holds its worker no longer than any other request.
  double seconds = kDefaultProfileSeconds;
  if (std::optional<std::string> text =
          FindParam(ParseQueryParams(request.query), "seconds")) {
    char* end = nullptr;
    const double requested = std::strtod(text->c_str(), &end);
    if (end == text->c_str() || *end != '\0' || !std::isfinite(requested)) {
      return TextResponse(400, "seconds must be a finite number\n");
    }
    if (requested > 0.0) seconds = requested;
  }
  if (token != nullptr) {
    const double budget =
        std::chrono::duration<double>(token->Remaining()).count();
    // Floored at 1 ms: ProfileForSeconds reads a non-positive window as
    // "use the default", which a spent budget must not turn into.
    seconds = std::max(1e-3, std::min(seconds, budget));
  }
  return TextResponse(200, obs::ProfileForSeconds(seconds));
}

HttpResponse RdfServer::HandleQuery(const HttpRequest& request,
                                    const CancelToken* token) {
  const auto params = ParseQueryParams(request.query);
  const std::optional<std::string> q = FindParam(params, "q");
  if (!q.has_value() || q->empty()) {
    return JsonResponse(400, "{\"error\": \"missing q parameter\"}");
  }
  std::vector<std::string> models;
  for (const auto& [key, value] : params) {
    if (key == "model" && !value.empty()) models.push_back(value);
  }
  if (models.empty()) {
    return JsonResponse(400, "{\"error\": \"missing model parameter\"}");
  }

  query::MatchOptions match_options;
  match_options.cancel = token;
  obs::QueryTrace trace;
  match_options.trace = &trace;
  match_options.threads = options_.query_threads;
  if (std::optional<std::string> t = FindParam(params, "threads")) {
    int64_t threads = 0;
    if (!ParseInt64(*t, &threads) || threads < 0) {
      return JsonResponse(
          400, "{\"error\": \"threads must be a non-negative integer\"}");
    }
    // A client may ask for fewer workers, never for more than the
    // executor would pick on its own.
    match_options.threads = static_cast<unsigned>(
        std::min<int64_t>(threads, query::kMaxAutoThreads));
  }
  if (std::optional<std::string> l = FindParam(params, "limit")) {
    int64_t limit = 0;
    if (!ParseInt64(*l, &limit) || limit < 0) {
      return JsonResponse(
          400, "{\"error\": \"limit must be a non-negative integer\"}");
    }
    match_options.limit = static_cast<size_t>(limit);
  }
  if (std::optional<std::string> d = FindParam(params, "distinct")) {
    match_options.distinct = (*d == "1" || *d == "true");
  }
  const std::string filter = FindParam(params, "filter").value_or("");

  // Pin one snapshot for the whole query: lock-free reads against a
  // transaction-consistent version, which also renders the rows.
  rdf::SnapshotRdfStore::ReadPin pin = store_->Snapshot();
  const rdf::StoreView& view = pin.view();
  std::string body;
  // The rows render inside the match, as its resolve stage, so the
  // query's timings and the slow-query log include them.
  auto render = [&](const query::IdTable& table) -> Status {
    const size_t cells = table.rows * table.width();
    body.reserve(kBodyBytesGuess + cells * kCellBytesGuess);
    body += "{\"columns\": [";
    for (size_t c = 0; c < table.width(); ++c) {
      if (c > 0) body += ", ";
      obs::AppendJsonString(table.columns[c], &body);
    }
    body += "], \"rows\": [";
    CellMemo memo(cells);
    for (size_t r = 0; r < table.rows; ++r) {
      // Rendering honours the deadline and a client hang-up at the
      // executor's checkpoint interval.
      if (token != nullptr && r % query::kCancelCheckIntervalRows == 0 &&
          token->Expired()) {
        return token->StatusIfDone();
      }
      if (r > 0) body += ", ";
      body += "[";
      const rdf::ValueId* ids = table.row(r);
      for (size_t c = 0; c < table.width(); ++c) {
        if (c > 0) body += ", ";
        if (const CellMemo::Slot* hit = memo.Find(ids[c])) {
          body.append(body, hit->offset, hit->length);
          continue;
        }
        const size_t at = body.size();
        RDFDB_RETURN_NOT_OK(AppendJsonNTriples(view, ids[c], &body));
        memo.Insert(ids[c], at, body.size() - at);
      }
      body += "]";
    }
    body += "], \"row_count\": " + std::to_string(table.rows);
    return Status::OK();
  };
  Result<query::IdTable> result = query::SdoRdfMatchIds(
      view, *q, models, {}, filter, match_options, render);
  if (!result.ok()) {
    return ResponseForStatus(result.status(), PartialStatsJson(trace));
  }
  body += ", \"stats\": " + PartialStatsJson(trace) + "}";
  return JsonResponse(200, std::move(body));
}

HttpResponse RdfServer::HandleInsert(const HttpRequest& request,
                                     const CancelToken* token) {
  const auto params = ParseQueryParams(request.query);
  const std::optional<std::string> model = FindParam(params, "model");
  if (!model.has_value() || model->empty()) {
    return JsonResponse(400, "{\"error\": \"missing model parameter\"}");
  }
  const bool create = FindParam(params, "create").value_or("") == "1";

  Result<std::vector<rdf::NTriple>> statements =
      rdf::ParseNTriplesDocument(request.body);
  if (!statements.ok()) {
    return ResponseForStatus(statements.status(), "");
  }

  // One write batch, one publish. The token is checked at statement
  // intervals; a fired deadline stops the batch at that boundary, and
  // whatever was inserted is published (the 504 body reports the count
  // so the client knows exactly how far it got).
  size_t inserted = 0;
  Status status = store_->Apply([&](rdf::RdfStore& live) -> Status {
    Result<rdf::ModelId> model_id = live.GetModelId(*model);
    if (!model_id.ok() && model_id.status().IsNotFound() && create) {
      RDFDB_RETURN_NOT_OK(
          live.CreateRdfModel(*model, *model + "_app", "triple").status());
      model_id = live.GetModelId(*model);
    }
    RDFDB_RETURN_NOT_OK(model_id.status());
    for (const rdf::NTriple& nt : *statements) {
      if (token != nullptr && inserted % kInsertCheckInterval == 0 &&
          token->Expired()) {
        return token->StatusIfDone();
      }
      RDFDB_RETURN_NOT_OK(live.InsertParsedTriple(*model_id, nt.subject,
                                                  nt.predicate, nt.object)
                              .status());
      ++inserted;
    }
    return Status::OK();
  });
  if (!status.ok()) {
    return ResponseForStatus(status,
                             "{\"inserted\": " + std::to_string(inserted) +
                                 "}");
  }
  return JsonResponse(200, "{\"inserted\": " + std::to_string(inserted) +
                               ", \"model\": " + obs::JsonString(*model) +
                               "}");
}

HttpResponse RdfServer::HandleReify(const HttpRequest& request) {
  const auto params = ParseQueryParams(request.query);
  const std::optional<std::string> model = FindParam(params, "model");
  const std::optional<std::string> id = FindParam(params, "id");
  if (!model.has_value() || model->empty() || !id.has_value()) {
    return JsonResponse(400,
                        "{\"error\": \"missing model or id parameter\"}");
  }
  int64_t link_id = -1;
  if (!ParseInt64(*id, &link_id) || link_id < 0) {
    return JsonResponse(400, "{\"error\": \"malformed id parameter\"}");
  }
  Result<rdf::SdoRdfTripleS> reified =
      store_->ReifyTriple(*model, static_cast<rdf::LinkId>(link_id));
  if (!reified.ok()) {
    return ResponseForStatus(reified.status(), "");
  }
  return JsonResponse(
      200, "{\"rdf_t_id\": " + std::to_string(reified->rdf_t_id()) +
               ", \"reified\": true}");
}

HttpResponse RdfServer::ResponseForStatus(const Status& status,
                                          std::string partial_stats_json) {
  int http = 500;
  if (status.IsInvalidArgument()) http = 400;
  if (status.IsNotFound()) http = 404;
  if (status.IsDeadlineExceeded()) http = 504;
  if (status.IsCancelled()) http = 499;
  std::string body = "{\"error\": " + obs::JsonString(status.message());
  if ((http == 504 || http == 499) && !partial_stats_json.empty()) {
    body += ", \"partial\": " + partial_stats_json;
  }
  body += "}";
  return JsonResponse(http, std::move(body));
}

void RdfServer::RegisterWatch(int fd, CancelToken* token) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.push_back(InflightWatch{fd, token});
}

void RdfServer::UnregisterWatch(int fd) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.erase(
      std::remove_if(watched_.begin(), watched_.end(),
                     [fd](const InflightWatch& w) { return w.fd == fd; }),
      watched_.end());
}

void RdfServer::WatchLoop() {
  // Poll every in-flight socket for client hang-up; a vanished client
  // flips its request's token so the executor stops burning CPU on an
  // answer nobody will read. Exits only after the workers are done
  // (Shutdown joins workers first, then flips running_ last — here the
  // loop keys off stopping_ + an empty watch list to serve the drain).
  std::vector<pollfd> fds;
  while (true) {
    {
      // The whole poll-and-cancel pass runs under watch_mu_: a worker
      // cannot UnregisterWatch (and therefore cannot destroy its
      // stack-held token or close/reuse its fd) mid-pass, so every
      // token pointer observed here is alive. poll() is non-blocking
      // (timeout 0), so the critical section stays microseconds.
      std::lock_guard<std::mutex> lock(watch_mu_);
      if (stopping_.load(std::memory_order_acquire) && watched_.empty() &&
          queue_.depth() == 0) {
        return;
      }
      if (!watched_.empty()) {
        fds.clear();
        fds.reserve(watched_.size());
        for (const InflightWatch& w : watched_) {
          fds.push_back(pollfd{w.fd, POLLRDHUP, 0});
        }
        const int n = ::poll(fds.data(), fds.size(), 0);
        if (n > 0) {
          for (size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents &
                (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) {
              watched_[i].token->Cancel();
            }
          }
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, options_.watch_interval_ms)));
  }
}

}  // namespace rdfdb::server
