// rdfbench: the end-to-end benchmark for rdfdb.
//
//   rdfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --workdir <dir> [--source <digest>]
//
// One process plays the user: it generates the seeded UniProt-shaped
// corpus, writes it to an N-Triples file, bulk-loads it into a
// SnapshotRdfStore (file to published version), starts the rdfdb_serve
// front-end (server::RdfServer with its default options) on a loopback
// port, and drives it over HTTP with the benchmark's own client: reads
// (open loop at a fixed rate, then closed loop) and acked inserts. Every
// response is checked against expectations derived from the corpus.
//
// With --trace 0 the last stdout line is the end-to-end metrics; with
// --trace 1 the same run also records spans around every client call and
// replays sampled requests through each layer's public function (HTTP
// parse/render, RdfServer::Handle, ParsePatterns, CompilePatterns,
// ExecutePlan, TermForValueId, SdoRdfMatch, ParseNTriplesDocument and
// the three parts of SnapshotRdfStore::Apply), and the last line is the
// per-layer metrics. Spans are written to <workdir>/trace-<workload>.jsonl.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "corpus.h"
#include "gen/uniprot_gen.h"
#include "http_client.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/trace.h"
#include "query/exec.h"
#include "query/match.h"
#include "query/rules_index.h"
#include "query/sparql_pattern.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"
#include "server/http.h"
#include "server/server.h"
#include "span_trace.h"
#include "stats.h"

#ifndef RDFBENCH_BUILD_TYPE
#define RDFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RDFBENCH_COMPILER
#define RDFBENCH_COMPILER "unknown"
#endif

namespace rdfbench {
namespace {

using rdfdb::rdf::SnapshotRdfStore;
using rdfdb::server::RdfServer;

constexpr const char* kHost = "127.0.0.1";
/// Corpus size (gen::UniProtOptions::target_triples).
constexpr size_t kTriples = 100000;
/// Setups per run; setup_s and the load/space metrics are their medians.
constexpr int kSetups = 5;
/// Interleaved measurement rounds per run.
constexpr int kRounds = 20;
/// Verified reads that warm the server and caches at the end of a setup.
constexpr size_t kWarmupReads = 200;
/// Traced run: sampled requests replayed layer by layer.
constexpr size_t kReadReplays = 60;
constexpr size_t kInsertReplays = 16;

// ---- Workloads ---------------------------------------------------------------

enum class ReadShape { kPointLookup, kLargeResult };

struct Workload {
  const char* name;
  ReadShape shape;
  /// Open-loop read phase: offered rate and share of --seconds (0 = none).
  double open_rate_qps;
  double open_share;
  /// Closed-loop read phase share.
  double closed_share;
  /// Closed-loop insert phase share: single statements on one
  /// connection, so the latency is one insert's cost on a served model.
  double insert_share;
  /// Closed-loop mixed phase share: one insert, then reads_per_insert
  /// point lookups, per connection.
  double mix_share;
  size_t reads_per_insert;
  /// Latency limit a read must meet to count toward goodput.
  double limit_ms;
  /// large_result: share of reads that are the LIMIT-2000 scan.
  double scan_share;
};

// large_result measures reads in their own phases and acked inserts in
// a phase after them; write_mix measures both in one interleaved phase.
// Every workload loads the corpus from file in its set-up, which is
// where the load and space metrics come from.
constexpr Workload kWorkloads[] = {
    {"large_result", ReadShape::kLargeResult, 100.0, 0.60, 0.15, 0.25, 0.0,
     0, 200.0, 0.25},
    {"write_mix", ReadShape::kPointLookup, 0.0, 0.0, 0.0, 0.0, 1.0, 8, 100.0,
     0.0},
};

/// Statements per insert request in the mixed phase, cycled by serial.
constexpr size_t kMixBatchSizes[] = {1, 1, 1, 2, 4, 8};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args->workload = value;
    else if (key == "--seed") args->seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args->seconds = std::atof(value.c_str());
    else if (key == "--trace") args->trace = value == "1";
    else if (key == "--workdir") args->workdir = value;
    else if (key == "--source") args->source = value;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Number(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + "/" + five + "/" + fifteen;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void SleepUntilNs(int64_t due_ns) {
  // Sleep to just short of the due time, then spin: the generator's own
  // wake-up delay would otherwise land in every open-loop latency.
  constexpr int64_t kSpinNs = 30000;
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

/// Run fn(thread_index) on n threads and join them all.
void RunThreads(unsigned n, const std::function<void(unsigned)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&fn, i] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---- Reads -------------------------------------------------------------------

enum class QueryKind { kSubject, kJoin, kScan };

struct Query {
  QueryKind kind;
  std::string patterns;
  std::string target;
  std::string request;  ///< serialized HTTP request
  Fingerprint expected;
};

/// Every read the workloads can issue, plus the seeded request stream.
struct ReadPlan {
  std::vector<Query> queries;
  std::vector<uint32_t> stream;  ///< query ids in issue order
};

ReadPlan MakeReadPlan(const Workload& w, const Expectations& expect,
                      uint64_t seed) {
  ReadPlan plan;
  const std::vector<std::string>& proteins = expect.proteins();
  const size_t n = proteins.size();
  rdfdb::Random rng(seed * 0x9E3779B97F4A7C15ull + 7);
  if (w.shape == ReadShape::kPointLookup) {
    for (size_t i = 0; i < n; ++i) {
      Query q{QueryKind::kSubject, SubjectQuery(proteins[i]), "", "",
              expect.SubjectRows(i)};
      plan.queries.push_back(std::move(q));
    }
    // Zipf-skewed over a seeded permutation of the proteins, so the hot
    // subjects are spread over the store rather than its first rows.
    std::vector<uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    plan.stream.resize(200000);
    for (uint32_t& id : plan.stream) id = perm[rng.Skewed(n)];
  } else {
    for (size_t i = 0; i < n; ++i) {
      Query q{QueryKind::kJoin, JoinQuery(proteins[i]), "", "",
              expect.JoinRows(i)};
      plan.queries.push_back(std::move(q));
    }
    plan.queries.push_back(
        Query{QueryKind::kScan, ScanQuery(), "", "", Fingerprint{}});
    const uint32_t scan = static_cast<uint32_t>(n);
    plan.stream.resize(50000);
    for (uint32_t& id : plan.stream) {
      id = rng.Bernoulli(w.scan_share) ? scan
                                       : static_cast<uint32_t>(rng.Uniform(n));
    }
  }
  for (Query& q : plan.queries) {
    q.target = QueryTarget(q.patterns, q.kind == QueryKind::kScan ? kScanLimit : 0);
    q.request = BuildRequest("GET", q.target, kHost);
  }
  return plan;
}

bool VerifyRead(const Query& q, const Expectations& expect,
                const HttpResponse& response, size_t* rows) {
  *rows = 0;
  if (response.status != 200) return false;
  Fingerprint fp;
  bool ok;
  if (q.kind == QueryKind::kScan) {
    ok = FingerprintBody(response.body, &fp,
                         [&](const std::vector<std::string>& cells) {
                           return expect.ScanRowOk(cells);
                         }) &&
         fp.rows == kScanLimit;
  } else {
    ok = FingerprintBody(response.body, &fp) && fp == q.expected;
  }
  *rows = fp.rows;
  return ok;
}

// ---- Client-side samples -------------------------------------------------------

/// What one client thread observed in one phase.
struct Samples {
  std::vector<double> read_ms;    ///< verified reads, from due/send time
  std::vector<double> rtt_ns;     ///< verified reads and acked inserts,
                                  ///< send start to done
  std::vector<double> lag_ms;     ///< open loop: send time minus due time
  std::vector<double> insert_ms;  ///< acked inserts
  uint64_t reads = 0, read_failures = 0, reads_within_limit = 0;
  uint64_t inserts = 0, insert_failures = 0, acked_statements = 0;
  uint64_t rows = 0;

  void Merge(const Samples& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    rtt_ns.insert(rtt_ns.end(), o.rtt_ns.begin(), o.rtt_ns.end());
    lag_ms.insert(lag_ms.end(), o.lag_ms.begin(), o.lag_ms.end());
    insert_ms.insert(insert_ms.end(), o.insert_ms.begin(), o.insert_ms.end());
    reads += o.reads;
    read_failures += o.read_failures;
    reads_within_limit += o.reads_within_limit;
    inserts += o.inserts;
    insert_failures += o.insert_failures;
    acked_statements += o.acked_statements;
    rows += o.rows;
  }
};

/// An insert the server acked: read back after the run.
struct Acked {
  std::string subject;
  Fingerprint expected;
  std::string body;
};

/// One client thread's connection, spans and findings.
struct Client {
  Client(uint16_t port, bool traced) : conn(kHost, port), traced(traced) {}

  /// Round trip with spans when traced. Returns false on transport error.
  bool Send(const std::string& request, HttpResponse* response,
            RoundTripTiming* timing) {
    std::string error;
    const bool ok = conn.RoundTrip(request, response, &error, timing);
    if (!ok) timing->done_ns = NowNs();
    ++requests;
    if (traced) {
      const uint64_t id = next_request_id++;
      const int64_t root =
          spans.Add("client.request", timing->start_ns, timing->done_ns, -1, id);
      if (ok) {
        if (!timing->reused) {
          spans.Add("client.connect", timing->start_ns, timing->connected_ns,
                    root, id);
        } else {
          spans.Add("client.reuse", timing->start_ns, timing->connected_ns,
                    root, id);
        }
        spans.Add("client.send", timing->connected_ns, timing->sent_ns, root, id);
        spans.Add("client.wait", timing->sent_ns, timing->done_ns, root, id);
      }
    }
    return ok;
  }

  HttpConnection conn;
  bool traced;
  SpanTrace spans;
  uint64_t next_request_id = 1;
  uint64_t requests = 0;
  std::vector<Acked> acked;
};

// ---- The run -------------------------------------------------------------------

struct SetupResult {
  double setup_s = 0;
  double load_s = 0;
  size_t triples = 0;
  int64_t heap_growth = 0;
  rdfdb::rdf::RdfStore::MemoryBreakdown mem;
  rdfdb::rdf::BulkLoadStats bulk;
  int64_t reify_ns = 0, publish_ns = 0;
};

/// One sampled read replayed layer by layer: times in ns, then counts.
struct ReadReplay {
  double http_parse_ns, handle_ns, http_render_ns, parse_ns, plan_ns, join_ns,
      resolve_ns, match_ns;
  double rows, bytes, allocs, scanned;
};

/// One sampled insert replayed: times in ns, then counts.
struct InsertReplay {
  double parse_ns, writer_wait_ns, insert_ns, publish_ns;
  double statements, alloc_bytes;
};

class Bench {
 public:
  Bench(const Args& args, const Workload& w) : args_(args), w_(w) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
    corpus_path_ = (std::filesystem::path(args.workdir) /
                    ("corpus-" + std::to_string(args.seed) + ".nt"))
                       .string();
  }

  ~Bench() {
    server_.reset();
    store_.reset();
    std::error_code ec;
    std::filesystem::remove(corpus_path_, ec);
  }

  bool Run();
  void Report() const;
  void PrintFailures(std::FILE* out) const {
    for (const std::string& f : failures_) std::fprintf(out, "rdfbench: %s\n", f.c_str());
  }

 private:
  bool Setup(int round, SetupResult* out);
  /// Open-loop reads at the workload's rate for `seconds`.
  Samples OpenLoopReads(double seconds);
  /// Closed loop on every connection for `seconds`; each iteration is
  /// one insert (when inserts) followed by `reads` reads.
  Samples ClosedLoop(unsigned clients, double seconds, bool inserts,
                     size_t reads, bool single_statements);
  bool ReadOnce(Client* client, Samples* s, int64_t due_ns, size_t stream_index);
  bool InsertOnce(Client* client, Samples* s, bool single_statement);
  void ReadBack();
  void ReplayReads();
  void ReplayInserts();
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(what);
  }

  const Args args_;
  const Workload& w_;
  unsigned threads_;
  std::string corpus_path_;

  std::unique_ptr<Expectations> expect_;
  std::vector<rdfdb::gen::ReifiedStatement> reified_;
  ReadPlan plan_;
  std::unique_ptr<SnapshotRdfStore> store_;
  std::unique_ptr<RdfServer> server_;

  std::atomic<size_t> next_read_{0};
  std::atomic<size_t> next_insert_{0};

  std::mutex mu_;  ///< guards failures_, written by client threads
  std::vector<std::string> failures_;
  std::atomic<bool> wrong_output_{false};
  std::vector<std::unique_ptr<Client>> clients_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string start_loadavg_ = LoadAverage();

  std::vector<SetupResult> setups_;
  // Per-round read statistics and the pooled samples behind them.
  std::vector<double> round_read_p50_, round_goodput_;
  Samples reads_;    ///< reads of the latency windows
  Samples inserts_;  ///< inserts of the insert (or mixed) windows
  double insert_seconds_ = 0;
  uint64_t issued_reads_ = 0;
  std::unordered_set<uint32_t> distinct_reads_;

  // Server registry readings over the served phases.
  double server_request_mean_ns_ = 0;
  uint64_t accepted_ = 0, shed_ = 0;

  SpanTrace replay_spans_;
  std::vector<ReadReplay> read_replays_;
  std::vector<InsertReplay> insert_replays_;
};

bool Bench::Setup(int round, SetupResult* out) {
  // The setup clock covers generation, the file write, the load, the
  // server start and the warm-up; the benchmark's own bookkeeping
  // (expectations, memory accounting, the count check) is excluded.
  int64_t timed_ns = 0;
  int64_t t = NowNs();
  rdfdb::gen::UniProtOptions gen_options;
  gen_options.target_triples = kTriples;
  gen_options.seed = args_.seed;
  {
    rdfdb::gen::UniProtDataset dataset = rdfdb::gen::GenerateUniProt(gen_options);
    const rdfdb::Status written =
        rdfdb::rdf::WriteNTriplesFile(corpus_path_, dataset.triples);
    if (!written.ok()) {
      Fail("write corpus: " + written.ToString());
      return false;
    }
    timed_ns += NowNs() - t;
    if (expect_ == nullptr) {
      expect_ = std::make_unique<Expectations>(dataset);
      plan_ = MakeReadPlan(w_, *expect_, args_.seed);
    }
    reified_ = dataset.reified;
  }  // the corpus is freed before the heap baseline
  const int64_t heap0 = static_cast<int64_t>(rdfdb::obs::TrackedHeapBytes());

  t = NowNs();
  store_ = std::make_unique<SnapshotRdfStore>();
  auto created = store_->CreateRdfModel(kModel, std::string(kModel) + "_app", "triple");
  if (!created.ok()) {
    Fail("create model: " + created.status().ToString());
    return false;
  }
  LoadOutcome outcome;
  int64_t enter_ns = 0, exit_ns = 0;
  const int64_t call_ns = NowNs();
  const rdfdb::Status loaded = store_->Apply([&](rdfdb::rdf::RdfStore& live) {
    enter_ns = NowNs();
    rdfdb::Status st = LoadCorpus(live, corpus_path_, reified_, &outcome);
    exit_ns = NowNs();
    return st;
  });
  const int64_t return_ns = NowNs();
  timed_ns += return_ns - t;
  if (!loaded.ok()) {
    Fail("load: " + loaded.ToString());
    return false;
  }
  out->load_s = static_cast<double>(return_ns - call_ns) / 1e9;
  out->bulk = outcome.bulk;
  out->reify_ns = outcome.reify_ns;
  out->publish_ns = return_ns - exit_ns;
  if (args_.trace) {
    const int64_t root = replay_spans_.Add("rdf.apply", call_ns, return_ns, -1, 0);
    replay_spans_.Add("rdf.writer_wait", call_ns, enter_ns, root, 0);
    replay_spans_.Add("rdf.bulk_load", enter_ns, exit_ns - outcome.reify_ns, root, 0);
    replay_spans_.Add("rdf.reify", exit_ns - outcome.reify_ns, exit_ns, root, 0);
    replay_spans_.Add("rdf.publish", exit_ns, return_ns, root, 0);
  }

  out->heap_growth =
      static_cast<int64_t>(rdfdb::obs::TrackedHeapBytes()) - heap0;
  out->mem = store_->MemoryUsage();
  {
    SnapshotRdfStore::ReadPin pin = store_->Snapshot();
    auto model_id = pin->GetModelId(kModel);
    out->triples = model_id.ok() ? pin->TripleCount(*model_id) : 0;
  }
  ++attempted_;
  if (out->triples != expect_->distinct_triples()) {
    ++failed_;
    wrong_output_ = true;
    Fail("load " + std::to_string(round) + ": store holds " +
         std::to_string(out->triples) + " triples, corpus has " +
         std::to_string(expect_->distinct_triples()) + " distinct");
  }

  t = NowNs();
  server_ = std::make_unique<RdfServer>(store_.get(),
                                        rdfdb::server::RdfServerOptions{});
  const rdfdb::Status started = server_->Start();
  if (!started.ok()) {
    Fail("server start: " + started.ToString());
    return false;
  }
  {
    Client warm(server_->port(), false);
    Samples s;
    for (size_t i = 0; i < kWarmupReads; ++i) {
      ReadOnce(&warm, &s, 0, plan_.stream.size() - 1 - i);
    }
    attempted_ += s.reads;
    failed_ += s.read_failures;
  }
  timed_ns += NowNs() - t;
  out->setup_s = static_cast<double>(timed_ns) / 1e9;
  return true;
}

bool Bench::ReadOnce(Client* client, Samples* s, int64_t due_ns,
                     size_t stream_index) {
  const uint32_t id = plan_.stream[stream_index % plan_.stream.size()];
  const Query& q = plan_.queries[id];
  HttpResponse response;
  RoundTripTiming timing;
  const bool sent = client->Send(q.request, &response, &timing);
  ++s->reads;
  size_t rows = 0;
  if (!sent || !VerifyRead(q, *expect_, response, &rows)) {
    ++s->read_failures;
    if (!sent) {
      Fail("read transport error: " + q.target);
    } else if (response.status == 200) {
      wrong_output_ = true;
      Fail("wrong result for " + q.patterns + " (" + std::to_string(rows) +
           " rows, expected " + std::to_string(q.expected.rows) + ")");
    } else {
      Fail("read status " + std::to_string(response.status));
    }
    return false;
  }
  const int64_t from = due_ns > 0 ? due_ns : timing.start_ns;
  const double ms = Ms(timing.done_ns - from);
  s->read_ms.push_back(ms);
  s->rtt_ns.push_back(static_cast<double>(timing.done_ns - timing.start_ns));
  if (due_ns > 0) s->lag_ms.push_back(Ms(timing.start_ns - due_ns));
  if (ms <= w_.limit_ms) ++s->reads_within_limit;
  s->rows += rows;
  return true;
}

bool Bench::InsertOnce(Client* client, Samples* s, bool single_statement) {
  const size_t serial = next_insert_.fetch_add(1);
  const size_t batch =
      single_statement ? 1
                       : kMixBatchSizes[serial % (sizeof(kMixBatchSizes) /
                                                  sizeof(kMixBatchSizes[0]))];
  Acked acked;
  acked.subject = "urn:lsid:uniprot.org:uniprot:W" +
                  std::to_string(args_.seed) + "-" + std::to_string(serial);
  acked.body = InsertBody(acked.subject, serial, batch, &acked.expected);
  const std::string request =
      BuildRequest("POST", std::string("/insert?model=") + kModel, kHost,
                   acked.body, "application/n-triples");
  HttpResponse response;
  RoundTripTiming timing;
  const bool sent = client->Send(request, &response, &timing);
  ++s->inserts;
  const std::string ack = "{\"inserted\": " + std::to_string(batch) + ",";
  if (!sent || response.status != 200 || response.body.rfind(ack, 0) != 0) {
    ++s->insert_failures;
    Fail(sent ? "insert status " + std::to_string(response.status) + ": " +
                    response.body.substr(0, 120)
              : "insert transport error");
    return false;
  }
  s->insert_ms.push_back(Ms(timing.done_ns - timing.start_ns));
  s->rtt_ns.push_back(static_cast<double>(timing.done_ns - timing.start_ns));
  s->acked_statements += batch;
  client->acked.push_back(std::move(acked));
  return true;
}

Samples Bench::OpenLoopReads(double seconds) {
  const size_t total = static_cast<size_t>(w_.open_rate_qps * seconds);
  const double interval_ns = 1e9 / w_.open_rate_qps;
  const int64_t start = NowNs() + 2000000;
  std::atomic<size_t> next{0};
  std::vector<Samples> per(threads_);
  const size_t base = next_read_.load();
  RunThreads(threads_, [&](unsigned i) {
    Client* client = clients_[i].get();
    for (;;) {
      const size_t k = next.fetch_add(1);
      if (k >= total) break;
      const int64_t due = start + static_cast<int64_t>(interval_ns * static_cast<double>(k));
      SleepUntilNs(due);
      ReadOnce(client, &per[i], due, base + k);
    }
  });
  next_read_ += total;
  Samples all;
  for (const Samples& s : per) all.Merge(s);
  return all;
}

Samples Bench::ClosedLoop(unsigned clients, double seconds, bool inserts,
                          size_t reads, bool single_statements) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<Samples> per(clients);
  RunThreads(clients, [&](unsigned i) {
    Client* client = clients_[i].get();
    while (NowNs() < end) {
      if (inserts) InsertOnce(client, &per[i], single_statements);
      for (size_t r = 0; r < reads && NowNs() < end; ++r) {
        ReadOnce(client, &per[i], 0, next_read_.fetch_add(1));
      }
    }
  });
  Samples all;
  for (const Samples& s : per) all.Merge(s);
  return all;
}

void Bench::ReadBack() {
  // Every acked statement must be visible to a subject lookup.
  Client client(server_->port(), false);
  for (const auto& c : clients_) {
    for (const Acked& a : c->acked) {
      const std::string request =
          BuildRequest("GET", QueryTarget(SubjectQuery(a.subject)), kHost);
      HttpResponse response;
      RoundTripTiming timing;
      Fingerprint fp;
      ++attempted_;
      if (!client.Send(request, &response, &timing) ||
          response.status != 200 || !FingerprintBody(response.body, &fp) ||
          !(fp == a.expected)) {
        ++failed_;
        wrong_output_ = true;
        Fail("acked insert not read back: " + a.subject);
      }
    }
  }
}

void Bench::ReplayReads() {
  // Sampled reads, evenly spaced over the issued stream, replayed
  // through each layer's public function in turn. The query layers run
  // against one pinned snapshot, as the server's handler does.
  const size_t issued = std::max<size_t>(1, std::min(next_read_.load(), plan_.stream.size()));
  const size_t n = std::min(kReadReplays, issued);
  for (size_t k = 0; k < n; ++k) {
    const Query& q = plan_.queries[plan_.stream[k * issued / n]];
    const uint64_t id = 1000000 + k;
    ReadReplay r{};
    const size_t limit = q.kind == QueryKind::kScan ? kScanLimit : 0;
    const std::string_view head =
        std::string_view(q.request).substr(0, q.request.find("\r\n\r\n") + 4);
    SnapshotRdfStore::ReadPin pin = store_->Snapshot();
    const rdfdb::rdf::StoreView& view = pin.view();
    auto model_id = view.GetModelId(kModel);
    if (!model_id.ok()) {
      Fail("replay: no model " + std::string(kModel));
      return;
    }
    rdfdb::query::ModelSource source(&view, {*model_id});
    rdfdb::obs::QueryTrace trace;
    rdfdb::query::MatchOptions options;
    options.trace = &trace;
    options.limit = limit;
    std::vector<rdfdb::rdf::ValueId> slots;
    size_t emitted = 0;

    // Each child span starts where the previous one ended, so the
    // children tile the root and a stall between two calls lands in the
    // next one.
    int64_t mark = NowNs();
    const int64_t root = replay_spans_.Add("replay.read", mark, mark, -1, id);
    auto lap = [&](const char* name) {
      const int64_t now = NowNs();
      replay_spans_.Add(name, mark, now, root, id);
      replay_spans_.SetEnd(root, now);
      const double ns = static_cast<double>(now - mark);
      mark = now;
      return ns;
    };
    auto parsed = rdfdb::server::ParseHttpRequestHead(head);
    r.http_parse_ns = lap("server.http.parse");
    if (!parsed.ok()) {
      Fail("replay: request head does not parse");
      continue;
    }
    const uint64_t allocs0 = rdfdb::obs::ThreadAllocationCount();
    rdfdb::server::HttpResponse response = server_->Handle(*parsed, nullptr);
    r.handle_ns = lap("server.handle");
    r.allocs = static_cast<double>(rdfdb::obs::ThreadAllocationCount() - allocs0);
    r.bytes = static_cast<double>(response.body.size());
    const std::string wire = rdfdb::server::RenderHttpResponse(response);
    r.http_render_ns = lap("server.http.render");
    auto patterns = rdfdb::query::ParsePatterns(q.patterns, {});
    r.parse_ns = lap("query.parse");
    if (!patterns.ok()) {
      Fail("replay: query does not parse");
      continue;
    }
    rdfdb::query::CompiledPlan compiled = rdfdb::query::CompilePatterns(
        view, *patterns, nullptr, source, /*reorder_patterns=*/true, nullptr);
    r.plan_ns = lap("query.plan");
    const size_t width = compiled.slot_count();
    const rdfdb::Status joined = rdfdb::query::ExecutePlan(
        view, compiled, source, [&](const rdfdb::rdf::ValueId* frame) {
          slots.insert(slots.end(), frame, frame + width);
          ++emitted;
          return limit == 0 || emitted < limit;
        });
    r.join_ns = lap("query.join");
    size_t resolved = 0;
    for (rdfdb::rdf::ValueId v : slots) resolved += view.TermForValueId(v).ok();
    r.resolve_ns = lap("rdf.resolve");
    auto match = rdfdb::query::SdoRdfMatch(view, q.patterns, {kModel}, {}, "",
                                           options);
    r.match_ns = lap("query.match");
    r.rows = match.ok() ? static_cast<double>(match->row_count()) : 0.0;
    for (const rdfdb::obs::PatternTrace& p : trace.patterns) {
      r.scanned += static_cast<double>(p.rows_scanned);
    }
    if (!joined.ok() || !match.ok() || resolved != slots.size() ||
        response.status != 200 || wire.size() < response.body.size() ||
        r.rows != static_cast<double>(emitted)) {
      Fail("replay of " + q.patterns + " disagrees across layers");
      continue;
    }
    read_replays_.push_back(r);
  }
}

void Bench::ReplayInserts() {
  // Sampled insert bodies, re-addressed to fresh subjects, replayed as
  // parse + one SnapshotRdfStore::Apply: call to lambda entry (writer
  // wait), the lambda (insert), lambda exit to return (publish).
  std::vector<const Acked*> acked;
  for (const auto& c : clients_) {
    for (const Acked& a : c->acked) acked.push_back(&a);
  }
  const size_t n = std::min(kInsertReplays, acked.size());
  for (size_t k = 0; k < n; ++k) {
    const Acked& sample = *acked[k * acked.size() / n];
    std::string body = sample.body;
    const std::string fresh = sample.subject + "-replay";
    for (size_t pos = 0; (pos = body.find(sample.subject + ">", pos)) != std::string::npos;
         pos += fresh.size()) {
      body.replace(pos, sample.subject.size(), fresh);
    }
    const uint64_t id = 2000000 + k;
    InsertReplay r{};
    const int64_t a = NowNs();
    const int64_t root = replay_spans_.Add("replay.insert", a, a, -1, id);
    auto statements = rdfdb::rdf::ParseNTriplesDocument(body);
    const int64_t b = NowNs();
    replay_spans_.Add("rdf.ntriples.parse", a, b, root, id);
    r.parse_ns = static_cast<double>(b - a);
    if (!statements.ok()) {
      Fail("replay: insert body does not parse");
      replay_spans_.SetEnd(root, b);
      continue;
    }
    int64_t enter = 0, exit = 0;
    uint64_t bytes0 = 0, bytes1 = 0;
    const int64_t call = b;
    const rdfdb::Status applied = store_->Apply([&](rdfdb::rdf::RdfStore& live) {
      enter = NowNs();
      bytes0 = rdfdb::obs::ThreadAllocatedBytes();
      rdfdb::Status st = rdfdb::Status::OK();
      auto model_id = live.GetModelId(kModel);
      if (!model_id.ok()) st = model_id.status();
      for (size_t i = 0; st.ok() && i < statements->size(); ++i) {
        const rdfdb::rdf::NTriple& nt = (*statements)[i];
        st = live.InsertParsedTriple(*model_id, nt.subject, nt.predicate, nt.object)
                 .status();
      }
      bytes1 = rdfdb::obs::ThreadAllocatedBytes();
      exit = NowNs();
      return st;
    });
    const int64_t ret = NowNs();
    const int64_t apply = replay_spans_.Add("rdf.apply", call, ret, root, id);
    replay_spans_.Add("rdf.writer_wait", call, enter, apply, id);
    replay_spans_.Add("rdf.insert", enter, exit, apply, id);
    replay_spans_.Add("rdf.publish", exit, ret, apply, id);
    replay_spans_.SetEnd(root, ret);
    if (!applied.ok()) {
      Fail("replay insert: " + applied.ToString());
      continue;
    }
    r.writer_wait_ns = static_cast<double>(enter - call);
    r.insert_ns = static_cast<double>(exit - enter);
    r.publish_ns = static_cast<double>(ret - exit);
    r.statements = static_cast<double>(statements->size());
    r.alloc_bytes = static_cast<double>(bytes1 - bytes0);
    insert_replays_.push_back(r);
  }
}

bool Bench::Run() {
  std::filesystem::create_directories(args_.workdir);
  for (int round = 0; round < kSetups; ++round) {
    if (round > 0) {
      server_.reset();
      store_.reset();
    }
    SetupResult result;
    if (!Setup(round, &result)) return false;
    setups_.push_back(result);
  }
  std::error_code ec;
  std::filesystem::remove(corpus_path_, ec);

  for (unsigned i = 0; i < threads_; ++i) {
    clients_.push_back(std::make_unique<Client>(server_->port(), args_.trace));
  }
  const rdfdb::server::ServerMetrics& metrics = server_->metrics();
  const uint64_t accepted0 = metrics.accepted->Value();
  const uint64_t shed0 = metrics.shed->Value();
  // The phases run in kRounds interleaved rounds, so that every metric
  // samples the whole run, and the read metrics are taken per round:
  // load from other tenants of the machine comes in bursts of seconds,
  // and a statistic over rounds keeps a burst from moving the result.
  // The server's accept-to-response histogram is read over the read
  // latency windows. Its buckets are a factor of four wide, so its mean
  // (exact, from sum and count) is what is reported.
  uint64_t server_sum = 0, server_count = 0;
  // A worker records a request after its client has the response, so
  // the histogram is read only once no request is in flight.
  auto wait_idle = [&] {
    for (int i = 0; i < 10000 && metrics.inflight->Value() > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  auto read_window = [&](const std::function<Samples()>& window) {
    wait_idle();
    const uint64_t sum0 = metrics.latency_ns->sum();
    const uint64_t count0 = metrics.latency_ns->count();
    Samples samples = window();
    wait_idle();
    server_sum += metrics.latency_ns->sum() - sum0;
    server_count += metrics.latency_ns->count() - count0;
    if (!Supports(samples.read_ms.size(), 50)) {
      Fail("a round has " + std::to_string(samples.read_ms.size()) +
           " read samples, too few for its median");
    }
    round_read_p50_.push_back(Percentile(samples.read_ms, 50));
    reads_.Merge(samples);
    return samples;
  };
  auto account = [&](const Samples& window) {
    attempted_ += window.reads + window.inserts;
    failed_ += window.read_failures + window.insert_failures;
  };
  const double round_s = args_.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    if (w_.open_share > 0) {
      account(read_window([&] { return OpenLoopReads(round_s * w_.open_share); }));
    }
    if (w_.closed_share > 0) {
      const int64_t t0 = NowNs();
      Samples window = ClosedLoop(threads_, round_s * w_.closed_share, false, 1, true);
      round_goodput_.push_back(Ratio(static_cast<double>(window.reads_within_limit),
                                     static_cast<double>(NowNs() - t0) / 1e9));
      account(window);
    }
    if (w_.insert_share > 0) {
      const int64_t t0 = NowNs();
      Samples window = ClosedLoop(1, round_s * w_.insert_share, true, 0, true);
      insert_seconds_ += static_cast<double>(NowNs() - t0) / 1e9;
      inserts_.Merge(window);
      account(window);
    }
    if (w_.mix_share > 0) {
      const int64_t t0 = NowNs();
      Samples window = read_window([&] {
        return ClosedLoop(threads_, round_s * w_.mix_share, true,
                          w_.reads_per_insert, false);
      });
      const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
      round_goodput_.push_back(
          Ratio(static_cast<double>(window.reads_within_limit), seconds));
      insert_seconds_ += seconds;
      inserts_.Merge(window);
      account(window);
    }
  }
  server_request_mean_ns_ = Ratio(static_cast<double>(server_sum),
                                  static_cast<double>(server_count));
  accepted_ = metrics.accepted->Value() - accepted0;
  shed_ = metrics.shed->Value() - shed0;
  issued_reads_ = std::min(next_read_.load(), plan_.stream.size());
  for (size_t i = 0; i < issued_reads_; ++i) {
    distinct_reads_.insert(plan_.stream[i]);
  }
  ReadBack();
  if (args_.trace) {
    ReplayReads();
    ReplayInserts();
  }
  server_->Shutdown();
  return true;
}

// ---- Reporting -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  size_t samples;
};

template <typename T, typename F>
double MedianOf(const std::vector<T>& items, F field) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(static_cast<double>(field(item)));
  return Median(std::move(v));
}

void Bench::Report() const {
  std::vector<Metric> m;
  auto per_triple = [](const SetupResult& r, double bytes) {
    return Ratio(bytes, static_cast<double>(r.triples));
  };
  const size_t setups = setups_.size();
  if (!args_.trace) {
    const Samples& ins = inserts_;
    m.push_back({"setup_s",
                 MedianOf(setups_, [](const SetupResult& r) { return r.setup_s; }),
                 "s", setups});
    // Latency: the median over rounds of each round's median. Goodput:
    // the upper quartile over rounds, the rate the server sustained when
    // other tenants left it the machine (their load only lowers it).
    m.push_back({"read_p50_ms", Median(round_read_p50_), "ms",
                 reads_.read_ms.size()});
    m.push_back({"read_goodput_qps", Percentile(round_goodput_, 75), "1/s",
                 round_goodput_.size()});
    m.push_back({"insert_p50_ms", Percentile(ins.insert_ms, 50), "ms",
                 ins.insert_ms.size()});
    m.push_back({"insert_stmts_per_s",
                 Ratio(static_cast<double>(ins.acked_statements), insert_seconds_),
                 "1/s", ins.inserts});
    m.push_back({"load_triples_per_s", MedianOf(setups_, [](const SetupResult& r) {
                   return Ratio(static_cast<double>(r.triples), r.load_s);
                 }),
                 "1/s", setups});
    m.push_back({"store_bytes_per_triple", MedianOf(setups_, [&](const SetupResult& r) {
                   return per_triple(r, static_cast<double>(r.mem.StoreTotal()));
                 }),
                 "B", setups});
    m.push_back({"heap_bytes_per_triple", MedianOf(setups_, [&](const SetupResult& r) {
                   return per_triple(r, static_cast<double>(r.heap_growth));
                 }),
                 "B", setups});
  } else {
    SpanTrace all = replay_spans_;
    for (const auto& c : clients_) all.Merge(c->spans);
    std::string first_violation;
    const size_t violations = all.CheckIdentity(&first_violation);
    if (violations > 0) {
      std::printf("# trace identity violations: %zu (first: %s)\n", violations,
                  first_violation.c_str());
    }
    const std::string trace_path =
        (std::filesystem::path(args_.workdir) /
         ("trace-" + args_.workload + ".jsonl"))
            .string();
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      all.WriteJsonLines(f);
      std::fclose(f);
    }
    // Cost of recording one span, measured on a scratch trace.
    SpanTrace scratch;
    const int64_t t0 = NowNs();
    for (int i = 0; i < 10000; ++i) scratch.Add("x", NowNs(), NowNs(), -1, 0);
    const double span_cost = static_cast<double>(NowNs() - t0) / 10000.0;

    uint64_t requests = 0;
    uint64_t connects = 0;
    for (const auto& c : clients_) {
      requests += c->requests;
      connects += c->conn.connects();
    }
    const std::vector<double>& rtt = reads_.rtt_ns;
    const double rtt_mean = Ratio(std::accumulate(rtt.begin(), rtt.end(), 0.0),
                                  static_cast<double>(rtt.size()));
    const auto& rr = read_replays_;
    const auto& ir = insert_replays_;
    auto sum = [](const auto& items, auto field) {
      double total = 0;
      for (const auto& item : items) total += item.*field;
      return total;
    };
    const double rows = sum(rr, &ReadReplay::rows);
    auto read_layer = [&](const char* name, double ReadReplay::*field) {
      m.push_back({name, MedianOf(rr, [field](const ReadReplay& r) { return r.*field; }),
                   "ns", rr.size()});
    };
    auto insert_layer = [&](const char* name, double InsertReplay::*field) {
      m.push_back({name, MedianOf(ir, [field](const InsertReplay& r) { return r.*field; }),
                   "ns", ir.size()});
    };
    auto setup_layer = [&](const char* name, const char* unit, auto field) {
      m.push_back({name, MedianOf(setups_, field), unit, setups});
    };
    auto mem_layer = [&](const char* name, auto bytes) {
      setup_layer(name, "B", [&](const SetupResult& r) {
        return per_triple(r, static_cast<double>(bytes(r)));
      });
    };
    m.push_back({"client.rtt_mean_ns", rtt_mean, "ns", rtt.size()});
    m.push_back({"server.request_mean_ns", server_request_mean_ns_, "ns",
                 rtt.size()});
    read_layer("server.http.parse_ns", &ReadReplay::http_parse_ns);
    read_layer("server.http.render_ns", &ReadReplay::http_render_ns);
    m.push_back({"server.admission.accepted", static_cast<double>(accepted_),
                 "count", 1});
    m.push_back({"server.admission.shed", static_cast<double>(shed_), "count", 1});
    read_layer("server.handle_ns", &ReadReplay::handle_ns);
    m.push_back({"server.render_ns",
                 MedianOf(rr, [](const ReadReplay& r) { return r.handle_ns - r.match_ns; }),
                 "ns", rr.size()});
    m.push_back({"server.response_bytes_per_row",
                 Ratio(sum(rr, &ReadReplay::bytes), rows), "B", rr.size()});
    m.push_back({"server.allocs_per_row", Ratio(sum(rr, &ReadReplay::allocs), rows),
                 "count", rr.size()});
    read_layer("query.parse_ns", &ReadReplay::parse_ns);
    read_layer("query.plan_ns", &ReadReplay::plan_ns);
    read_layer("query.join_ns", &ReadReplay::join_ns);
    read_layer("query.match_ns", &ReadReplay::match_ns);
    m.push_back({"query.rows_scanned_per_row",
                 Ratio(sum(rr, &ReadReplay::scanned), rows), "count", rr.size()});
    read_layer("rdf.resolve_ns", &ReadReplay::resolve_ns);
    insert_layer("rdf.ntriples.parse_ns", &InsertReplay::parse_ns);
    insert_layer("rdf.writer_wait_ns", &InsertReplay::writer_wait_ns);
    insert_layer("rdf.insert_ns", &InsertReplay::insert_ns);
    insert_layer("rdf.publish_ns", &InsertReplay::publish_ns);
    m.push_back({"rdf.insert_alloc_bytes_per_stmt",
                 Ratio(sum(ir, &InsertReplay::alloc_bytes),
                       sum(ir, &InsertReplay::statements)),
                 "B", ir.size()});
    setup_layer("rdf.bulk_load.parse_ns", "ns",
                [](const SetupResult& r) { return r.bulk.parse_ns; });
    setup_layer("rdf.bulk_load.intern_ns", "ns",
                [](const SetupResult& r) { return r.bulk.intern_ns; });
    setup_layer("rdf.bulk_load.insert_ns", "ns",
                [](const SetupResult& r) { return r.bulk.insert_ns; });
    setup_layer("rdf.bulk_load.cpu_ns", "ns",
                [](const SetupResult& r) { return r.bulk.cpu_ns; });
    setup_layer("rdf.bulk_load.alloc_bytes", "B",
                [](const SetupResult& r) { return r.bulk.alloc_bytes; });
    setup_layer("rdf.bulk_load.reify_ns", "ns",
                [](const SetupResult& r) { return r.reify_ns; });
    setup_layer("rdf.bulk_load.publish_ns", "ns",
                [](const SetupResult& r) { return r.publish_ns; });
    mem_layer("mem.value_store_bytes_per_triple",
              [](const SetupResult& r) { return r.mem.value_store_bytes; });
    mem_layer("mem.link_table_bytes_per_triple",
              [](const SetupResult& r) { return r.mem.link_table_bytes; });
    mem_layer("mem.quad_cache_bytes_per_triple",
              [](const SetupResult& r) { return r.mem.quad_cache_bytes; });
    mem_layer("mem.term_dict_bytes_per_triple",
              [](const SetupResult& r) { return r.mem.term_dict_bytes; });
    mem_layer("mem.unattributed_bytes_per_triple", [](const SetupResult& r) {
      return static_cast<double>(r.heap_growth) -
             static_cast<double>(r.mem.StoreTotal());
    });
    m.push_back({"client.read_p90_ms", Percentile(reads_.read_ms, 90), "ms",
                 reads_.read_ms.size()});
    m.push_back({"client.insert_p90_ms", Percentile(inserts_.insert_ms, 90), "ms",
                 inserts_.insert_ms.size()});
    m.push_back({"client.lag_p90_ms", Percentile(reads_.lag_ms, 90), "ms",
                 reads_.lag_ms.size()});
    m.push_back({"client.connects_per_request",
                 Ratio(static_cast<double>(connects), static_cast<double>(requests)),
                 "count", requests});
    m.push_back({"trace.read_p50_ms", Median(round_read_p50_), "ms",
                 reads_.read_ms.size()});
    m.push_back({"trace.span_cost_ns", span_cost, "ns", 10000});
    m.push_back({"trace.spans", static_cast<double>(all.size()), "count", 1});
    m.push_back({"trace.identity_violations", static_cast<double>(violations), "count", 1});
  }

  // Human-readable lines first; the last line is the JSON result.
  std::printf("# rdfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
              Number(args_.seconds).c_str(), args_.trace ? 1 : 0);
  const SetupResult& last = setups_.back();
  const double repeat_share =
      issued_reads_ == 0 ? 0.0
                         : 1.0 - static_cast<double>(distinct_reads_.size()) /
                                     static_cast<double>(issued_reads_);
  const Samples& ins = inserts_;
  std::printf(
      "# traffic model_triples=%zu corpus_distinct=%zu read_repeat_share=%s "
      "mean_rows_per_read=%s stmts_per_insert=%s clients=%u flush_policy=none\n",
      last.triples, expect_->distinct_triples(), Number(repeat_share).c_str(),
      Number(Ratio(static_cast<double>(reads_.rows),
                   static_cast<double>(reads_.read_ms.size())))
          .c_str(),
      Number(Ratio(static_cast<double>(ins.acked_statements),
                   static_cast<double>(ins.insert_ms.size())))
          .c_str(),
      threads_);
  for (const Metric& metric : m) {
    std::printf("# metric %-36s %14s %-5s samples=%zu (supports p%s)\n",
                metric.name.c_str(), Number(metric.value).c_str(), metric.unit,
                metric.samples,
                Number(HighestSupportedPercentile(metric.samples)).c_str());
  }
  auto print_rounds = [](const char* name, const std::vector<double>& values) {
    std::printf("# rounds %s", name);
    for (double v : values) std::printf(" %s", Number(v).c_str());
    std::printf("\n");
  };
  print_rounds("read_p50_ms", round_read_p50_);
  print_rounds("read_goodput_qps", round_goodput_);
  // The tails, over all rounds. Not gated end-to-end metrics: other
  // tenants' bursts move them by more than any bound (README.md).
  std::printf("# tails read_p90_ms=%s read_p99_ms=%s insert_p90_ms=%s "
              "read_samples=%zu insert_samples=%zu\n",
              Number(Percentile(reads_.read_ms, 90)).c_str(),
              Number(Percentile(reads_.read_ms, 99)).c_str(),
              Number(Percentile(inserts_.insert_ms, 90)).c_str(),
              reads_.read_ms.size(), inserts_.insert_ms.size());
  for (const std::string& f : failures_) std::printf("# failure %s\n", f.c_str());
  std::printf(
      "# provenance nproc=%u build_type=%s compiler=\"%s\" source=%s "
      "loadavg_start=%s loadavg_end=%s\n",
      threads_, RDFBENCH_BUILD_TYPE, RDFBENCH_COMPILER, args_.source.c_str(),
      start_loadavg_.c_str(), LoadAverage().c_str());

  std::string json = "{\"correct\": ";
  json += wrong_output_ ? "false" : "true";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + m[i].name + "\": {\"value\": " + Number(m[i].value) +
            ", \"unit\": \"" + m[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace rdfbench

int main(int argc, char** argv) {
  rdfbench::Args args;
  if (!rdfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rdfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--source <digest>]\n");
    return 2;
  }
  const rdfbench::Workload* workload = nullptr;
  for (const rdfbench::Workload& w : rdfbench::kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  rdfbench::Bench bench(args, *workload);
  if (!bench.Run()) {
    bench.PrintFailures(stderr);
    return 1;
  }
  bench.Report();
  return 0;
}
