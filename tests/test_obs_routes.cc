// The observability routes of rdfdb_serve (/metrics /varz /healthz
// /slow /timeline /profilez /allocz /activityz /historyz), driven
// through RdfServer::Handle on a SnapshotRdfStore without sockets: each
// route, 404 when a facility is detached, /varz rates, every /healthz
// signal, the gauge refresh, and /profilez's input and deadline
// handling.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "common/cancel.h"
#include "obs/active_ops.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/slow_query_log.h"
#include "obs/span_timeline.h"
#include "query/match.h"
#include "rdf/snapshot_store.h"
#include "server/http.h"
#include "server/server.h"

namespace rdfdb::server {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

class ObsRoutesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE(store_
                    .Apply([](rdf::RdfStore& live) -> Status {
                      for (int i = 0; i < 8; ++i) {
                        RDFDB_RETURN_NOT_OK(
                            live.InsertTriple("m",
                                              "<urn:s" + std::to_string(i) +
                                                  ">",
                                              "<urn:p>", "\"v\"")
                                .status());
                      }
                      return Status::OK();
                    })
                    .ok());
  }

  /// Attach the slow-query log and timeline to the store.
  void AttachLogs() { store_.SetObservability(nullptr, &slow_, &timeline_); }

  void RunQuery() {
    rdf::SnapshotRdfStore::ReadPin pin = store_.Snapshot();
    ASSERT_TRUE(
        query::SdoRdfMatch(pin.view(), "(?s <urn:p> ?o)", {"m"}, {}, "")
            .ok());
  }

  /// One GET through the real request parser and the socket-free core.
  static HttpResponse Get(RdfServer& server, const std::string& target,
                          const CancelToken* token = nullptr) {
    Result<HttpRequest> request =
        ParseHttpRequestHead("GET " + target + " HTTP/1.1\r\n\r\n");
    EXPECT_TRUE(request.ok()) << target;
    return server.Handle(*request, token);
  }

  obs::Gauge* StoreGauge(const std::string& name) {
    return store_.metrics_registry().RegisterGauge(name, "");
  }

  rdf::SnapshotRdfStore store_;
  obs::SlowQueryLog slow_{/*threshold_ns=*/0};
  obs::Timeline timeline_;
};

TEST_F(ObsRoutesTest, HandleRoutesAllEndpoints) {
  AttachLogs();
  RunQuery();
  RdfServer server(&store_, {});

  HttpResponse health = Get(server, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  HttpResponse metrics = Get(server, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("rdfdb_link_inserts_total 8"),
            std::string::npos);

  HttpResponse varz = Get(server, "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(varz.body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(varz.body.find("\"metrics\""), std::string::npos);
  EXPECT_NE(varz.body.find("\"slow_queries_captured\""), std::string::npos);
  EXPECT_NE(Get(server, "/").body.find("\"uptime_seconds\""),
            std::string::npos);

  HttpResponse slow = Get(server, "/slow");
  EXPECT_EQ(slow.status, 200);
  EXPECT_NE(slow.body.find("(?s <urn:p> ?o)"), std::string::npos);

  HttpResponse trace = Get(server, "/timeline");
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);

  HttpResponse missing = Get(server, "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("endpoints: /metrics"), std::string::npos);
}

TEST_F(ObsRoutesTest, DetachedSurfacesReturn404) {
  RdfServer server(&store_, {});
  EXPECT_EQ(Get(server, "/slow").status, 404);
  EXPECT_EQ(Get(server, "/timeline").status, 404);
  EXPECT_EQ(Get(server, "/metrics").status, 200);
  HttpResponse varz = Get(server, "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_EQ(varz.body.find("\"slow_queries_captured\""), std::string::npos);
  EXPECT_EQ(varz.body.find("\"events_appended\""), std::string::npos);
}

TEST_F(ObsRoutesTest, VarzRatesReflectActivityBetweenScrapes) {
  AttachLogs();
  RdfServer server(&store_, {});
  (void)Get(server, "/varz");  // establish the previous snapshot
  std::this_thread::sleep_for(milliseconds(10));
  RunQuery();
  HttpResponse varz = Get(server, "/varz");
  EXPECT_NE(varz.body.find("\"rdfdb_query_total\""), std::string::npos)
      << varz.body;
}

TEST_F(ObsRoutesTest, ProfilezCapturesCollapsedStacksUnderLoad) {
  RdfServer server(&store_, {});
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    volatile uint64_t acc = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) acc = acc + static_cast<uint64_t>(i);
    }
  });
  HttpResponse resp = Get(server, "/profilez?seconds=0.3");
  stop.store(true, std::memory_order_relaxed);
  burner.join();

  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("text/plain"), std::string::npos);
  ASSERT_FALSE(resp.body.empty());
  // Every line is flamegraph collapsed format: "frame(;frame)* count".
  std::istringstream in(resp.body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    for (size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(std::isdigit(line[i])) << line;
    }
  }
}

// A profile asking for a minute under a 200 ms deadline samples only
// for what is left of the deadline.
TEST_F(ObsRoutesTest, ProfilezIsClampedToTheRequestDeadline) {
  RdfServer server(&store_, {});
  CancelToken token;
  token.SetDeadlineAfterMs(200);
  const auto start = steady_clock::now();
  HttpResponse resp = Get(server, "/profilez?seconds=60", &token);
  const auto elapsed = steady_clock::now() - start;
  EXPECT_EQ(resp.status, 200);
  EXPECT_LT(elapsed, milliseconds(1000));
}

TEST_F(ObsRoutesTest, ProfilezRejectsNonFiniteOrNonNumericSeconds) {
  RdfServer server(&store_, {});
  CancelToken token;
  token.SetDeadlineAfterMs(200);
  for (const char* target :
       {"/profilez?seconds=nan", "/profilez?seconds=inf",
        "/profilez?seconds=abc", "/profilez?seconds=1x",
        "/profilez?seconds="}) {
    const auto start = steady_clock::now();
    HttpResponse resp = Get(server, target, &token);
    EXPECT_EQ(resp.status, 400) << target;
    // Rejected up front, without sampling.
    EXPECT_LT(steady_clock::now() - start, milliseconds(100)) << target;
  }
}

// Only a parameter named exactly "seconds" sets the window: xseconds=1
// leaves the 2 s default in force.
TEST_F(ObsRoutesTest, ProfilezReadsOnlyTheSecondsParameter) {
  RdfServer server(&store_, {});
  const auto start = steady_clock::now();
  HttpResponse resp = Get(server, "/profilez?xseconds=1");
  const auto elapsed = steady_clock::now() - start;
  EXPECT_EQ(resp.status, 200);
  EXPECT_GE(elapsed, milliseconds(1900));
}

TEST_F(ObsRoutesTest, AlloczReportsLedgerAndScopes) {
  RdfServer server(&store_, {});
  {
    obs::ResourceScope scope("statsz_test_scope");
    delete[] new char[1024];
  }
  HttpResponse resp = Get(server, "/allocz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"heap_live_bytes\""), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"scopes\""), std::string::npos);
  EXPECT_NE(resp.body.find("statsz_test_scope"), std::string::npos);
}

// A reader pinned while the writer publishes kUnhealthyEpochLag
// versions lags that far behind the frontier; releasing it heals.
TEST_F(ObsRoutesTest, HealthzDegradesOnEpochLag) {
  RdfServer server(&store_, {});
  EXPECT_EQ(Get(server, "/healthz").status, 200);
  {
    rdf::SnapshotRdfStore::ReadPin pin = store_.Snapshot();
    for (int64_t i = 0; i < kUnhealthyEpochLag; ++i) {
      ASSERT_TRUE(store_.Apply([](rdf::RdfStore&) {}).ok());
    }
    HttpResponse resp = Get(server, "/healthz");
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("degraded:"), std::string::npos) << resp.body;
    EXPECT_NE(resp.body.find("epoch_lag=" +
                             std::to_string(kUnhealthyEpochLag)),
              std::string::npos)
        << resp.body;
  }
  EXPECT_EQ(Get(server, "/healthz").status, 200);
}

// A real stall takes kUnhealthyRetentionAgeSeconds to build up, so the
// verdict is checked on a registry whose gauge is raised to the
// threshold; the route itself must report the refreshed (young) age.
TEST_F(ObsRoutesTest, HealthzDegradesOnRetainedVersionAge) {
  obs::MetricsRegistry registry;
  obs::Gauge* age = registry.RegisterGauge(
      "rdfdb_version_retention_age_seconds", "test retention age");
  age->Set(kUnhealthyRetentionAgeSeconds - 1);
  EXPECT_EQ(StoreHealthSignals(registry), "");
  age->Set(kUnhealthyRetentionAgeSeconds);
  EXPECT_EQ(StoreHealthSignals(registry),
            " retention_age_seconds=" +
                std::to_string(kUnhealthyRetentionAgeSeconds));

  RdfServer server(&store_, {});
  rdf::SnapshotRdfStore::ReadPin pin = store_.Snapshot();
  ASSERT_TRUE(store_.Apply([](rdf::RdfStore&) {}).ok());  // retire one
  StoreGauge("rdfdb_version_retention_age_seconds")
      ->Set(kUnhealthyRetentionAgeSeconds);
  // The refresh replaces the stale reading with the real, young age.
  EXPECT_EQ(Get(server, "/healthz").status, 200);
  EXPECT_LT(StoreGauge("rdfdb_version_retention_age_seconds")->Value(),
            kUnhealthyRetentionAgeSeconds);
}

TEST_F(ObsRoutesTest, HealthzCountsOnlyNewEventLogDrops) {
  std::ostringstream out;
  obs::EventLog::Options options;
  options.sink = &out;
  options.capacity = 1;  // one slot: a burst overwhelms the drainer
  auto log = obs::EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());
  store_.SetObservability(log->get(), nullptr, nullptr);

  auto force_drops = [&] {
    const uint64_t before = (*log)->dropped();
    for (int i = 0; i < 1000000 && (*log)->dropped() == before; ++i) {
      (*log)->Append("test", "spam");
    }
    return (*log)->dropped() > before;
  };
  // Drops that happened before the server existed are history.
  ASSERT_TRUE(force_drops());

  {
    RdfServer server(&store_, {});
    EXPECT_EQ(Get(server, "/healthz").status, 200);
    EXPECT_NE(Get(server, "/varz").body.find("\"events_dropped\""),
              std::string::npos);

    ASSERT_TRUE(force_drops());
    HttpResponse resp = Get(server, "/healthz");
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("event_log_drops="), std::string::npos)
        << resp.body;
    // The check consumed the watermark: with no further drops, healthy.
    EXPECT_EQ(Get(server, "/healthz").status, 200);
  }
  store_.SetObservability(nullptr, nullptr, nullptr);
}

TEST_F(ObsRoutesTest, ActivityzListsRegisteredOperations) {
  RdfServer server(&store_, {});
  obs::ActiveOpGuard guard(obs::OpKind::kBulkLoad, "statsz bulk op");
  HttpResponse resp = Get(server, "/activityz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"bulkload\""), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("statsz bulk op"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("\"registered_total\""), std::string::npos);
}

TEST_F(ObsRoutesTest, HistoryzRequiresAnAttachedRecorder) {
  {
    RdfServer without(&store_, {});
    EXPECT_EQ(Get(without, "/historyz").status, 404);
  }

  obs::FlightRecorder::Options options;
  options.registry = &store_.metrics_registry();
  options.sample_interval_ms = 60'000;  // driven manually below
  auto recorder = obs::FlightRecorder::Start(std::move(options));
  ASSERT_TRUE(recorder.ok());
  (*recorder)->SampleNow();

  RdfServerOptions server_options;
  server_options.recorder = recorder->get();
  RdfServer server(&store_, server_options);
  HttpResponse resp = Get(server, "/historyz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"interval_ms\":"), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"t_unix_ms\""), std::string::npos);
}

// /metrics, /healthz, /varz and / refresh the store's memory gauges
// first; endpoints that read no gauge leave them alone.
TEST_F(ObsRoutesTest, RefreshHookRunsBeforeGaugeEndpoints) {
  RdfServer server(&store_, {});
  obs::Gauge* dict_bytes = StoreGauge("rdfdb_mem_term_dict_bytes");
  for (const char* target : {"/metrics", "/healthz", "/varz", "/"}) {
    dict_bytes->Set(-1);
    (void)Get(server, target);
    EXPECT_GT(dict_bytes->Value(), 0) << target;
  }
  dict_bytes->Set(-1);
  (void)Get(server, "/allocz");
  (void)Get(server, "/activityz");
  EXPECT_EQ(dict_bytes->Value(), -1);
}

}  // namespace
}  // namespace rdfdb::server
