#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "rdf/rdf_store.h"
#include "rdf/snapshot_store.h"

namespace rdfdb::rdf {
namespace {

Status InsertN(RdfStore* store, const std::string& model, int count,
               int offset = 0) {
  for (int i = 0; i < count; ++i) {
    auto inserted = store->InsertTriple(
        model, "<urn:s" + std::to_string(offset + i) + ">",
        "<urn:p" + std::to_string(i % 7) + ">",
        "\"value-" + std::to_string(offset + i) + "\"");
    if (!inserted.ok()) return inserted.status();
  }
  return Status::OK();
}

TEST(MemoryAccountingTest, BreakdownGrowsWithInserts) {
  RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "m_app", "triple").ok());
  const RdfStore::MemoryBreakdown empty = store.MemoryUsage();

  ASSERT_TRUE(InsertN(&store, "m", 1000).ok());
  const RdfStore::MemoryBreakdown loaded = store.MemoryUsage();

  // 1000 distinct subjects/objects: the lexical store and the link
  // table must both visibly grow.
  EXPECT_GT(loaded.value_store_bytes, empty.value_store_bytes);
  EXPECT_GT(loaded.link_table_bytes, empty.link_table_bytes);
  EXPECT_GT(loaded.StoreTotal(), empty.StoreTotal());

  // Sanity scale: 1000 short triples live in kilobytes-to-megabytes,
  // not bytes and not gigabytes.
  EXPECT_GT(loaded.StoreTotal(), 10u * 1024u);
  EXPECT_LT(loaded.StoreTotal(), 1u << 30);

  // The estimate has to be in the neighborhood of what the allocator
  // ledger says the whole process holds: the store cannot claim more
  // than everything allocated.
  EXPECT_LE(loaded.StoreTotal(), loaded.tracked_heap_bytes);
}

TEST(MemoryAccountingTest, GaugesAreSetByUpdateMemoryGauges) {
  RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "m_app", "triple").ok());
  ASSERT_TRUE(InsertN(&store, "m", 200).ok());
  store.UpdateMemoryGauges();

  const obs::MetricsRegistry& reg = store.metrics_registry();
  const obs::Gauge* value_bytes = reg.FindGauge("rdfdb_mem_value_store_bytes");
  const obs::Gauge* link_bytes = reg.FindGauge("rdfdb_mem_link_table_bytes");
  const obs::Gauge* heap_bytes = reg.FindGauge("rdfdb_mem_tracked_heap_bytes");
  ASSERT_NE(value_bytes, nullptr);
  ASSERT_NE(link_bytes, nullptr);
  ASSERT_NE(heap_bytes, nullptr);
  EXPECT_GT(value_bytes->Value(), 0);
  EXPECT_GT(link_bytes->Value(), 0);
  EXPECT_GT(heap_bytes->Value(), 0);

  const RdfStore::MemoryBreakdown breakdown = store.MemoryUsage();
  EXPECT_EQ(value_bytes->Value(),
            static_cast<int64_t>(breakdown.value_store_bytes));
  EXPECT_EQ(link_bytes->Value(),
            static_cast<int64_t>(breakdown.link_table_bytes));
}

TEST(MemoryAccountingTest, SnapshotStoreBreakdownIncludesDictionary) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertN(&live, "m", 500);
                  })
                  .ok());
  const RdfStore::MemoryBreakdown breakdown = store.MemoryUsage();
  EXPECT_GT(breakdown.value_store_bytes, 0u);
  EXPECT_GT(breakdown.link_table_bytes, 0u);
  EXPECT_GT(breakdown.term_dict_bytes, 0u);
  EXPECT_GT(breakdown.StoreTotal(), breakdown.term_dict_bytes);
}

TEST(MemoryAccountingTest, RetiredBytesAppearWhileASnapshotPinsAndClear) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertN(&live, "m", 300);
                  })
                  .ok());
  {
    // Pin the current version, then publish past it: the displaced
    // version cannot be reclaimed while this snapshot lives, and its
    // exclusive bytes show up in the breakdown.
    auto snapshot = store.Snapshot();
    ASSERT_TRUE(store
                    .Apply([](RdfStore& live) {
                      return InsertN(&live, "m", 300, /*offset=*/1000);
                    })
                    .ok());
    EXPECT_GE(store.RetiredOutstanding(), 1u);
    EXPECT_GT(store.RetiredBytes(), 0u);
    EXPECT_GE(store.OldestRetireAgeSeconds(), 0.0);
    EXPECT_GT(store.MemoryUsage().retired_version_bytes, 0u);
  }
  // Snapshot released: the next publish sweeps, retention drains.
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    return InsertN(&live, "m", 1, /*offset=*/5000);
                  })
                  .ok());
  EXPECT_EQ(store.RetiredBytes(), 0u);
  EXPECT_EQ(store.OldestRetireAgeSeconds(), 0.0);
}

TEST(MemoryAccountingTest, RetiredBytesChargeOnlyUnsharedChunksAndShards) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertN(&live, "m", 20000);
                  })
                  .ok());
  const size_t quad_cache_bytes = store.MemoryUsage().quad_cache_bytes;
  {
    // The displaced version shares all but the chunks and shards the
    // one-statement write copied, so only those are charged to it.
    auto snapshot = store.Snapshot();
    ASSERT_TRUE(store
                    .Apply([](RdfStore& live) {
                      return InsertN(&live, "m", 1, /*offset=*/50000);
                    })
                    .ok());
    EXPECT_GT(store.RetiredBytes(), 0u);
    EXPECT_LT(store.RetiredBytes(), quad_cache_bytes / 10);
    EXPECT_EQ(store.MemoryUsage().retired_version_bytes,
              store.RetiredBytes());
  }
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    return InsertN(&live, "m", 1, /*offset=*/60000);
                  })
                  .ok());
  EXPECT_EQ(store.RetiredBytes(), 0u);
}

TEST(MemoryAccountingTest, RetentionWatchdogEmitsStallEvent) {
  std::ostringstream sink;
  obs::EventLog::Options options;
  options.sink = &sink;
  auto log = obs::EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());

  SnapshotRdfStore store;
  store.SetObservability(log->get(), nullptr, nullptr);
  // Any retention at all trips the watchdog with a (near-)zero
  // threshold.
  store.set_retention_warn_seconds(1e-9);
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertN(&live, "m", 50);
                  })
                  .ok());

  auto snapshot = store.Snapshot();  // pins the current version
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    return InsertN(&live, "m", 50, /*offset=*/100);
                  })
                  .ok());
  // The gauge-refresh path also runs the watchdog.
  store.UpdateMemoryGauges();
  (*log)->Flush();

  EXPECT_NE(sink.str().find("retention_stall"), std::string::npos)
      << sink.str();
  EXPECT_NE(sink.str().find("\"cat\":\"epoch\""), std::string::npos);

  const obs::Gauge* age = store.metrics_registry().FindGauge(
      "rdfdb_version_retention_age_seconds");
  ASSERT_NE(age, nullptr);
  EXPECT_GE(age->Value(), 0);
}

TEST(MemoryAccountingTest, WatchdogDisabledEmitsNothing) {
  std::ostringstream sink;
  obs::EventLog::Options options;
  options.sink = &sink;
  auto log = obs::EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());

  SnapshotRdfStore store;
  store.SetObservability(log->get(), nullptr, nullptr);
  store.set_retention_warn_seconds(0.0);  // disabled
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertN(&live, "m", 50);
                  })
                  .ok());
  auto snapshot = store.Snapshot();
  ASSERT_TRUE(store
                  .Apply([](RdfStore& live) {
                    return InsertN(&live, "m", 50, /*offset=*/100);
                  })
                  .ok());
  store.UpdateMemoryGauges();
  (*log)->Flush();
  EXPECT_EQ(sink.str().find("retention_stall"), std::string::npos)
      << sink.str();
}

}  // namespace
}  // namespace rdfdb::rdf
