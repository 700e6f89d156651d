// Copy-on-write by chunk for the per-model quad cache.
//
// A published StoreVersion shares its quad-cache chunks and shards with
// the live store; a write copies only what it touches. These tests pin
// that contract down:
//   1. Isolation — a pinned version reads exactly what it read when it
//      was pinned (every quad, every posting list, every (s, p) probe,
//      every LINK_ID resolution) across every mutation path: inserts,
//      deletes up to and through Compact(), an Implied → Direct
//      upgrade, a reification, and dropping another model. The live
//      cache must then equal one rebuilt from rdf_link$.
//   2. Cost — a one-statement write allocates a bounded amount that
//      does not grow with the model.
//   3. Concurrency — readers scan pinned versions while the writer
//      inserts, deletes and compacts (run under TSan via
//      tools/run_tsan.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/resource_tracker.h"
#include "query/match.h"
#include "rdf/snapshot_store.h"

namespace rdfdb::rdf {
namespace {

using IdQuad = LinkStore::IdQuad;

std::string Subject(int i) { return "<urn:s" + std::to_string(i) + ">"; }
std::string Predicate(int i) { return "<urn:p" + std::to_string(i % 7) + ">"; }
std::string Object(int i) { return "\"v" + std::to_string(i) + "\""; }

Status InsertRange(RdfStore& live, const std::string& model, int from,
                   int to) {
  for (int i = from; i < to; ++i) {
    RDFDB_RETURN_NOT_OK(
        live.InsertTriple(model, Subject(i), Predicate(i), Object(i))
            .status());
  }
  return Status::OK();
}

/// Everything a reader can observe of one model's cache, raw: quads by
/// index (dead ones included), posting lists as stored, (s, p) probe
/// answers, and the version's LINK_ID resolutions. Posting and probe
/// keys are given, so two captures of one version compare key for key.
struct RawCapture {
  std::vector<std::tuple<ValueId, ValueId, ValueId, ValueId, LinkId>> quads;
  std::map<std::pair<char, ValueId>, std::vector<uint32_t>> postings;
  std::map<std::pair<ValueId, ValueId>, std::vector<ValueId>> sp;
  std::map<LinkId, std::string> resolved;

  bool operator==(const RawCapture& other) const {
    return quads == other.quads && postings == other.postings &&
           sp == other.sp && resolved == other.resolved;
  }
};

struct Keys {
  std::set<ValueId> s, canon, p;
  std::set<std::pair<ValueId, ValueId>> sp;
  std::set<LinkId> links;
};

Keys KeysOf(const LinkStore::LeafScan& leaf) {
  Keys keys;
  if (!leaf.valid()) return keys;
  for (uint32_t i = 0; i < leaf.quad_count(); ++i) {
    const IdQuad& q = leaf.quads()[i];
    if (LinkStore::ModelIdCache::Dead(q)) continue;
    keys.s.insert(q.s);
    keys.canon.insert(q.canon_o);
    keys.p.insert(q.p);
    keys.sp.insert({q.s, q.p});
    keys.links.insert(q.link_id);
  }
  return keys;
}

RawCapture CaptureRaw(const StoreVersion& version, ModelId model_id,
                      const Keys& keys) {
  RawCapture out;
  const LinkStore::LeafScan leaf = version.Leaf(model_id);
  if (leaf.valid()) {
    for (uint32_t i = 0; i < leaf.quad_count(); ++i) {
      const IdQuad& q = leaf.quads()[i];
      out.quads.emplace_back(q.s, q.p, q.o, q.canon_o, q.link_id);
    }
  }
  auto postings = [&](char kind, ValueId key, const codec::PostingView& list) {
    out.postings[{kind, key}] = list.ToVector();
  };
  const codec::PostingView none;
  for (ValueId key : keys.s) {
    postings('s', key, leaf.valid() ? leaf.PostingsS(key) : none);
  }
  for (ValueId key : keys.canon) {
    postings('o', key, leaf.valid() ? leaf.PostingsCanon(key) : none);
  }
  for (ValueId key : keys.p) {
    postings('p', key, leaf.valid() ? leaf.PostingsP(key) : none);
  }
  for (const auto& [s, p] : keys.sp) {
    std::vector<ValueId>& hit = out.sp[{s, p}];
    if (!leaf.valid()) continue;
    const LinkStore::SpMap::Hit probe = leaf.ProbeSp(s, p);
    hit.push_back(probe.n);
    if (probe.n == 1) {
      hit.insert(hit.end(), {probe.head, probe.o, probe.canon_o});
    } else {
      hit.insert(hit.end(), probe.list, probe.list + probe.n);
    }
  }
  for (LinkId link : keys.links) {
    auto triple = version.ResolveTriple(link);
    out.resolved[link] =
        triple.ok() ? triple->ToString() : triple.status().ToString();
  }
  return out;
}

/// The same observables with quad indexes replaced by the quads' LINK
/// IDs and dead quads dropped: equal for two caches holding the same
/// live triples however they were numbered (mutated vs rebuilt).
struct LogicalCapture {
  std::map<LinkId, std::tuple<ValueId, ValueId, ValueId, ValueId>> quads;
  std::map<std::pair<char, ValueId>, std::set<LinkId>> postings;
  std::map<std::pair<ValueId, ValueId>, std::set<LinkId>> sp;
  std::map<LinkId, std::tuple<ValueId, ValueId, ValueId>> rows;

  bool operator==(const LogicalCapture& other) const {
    return quads == other.quads && postings == other.postings &&
           sp == other.sp && rows == other.rows;
  }
};

LogicalCapture CaptureLogical(const LinkStore& links, ModelId model_id) {
  LogicalCapture out;
  const LinkStore::LeafScan leaf = links.Leaf(model_id);
  const Keys keys = KeysOf(leaf);
  if (!leaf.valid()) return out;
  const LinkStore::QuadArray& quads = leaf.quads();
  auto live_links = [&](const codec::PostingView& list) {
    std::set<LinkId> ids;
    list.ForEach([&](uint32_t idx) {
      if (!LinkStore::ModelIdCache::Dead(quads[idx])) {
        ids.insert(quads[idx].link_id);
      }
      return true;
    });
    return ids;
  };
  for (uint32_t i = 0; i < leaf.quad_count(); ++i) {
    const IdQuad& q = quads[i];
    if (LinkStore::ModelIdCache::Dead(q)) continue;
    out.quads[q.link_id] = {q.s, q.p, q.o, q.canon_o};
  }
  for (ValueId key : keys.s) {
    out.postings[{'s', key}] = live_links(leaf.PostingsS(key));
  }
  for (ValueId key : keys.canon) {
    out.postings[{'o', key}] = live_links(leaf.PostingsCanon(key));
  }
  for (ValueId key : keys.p) {
    out.postings[{'p', key}] = live_links(leaf.PostingsP(key));
  }
  for (const auto& [s, p] : keys.sp) {
    const LinkStore::SpMap::Hit hit = leaf.ProbeSp(s, p);
    std::set<LinkId>& ids = out.sp[{s, p}];
    if (hit.n == 1) {
      ids.insert(quads[hit.head].link_id);
      EXPECT_EQ(quads[hit.head].o, hit.o);
      EXPECT_EQ(quads[hit.head].canon_o, hit.canon_o);
    } else {
      for (uint32_t i = 0; i < hit.n; ++i) {
        ids.insert(quads[hit.list[i]].link_id);
      }
    }
  }
  for (LinkId link : keys.links) {
    auto row = links.Get(link);  // IndexOfLink + the RowId column
    if (!row.ok()) {
      ADD_FAILURE() << row.status().ToString();
      continue;
    }
    out.rows[link] = {row->start_node_id, row->p_value_id, row->end_node_id};
  }
  return out;
}

TEST(CowCacheTest, PinnedVersionsSurviveEveryMutationPath) {
  SnapshotRdfStore store;
  constexpr int kBase = 10000;
  ASSERT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("other", "o_app", "triple")
                            .status());
                    RDFDB_RETURN_NOT_OK(InsertRange(live, "m", 0, kBase));
                    // Multi-row (s, p) groups: SpMap overflow lists.
                    for (int i = 0; i < 50; ++i) {
                      for (int k = 0; k < 3; ++k) {
                        RDFDB_RETURN_NOT_OK(
                            live.InsertTriple("m", Subject(i), "<urn:multi>",
                                              Object(100000 + 3 * i + k))
                                .status());
                      }
                    }
                    RDFDB_RETURN_NOT_OK(
                        live.AssertImplied("m", "<urn:curator>", "<urn:says>",
                                           "<urn:imp>", "<urn:ip>", "<urn:io>")
                            .status());
                    return InsertRange(live, "other", 0, 300);
                  })
                  .ok());

  const SnapshotRdfStore::ReadPin pinned = store.Snapshot();
  const ModelId m = *pinned->GetModelId("m");
  const ModelId other = *pinned->GetModelId("other");
  const Keys m_keys = KeysOf(pinned->Leaf(m));
  const Keys other_keys = KeysOf(pinned->Leaf(other));
  const RawCapture m_before = CaptureRaw(*pinned, m, m_keys);
  const RawCapture other_before = CaptureRaw(*pinned, other, other_keys);
  const size_t implied_before = pinned->GetModelStats("m")->implied_statements;
  ASSERT_EQ(implied_before, 1u);

  // Inserts, one publish each, so every write meets shared chunks.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(store
                    .InsertTriple("m", Subject(kBase + i), Predicate(i),
                                  Object(kBase + i))
                    .ok());
  }
  // Implied → Direct upgrade of the implied base triple.
  ASSERT_TRUE(
      store.InsertTriple("m", "<urn:imp>", "<urn:ip>", "<urn:io>").ok());
  EXPECT_EQ(store.GetModelStats("m")->implied_statements, 0u);
  // A reification of an original triple.
  const LinkId reified = *store.GetTripleId("m", Subject(7), Predicate(7),
                                            Object(7));
  ASSERT_TRUE(store.ReifyTriple("m", reified).ok());
  // Deletes that collapse (s, p) overflow lists back to one row.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store
                    .DeleteTriple("m", Subject(i), "<urn:multi>",
                                  Object(100000 + 3 * i))
                    .ok());
    ASSERT_TRUE(store
                    .DeleteTriple("m", Subject(i), "<urn:multi>",
                                  Object(100000 + 3 * i + 1))
                    .ok());
  }

  // Deletes until Compact() fires, with a second pin taken between
  // them: it shares tombstoned chunks that the compaction replaces.
  std::optional<SnapshotRdfStore::ReadPin> midway;
  Keys mid_keys;
  RawCapture mid_before;
  auto delete_range = [&](int from, int to) {
    return store.Apply([&](RdfStore& live) -> Status {
      for (int i = from; i < to; ++i) {
        RDFDB_RETURN_NOT_OK(
            live.DeleteTriple("m", Subject(i), Predicate(i), Object(i)));
      }
      return Status::OK();
    });
  };
  for (int from = 100; from < 6100; from += 500) {
    if (from == 3100) {
      midway.emplace(store.Snapshot());
      mid_keys = KeysOf((*midway)->Leaf(m));
      mid_before = CaptureRaw(**midway, m, mid_keys);
    }
    ASSERT_TRUE(delete_range(from, from + 500).ok());
  }
  // Compaction renumbered the live quads: the live array is now shorter
  // than the pinned one, though the pinned version still reads all of
  // its own quads.
  ASSERT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    const LinkStore::LeafScan leaf = live.links().Leaf(m);
                    EXPECT_LT(leaf.quad_count(), kBase - 4096);
                    EXPECT_EQ(pinned->Leaf(m).quad_count(),
                              static_cast<uint32_t>(m_before.quads.size()));
                    return Status::OK();
                  })
                  .ok());

  // Dropping another model.
  ASSERT_TRUE(store.DropRdfModel("other").ok());

  EXPECT_TRUE(CaptureRaw(*pinned, m, m_keys) == m_before);
  EXPECT_TRUE(CaptureRaw(*pinned, other, other_keys) == other_before);
  EXPECT_EQ(pinned->GetModelStats("m")->implied_statements, implied_before);
  EXPECT_TRUE(CaptureRaw(**midway, m, mid_keys) == mid_before);

  // Keys the writes introduced are invisible to the first pin.
  const Keys live_keys = KeysOf(store.Snapshot()->Leaf(m));
  for (ValueId s : live_keys.s) {
    if (m_keys.s.count(s) == 0) {
      EXPECT_TRUE(pinned->Leaf(m).PostingsS(s).empty());
    }
  }
  for (const auto& [s, p] : live_keys.sp) {
    if (m_keys.sp.count({s, p}) == 0) {
      EXPECT_EQ(pinned->Leaf(m).ProbeSp(s, p).n, 0u);
    }
  }

  // The live cache equals one rebuilt from rdf_link$.
  LogicalCapture mutated, rebuilt;
  size_t implied_mutated = 0;
  ASSERT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    mutated = CaptureLogical(live.links(), m);
                    implied_mutated =
                        live.GetModelStats("m")->implied_statements;
                    live.links().RebuildCache();
                    rebuilt = CaptureLogical(live.links(), m);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_FALSE(mutated.quads.empty());
  EXPECT_TRUE(mutated == rebuilt);
  EXPECT_EQ(store.GetModelStats("m")->implied_statements, implied_mutated);
  EXPECT_EQ(store.GetModelStats("m")->triples, mutated.quads.size());
}

/// Heap bytes and allocations the calling thread makes for one
/// single-statement Apply into a `triples`-triple model while a
/// published version shares its cache. The median of several such
/// writes is returned: the tables under the cache grow geometrically,
/// and an occasional amortized reallocation there is not what this
/// measures.
struct WriteCost {
  uint64_t bytes = 0;
  uint64_t allocations = 0;
};

WriteCost OneStatementApplyCost(int triples, size_t* quad_cache_bytes) {
  SnapshotRdfStore store;
  EXPECT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertRange(live, "m", 0, triples);
                  })
                  .ok());
  std::vector<uint64_t> bytes, allocations;
  for (int k = 0; k < 5; ++k) {
    const SnapshotRdfStore::ReadPin pin = store.Snapshot();
    const uint64_t bytes_before = obs::ThreadAllocatedBytes();
    const uint64_t allocations_before = obs::ThreadAllocationCount();
    EXPECT_TRUE(store
                    .Apply([&](RdfStore& live) {
                      return InsertRange(live, "m", triples + k,
                                         triples + k + 1);
                    })
                    .ok());
    bytes.push_back(obs::ThreadAllocatedBytes() - bytes_before);
    allocations.push_back(obs::ThreadAllocationCount() - allocations_before);
  }
  *quad_cache_bytes = store.MemoryUsage().quad_cache_bytes;
  std::sort(bytes.begin(), bytes.end());
  std::sort(allocations.begin(), allocations.end());
  return WriteCost{bytes[bytes.size() / 2],
                   allocations[allocations.size() / 2]};
}

TEST(CowCacheTest, OneStatementWriteCostDoesNotGrowWithTheModel) {
  size_t small_cache = 0, large_cache = 0;
  const WriteCost small_cost = OneStatementApplyCost(10000, &small_cache);
  const WriteCost large_cost = OneStatementApplyCost(50000, &large_cache);
  const uint64_t small = small_cost.bytes, large = large_cost.bytes;
  EXPECT_LT(small, 1u << 20);
  EXPECT_LT(large, 1u << 20);
  // A whole-cache copy would cost about the cache itself.
  EXPECT_LT(large, large_cache / 4);
  // One chunk of quads plus one shard, the shard at its average size
  // in the larger model.
  const uint64_t bound = LinkStore::kChunkSize * sizeof(IdQuad) +
                         large_cache / LinkStore::kShardCount;
  const uint64_t diff = large > small ? large - small : small - large;
  EXPECT_LT(diff, bound) << "10k: " << small << " B, 50k: " << large << " B";

  // A shard copy is a few vector copies whatever its key count, so the
  // number of allocations does not grow with the model either. (One
  // allocation per key, as a node-based shard makes, would add ~3 per
  // key of each copied shard: hundreds between these two sizes.)
  EXPECT_LT(small_cost.allocations, 120u);
  EXPECT_LT(large_cost.allocations, 120u);
  const uint64_t allocation_diff =
      large_cost.allocations > small_cost.allocations
          ? large_cost.allocations - small_cost.allocations
          : small_cost.allocations - large_cost.allocations;
  EXPECT_LE(allocation_diff, 8u)
      << "10k: " << small_cost.allocations
      << " allocations, 50k: " << large_cost.allocations;
}

TEST(CowCacheTest, CopiedBytesCounterCountsChunkAndShardCopies) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return InsertRange(live, "m", 0, 5000);
                  })
                  .ok());
  const obs::Counter* copied =
      store.metrics_registry().FindCounter("rdfdb_cow_copied_bytes_total");
  ASSERT_NE(copied, nullptr);
  // The load built every chunk fresh: nothing was shared to copy.
  EXPECT_EQ(copied->Value(), 0);

  ASSERT_TRUE(store.InsertTriple("m", Subject(9000), Predicate(0),
                                 Object(9000)).ok());
  // An insert copies the shards its keys land in; the appends write the
  // tail chunks in place.
  const int64_t insert_bytes = copied->Value();
  EXPECT_GT(insert_bytes, 0);
  EXPECT_LT(insert_bytes,
            static_cast<int64_t>(LinkStore::kChunkSize * sizeof(IdQuad)));

  // A delete rewrites a quad in a shared chunk: that chunk is copied.
  const int64_t chunk_bytes = LinkStore::kChunkSize * sizeof(IdQuad);
  ASSERT_TRUE(store.DeleteTriple("m", Subject(0), Predicate(0), Object(0))
                  .ok());
  const int64_t delete_bytes = copied->Value() - insert_bytes;
  EXPECT_GE(delete_bytes, chunk_bytes);

  // A hundred deletes in one chunk under one publish copy it once.
  ASSERT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    for (int i = 1; i <= 100; ++i) {
                      RDFDB_RETURN_NOT_OK(live.DeleteTriple(
                          "m", Subject(i), Predicate(i), Object(i)));
                    }
                    return Status::OK();
                  })
                  .ok());
  const int64_t batch_bytes = copied->Value() - insert_bytes - delete_bytes;
  EXPECT_GE(batch_bytes, chunk_bytes);
  EXPECT_LT(batch_bytes, 4 * chunk_bytes);
}

TEST(CowCacheTest, ReadersScanWhileTheWriterCompacts) {
  SnapshotRdfStore store;
  ASSERT_TRUE(store
                  .Apply([&](RdfStore& live) -> Status {
                    RDFDB_RETURN_NOT_OK(
                        live.CreateRdfModel("m", "m_app", "triple").status());
                    return live.InsertTriple("m", "<urn:anchor>", "<urn:p0>",
                                             "\"a\"")
                        .status();
                  })
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotRdfStore::ReadPin snap = store.Snapshot();
        auto stats = snap->GetModelStats("m");
        if (!stats.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // A full scan and a predicate scan over the pinned chunks must
        // agree with the version's own counts.
        auto all = query::SdoRdfMatch(snap.view(), "(?s ?p ?o)", {"m"}, {},
                                      "");
        if (!all.ok() || all->row_count() != stats->triples) {
          failures.fetch_add(1);
        }
        auto anchor = query::SdoRdfMatch(
            snap.view(), "(<urn:anchor> ?p ?o)", {"m"}, {}, "");
        if (!anchor.ok() || anchor->row_count() != 1) failures.fetch_add(1);
      }
    });
  }

  std::thread writer([&] {
    // Two rounds of fill-then-drain: each drain tombstones past the
    // Compact() threshold while readers hold older versions.
    for (int round = 0; round < 2; ++round) {
      const int base = round * 100000;
      for (int from = 0; from < 6000; from += 500) {
        Status st = store.Apply([&](RdfStore& live) {
          return InsertRange(live, "m", base + from, base + from + 500);
        });
        if (!st.ok()) failures.fetch_add(1);
      }
      for (int from = 0; from < 5500; from += 250) {
        Status st = store.Apply([&](RdfStore& live) -> Status {
          for (int i = base + from; i < base + from + 250; ++i) {
            RDFDB_RETURN_NOT_OK(
                live.DeleteTriple("m", Subject(i), Predicate(i), Object(i)));
          }
          return Status::OK();
        });
        if (!st.ok()) failures.fetch_add(1);
      }
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.GetModelStats("m")->triples, 1u + 2u * 500u);
}

}  // namespace
}  // namespace rdfdb::rdf
