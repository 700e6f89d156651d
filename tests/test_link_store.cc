#include "rdf/link_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "rdf/vocab.h"

namespace rdfdb::rdf {
namespace {

class LinkStoreTest : public ::testing::Test {
 protected:
  LinkStoreTest() : values_(&db_), links_(&db_, &net_) {}

  ValueId V(const std::string& uri) {
    return *values_.LookupOrInsert(Term::Uri(uri));
  }

  storage::Database db_{"ORADB"};
  ndm::LogicalNetwork net_;
  ValueStore values_;
  LinkStore links_;
};

TEST_F(LinkStoreTest, InsertCreatesLinkAndNodes) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto outcome = links_.Insert(1, s, p, o, o, "STANDARD",
                               TripleContext::kDirect, false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_GT(outcome->row.link_id, 0);
  EXPECT_EQ(outcome->row.cost, 1);
  EXPECT_EQ(links_.TripleCount(1), 1u);
  // NDM network mirrors the triple.
  EXPECT_TRUE(net_.HasNode(s));
  EXPECT_TRUE(net_.HasNode(o));
  EXPECT_TRUE(net_.HasLink(outcome->row.link_id));
  EXPECT_EQ(net_.GetLink(outcome->row.link_id)->label, p);
  // rdf_node$ rows exist too.
  EXPECT_EQ(db_.GetTable("MDSYS", "RDF_NODE$")->row_count(), 2u);
}

TEST_F(LinkStoreTest, DuplicateInsertIncrementsCost) {
  // "COST: the number of times the triple is stored in an application
  // table. The triple is only stored once in the rdf_link$ table."
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto first = links_.Insert(1, s, p, o, o, "STANDARD",
                             TripleContext::kDirect, false);
  auto second = links_.Insert(1, s, p, o, o, "STANDARD",
                              TripleContext::kDirect, false);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->inserted);
  EXPECT_EQ(second->row.link_id, first->row.link_id);
  EXPECT_EQ(second->row.cost, 2);
  EXPECT_EQ(links_.TripleCount(1), 1u);
  EXPECT_EQ(net_.link_count(), 1u);
}

TEST_F(LinkStoreTest, SameTripleDifferentModelsIsSeparate) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  auto other = links_.Insert(2, s, p, o, o, "STANDARD",
                             TripleContext::kDirect, false);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->inserted);
  EXPECT_EQ(links_.TripleCount(1), 1u);
  EXPECT_EQ(links_.TripleCount(2), 1u);
  // Nodes are shared (stored once), links are per-triple.
  EXPECT_EQ(net_.node_count(), 2u);
  EXPECT_EQ(net_.link_count(), 2u);
}

TEST_F(LinkStoreTest, ImpliedUpgradesToDirect) {
  // "If the triple is subsequently entered into the database as a fact,
  // the CONTEXT for this triple is changed from I to D."
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto implied = links_.Insert(1, s, p, o, o, "STANDARD",
                               TripleContext::kImplied, false);
  EXPECT_EQ(implied->row.context, TripleContext::kImplied);
  auto direct = links_.Insert(1, s, p, o, o, "STANDARD",
                              TripleContext::kDirect, false);
  EXPECT_EQ(direct->row.context, TripleContext::kDirect);
  // And a Direct triple never downgrades.
  auto still = links_.Insert(1, s, p, o, o, "STANDARD",
                             TripleContext::kImplied, false);
  EXPECT_EQ(still->row.context, TripleContext::kDirect);
}

TEST_F(LinkStoreTest, ReifLinkFlagIsSticky) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  auto second = links_.Insert(1, s, p, o, o, "STANDARD",
                              TripleContext::kDirect, true);
  EXPECT_TRUE(second->row.reif_link);
  auto third = links_.Insert(1, s, p, o, o, "STANDARD",
                             TripleContext::kDirect, false);
  EXPECT_TRUE(third->row.reif_link);
}

TEST_F(LinkStoreTest, FindAndGet) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto outcome = links_.Insert(1, s, p, o, o, "STANDARD",
                               TripleContext::kDirect, false);
  auto found = links_.Find(1, s, p, o);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->link_id, outcome->row.link_id);
  EXPECT_FALSE(links_.Find(2, s, p, o).has_value());
  EXPECT_FALSE(links_.Find(1, o, p, s).has_value());
  auto got = links_.Get(outcome->row.link_id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->start_node_id, s);
  EXPECT_TRUE(links_.Get(999999).status().IsNotFound());
}

TEST_F(LinkStoreTest, MatchByPositions) {
  ValueId s1 = V("s1"), s2 = V("s2"), p1 = V("p1"), p2 = V("p2"),
          o1 = V("o1"), o2 = V("o2");
  (void)links_.Insert(1, s1, p1, o1, o1, "STANDARD",
                      TripleContext::kDirect, false);
  (void)links_.Insert(1, s1, p2, o2, o2, "STANDARD",
                      TripleContext::kDirect, false);
  (void)links_.Insert(1, s2, p2, o2, o2, "STANDARD",
                      TripleContext::kDirect, false);

  EXPECT_EQ(links_.Match(1, s1, std::nullopt, std::nullopt).size(), 2u);
  EXPECT_EQ(links_.Match(1, std::nullopt, p2, std::nullopt).size(), 2u);
  EXPECT_EQ(links_.Match(1, std::nullopt, std::nullopt, o2).size(), 2u);
  EXPECT_EQ(links_.Match(1, s1, p2, std::nullopt).size(), 1u);
  EXPECT_EQ(links_.Match(1, std::nullopt, std::nullopt, std::nullopt).size(),
            3u);
  EXPECT_TRUE(links_.Match(2, std::nullopt, std::nullopt, std::nullopt)
                  .empty());
  EXPECT_TRUE(links_.Match(1, s2, p1, std::nullopt).empty());
}

TEST_F(LinkStoreTest, MatchEachStreamsAndStopsEarly) {
  ValueId s = V("s"), p = V("p");
  for (int i = 0; i < 10; ++i) {
    ValueId o = V("o" + std::to_string(i));
    (void)links_.Insert(1, s, p, o, o, "STANDARD",
                        TripleContext::kDirect, false);
  }
  size_t visited = 0;
  links_.MatchEach(1, s, std::nullopt, std::nullopt,
                   [&](const LinkRow&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3u);
  // Streaming and materializing agree on the full result.
  size_t streamed = 0;
  links_.MatchEach(1, s, std::nullopt, std::nullopt,
                   [&](const LinkRow&) {
                     ++streamed;
                     return true;
                   });
  EXPECT_EQ(streamed,
            links_.Match(1, s, std::nullopt, std::nullopt).size());
}

TEST_F(LinkStoreTest, MatchUsesCanonicalObject) {
  ValueId s = V("s"), p = V("p");
  ValueId o_raw =
      *values_.LookupOrInsert(Term::TypedLiteral("+025", "xsd-int"));
  ValueId o_canon =
      *values_.LookupOrInsert(Term::TypedLiteral("25", "xsd-int"));
  (void)links_.Insert(1, s, p, o_raw, o_canon, "STANDARD",
                      TripleContext::kDirect, false);
  auto hits = links_.Match(1, std::nullopt, std::nullopt, o_canon);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].end_node_id, o_raw);
  EXPECT_TRUE(links_.Match(1, std::nullopt, std::nullopt, o_raw).empty());
}

TEST_F(LinkStoreTest, DeleteDecrementsCostThenRemoves) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.Delete(1, s, p, o).ok());
  EXPECT_EQ(links_.TripleCount(1), 1u);  // still referenced once
  EXPECT_EQ(links_.Find(1, s, p, o)->cost, 1);
  ASSERT_TRUE(links_.Delete(1, s, p, o).ok());
  EXPECT_EQ(links_.TripleCount(1), 0u);
  EXPECT_FALSE(links_.Find(1, s, p, o).has_value());
  EXPECT_TRUE(links_.Delete(1, s, p, o).IsNotFound());
}

TEST_F(LinkStoreTest, DeleteRemovesOrphanedNodesOnly) {
  // "The nodes attached to this link are not removed if there are other
  // links connected to them."
  ValueId s = V("s"), p = V("p"), o1 = V("o1"), o2 = V("o2");
  (void)links_.Insert(1, s, p, o1, o1, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, s, p, o2, o2, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.Delete(1, s, p, o1).ok());
  EXPECT_TRUE(net_.HasNode(s));    // still used by the second triple
  EXPECT_FALSE(net_.HasNode(o1));  // orphaned -> removed
  EXPECT_TRUE(net_.HasNode(o2));
  EXPECT_EQ(db_.GetTable("MDSYS", "RDF_NODE$")->row_count(), 2u);
}

TEST_F(LinkStoreTest, ForceDeleteIgnoresCost) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.Delete(1, s, p, o, /*force=*/true).ok());
  EXPECT_FALSE(links_.Find(1, s, p, o).has_value());
}

TEST_F(LinkStoreTest, DeleteModelRemovesEverything) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, o, p, s, s, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(2, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.DeleteModel(1).ok());
  EXPECT_EQ(links_.TripleCount(1), 0u);
  EXPECT_EQ(links_.TripleCount(2), 1u);
  EXPECT_EQ(net_.link_count(), 1u);
}

TEST_F(LinkStoreTest, ScanModel) {
  ValueId s = V("s"), p = V("p");
  for (int i = 0; i < 5; ++i) {
    (void)links_.Insert(3, s, p, V("o" + std::to_string(i)),
                        V("o" + std::to_string(i)), "STANDARD",
                        TripleContext::kDirect, false);
  }
  size_t count = 0;
  links_.ScanModel(3, [&](const LinkRow& row) {
    EXPECT_EQ(row.model_id, 3);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5u);
  // Early stop.
  count = 0;
  links_.ScanModel(3, [&](const LinkRow&) { return ++count < 2; });
  EXPECT_EQ(count, 2u);
}

TEST(ClassifyPredicateTest, LinkTypes) {
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfType)), "RDF_TYPE");
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfNs) + "_1"), "RDF_MEMBER");
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfLi)), "RDF_MEMBER");
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfSubject)), "RDF_*");
  EXPECT_EQ(ClassifyPredicate("http://www.us.gov#terrorSuspect"),
            "STANDARD");
}

TEST_F(LinkStoreTest, RebuildCacheSortsOutOfOrderLinkIds) {
  // Raw rows whose LINK_IDs descend in table order (a restore that did
  // not copy rows in id order): every row lands in by_link out of
  // order, across more than one by_link chunk.
  storage::Table* table = db_.GetTable("MDSYS", "RDF_LINK$");
  ValueId p = V("p");
  const int n = static_cast<int>(LinkStore::kChunkSize) + 500;
  std::vector<ValueId> subjects;
  for (int i = 0; i < n; ++i) {
    subjects.push_back(V("s" + std::to_string(i)));
    storage::Row row{storage::Value::Int64(100000 - i),
                     storage::Value::Int64(subjects.back()),
                     storage::Value::Int64(p),
                     storage::Value::Int64(p),
                     storage::Value::Int64(p),
                     storage::Value::String("STANDARD"),
                     storage::Value::Int64(1),
                     storage::Value::String("D"),
                     storage::Value::String("N"),
                     storage::Value::Int64(1)};
    ASSERT_TRUE(table->Insert(std::move(row)).ok());
  }
  links_.RebuildCache();
  for (int i = 0; i < n; ++i) {
    auto row = links_.Get(100000 - i);
    ASSERT_TRUE(row.ok()) << i;
    EXPECT_EQ(row->start_node_id, subjects[i]);
  }
  EXPECT_FALSE(links_.Get(100000 - n).ok());
}

// ---- Flat posting shards, against an oracle ----------------------------

using Oracle = std::map<ValueId, std::vector<uint32_t>>;

/// One copy of a posting index, as a model's cache holds it, with the
/// lists it must contain.
struct IndexSide {
  LinkStore::PostingIndex index;
  LinkStore::CacheLedger ledger;
  Oracle oracle;
  uint32_t next = 0;  ///< the next quad index to append
};

void AppendTo(IndexSide* side, ValueId key, uint32_t idx) {
  const uint64_t hash = LinkStore::PostingShard::Hash(key);
  side->index.Edit(hash, &side->ledger, [&](LinkStore::PostingShard& shard) {
    shard.Append(key, hash, idx);
  });
  side->oracle[key].push_back(idx);
}

/// Every distinct shard `side` holds (each key's shard, deduplicated).
std::set<const LinkStore::PostingShard*> ShardsOf(const IndexSide& side) {
  std::set<const LinkStore::PostingShard*> shards;
  for (const auto& [key, values] : side.oracle) {
    (void)values;
    shards.insert(side.index.Find(LinkStore::PostingShard::Hash(key)));
  }
  return shards;
}

/// Decode `key`'s list every way a reader can — ForEach, a Cursor walk,
/// SkipTo from fresh cursors and from one moving cursor — and compare
/// each with the oracle.
void ExpectListMatches(const IndexSide& side, ValueId key,
                       std::mt19937* rng) {
  const std::vector<uint32_t>& want = side.oracle.at(key);
  const codec::PostingView view =
      LinkStore::ModelIdCache::FindPostings(side.index, key);
  ASSERT_EQ(view.size(), want.size()) << "key " << key;
  EXPECT_EQ(view.back(), want.back());
  std::vector<uint32_t> got;
  view.ForEach([&](uint32_t v) {
    got.push_back(v);
    return true;
  });
  EXPECT_EQ(got, want) << "ForEach, key " << key;
  got.clear();
  for (codec::PostingView::Cursor cur(view); !cur.AtEnd(); cur.Next()) {
    EXPECT_EQ(cur.Index(), got.size());
    got.push_back(cur.Value());
  }
  EXPECT_EQ(got, want) << "Cursor, key " << key;

  const uint32_t top = want.back() + 2;
  for (int probe = 0; probe < 8; ++probe) {
    const uint32_t target = (*rng)() % top;
    codec::PostingView::Cursor cur(view);
    auto it = std::lower_bound(want.begin(), want.end(), target);
    if (it == want.end()) {
      EXPECT_FALSE(cur.SkipTo(target));
    } else {
      ASSERT_TRUE(cur.SkipTo(target)) << "key " << key << " -> " << target;
      EXPECT_EQ(cur.Value(), *it);
      EXPECT_EQ(cur.Index(), static_cast<uint32_t>(it - want.begin()));
    }
  }
  // Forward skips about two values apart on average.
  const uint32_t gap =
      1 + 4 * (want.back() / static_cast<uint32_t>(want.size()));
  codec::PostingView::Cursor moving(view);
  for (uint32_t target = 0;; target += 1 + (*rng)() % gap) {
    auto it = std::lower_bound(want.begin(), want.end(), target);
    if (it == want.end()) {
      EXPECT_FALSE(moving.SkipTo(target));
      break;
    }
    ASSERT_TRUE(moving.SkipTo(target));
    ASSERT_EQ(moving.Value(), *it);
  }
}

/// Every list, no phantom keys, and a ledger that matches one
/// recomputed from scratch: the index's byte total is the sum of its
/// shards' Bytes(), and the shards' live byte and skip counts are what
/// the oracle's lists encode to.
void ExpectSideMatches(const IndexSide& side, std::mt19937* rng) {
  for (const auto& [key, values] : side.oracle) {
    (void)values;
    ExpectListMatches(side, key, rng);
  }
  EXPECT_TRUE(LinkStore::ModelIdCache::FindPostings(side.index, 1u << 30)
                  .empty());

  size_t encoded = 0, skips = 0;
  for (const auto& [key, values] : side.oracle) {
    (void)key;
    uint32_t last = 0;
    for (uint32_t v : values) {
      encoded += codec::VarintLength(v - last);
      last = v;
    }
    skips += codec::PostingView::SkipCountFor(
        static_cast<uint32_t>(values.size()));
  }
  size_t shard_encoded = 0, shard_skips = 0, keys = 0;
  for (const LinkStore::PostingShard* shard : ShardsOf(side)) {
    shard_encoded += shard->encoded_bytes();
    shard_skips += shard->skip_entries();
    shard->ForEachList([&](ValueId key, const codec::PostingView& list) {
      ++keys;
      auto it = side.oracle.find(key);
      ASSERT_NE(it, side.oracle.end()) << "phantom key " << key;
      EXPECT_EQ(list.size(), it->second.size());
    });
  }
  EXPECT_EQ(keys, side.oracle.size());
  EXPECT_EQ(shard_encoded, encoded);
  EXPECT_EQ(shard_skips, skips);
  EXPECT_EQ(side.ledger.index_bytes,
            side.index.UnsharedBytes(LinkStore::PostingIndex{}));
}

TEST(PostingShardTest, MatchesOracleAcrossCopiesSkipBlocksAndMoves) {
  std::mt19937 rng(20061);
  std::vector<IndexSide> sides(1);
  size_t max_slack = 0;
  uint32_t longest = 0;
  for (int step = 0; step < 40; ++step) {
    // Copy-on-write copies mid-run: a copy shares every shard until
    // its first write, and then both sides keep changing.
    if (step == 10 || step == 20 || step == 30) {
      const IndexSide copy = sides[rng() % sides.size()];
      sides.push_back(copy);
    }
    for (IndexSide& side : sides) {
      for (int n = 0; n < 300; ++n) {
        // A few hot keys grow lists across many 64-value skip blocks,
        // and outgrow their arena slot again and again between the
        // cold keys' appends to the same shards.
        const ValueId key = rng() % 4 == 0 ? static_cast<ValueId>(rng() % 6)
                                           : static_cast<ValueId>(rng() % 3000);
        side.next += 1 + rng() % 300;
        AppendTo(&side, key, side.next);
        ASSERT_EQ(LinkStore::ModelIdCache::FindPostings(side.index, key)
                      .ToVector(),
                  side.oracle[key]);
      }
      for (const LinkStore::PostingShard* shard : ShardsOf(side)) {
        max_slack = std::max(max_slack, shard->slack_bytes());
      }
      ExpectSideMatches(side, &rng);
      for (const auto& [key, values] : side.oracle) {
        (void)key;
        longest = std::max(longest, static_cast<uint32_t>(values.size()));
      }
    }
  }
  // The run exercised what it is for: lists moved (leaving holes) and
  // crossed many skip blocks.
  EXPECT_GT(max_slack, 0u);
  EXPECT_GT(longest, 8 * codec::kBlockSize);

  // Repacking leaves no holes or slack and changes no list.
  for (IndexSide& side : sides) {
    side.index.RepackAll(&side.ledger);
    for (const LinkStore::PostingShard* shard : ShardsOf(side)) {
      EXPECT_EQ(shard->slack_bytes(), 0u);
    }
    ExpectSideMatches(side, &rng);
  }
}

TEST(PostingShardTest, SparseShardsRepackWhenCopied) {
  // Interleave two keys of one shard so each keeps moving, then copy.
  LinkStore::PostingShard shard;
  Oracle oracle;
  for (uint32_t i = 0; i < 2000; ++i) {
    const ValueId key = i % 2 == 0 ? 7 : 8;
    shard.Append(key, LinkStore::PostingShard::Hash(key), i);
    oracle[key].push_back(i);
  }
  ASSERT_GT(shard.slack_bytes(), shard.encoded_bytes());
  const LinkStore::PostingShard copy(shard);
  EXPECT_EQ(copy.slack_bytes(), 0u);
  EXPECT_LT(copy.Bytes(), shard.Bytes());
  for (const auto& [key, values] : oracle) {
    const uint64_t h = LinkStore::PostingShard::Hash(key);
    EXPECT_EQ(shard.Find(key, h).ToVector(), values);
    EXPECT_EQ(copy.Find(key, h).ToVector(), values);
  }
}

}  // namespace
}  // namespace rdfdb::rdf
