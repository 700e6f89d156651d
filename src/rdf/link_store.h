// LinkStore: binding over the central-schema rdf_link$ table.
//
// "The rdf_link$ table is dual-purposed: it stores the triples for all the
// RDF graphs in the database, and it defines the logical network seen by
// NDM." This class maintains the table rows, the companion rdf_node$
// rows, and the in-memory NDM LogicalNetwork, keeping all three in sync.
// The table is partitioned by MODEL_ID, as in the paper.

#ifndef RDFDB_RDF_LINK_STORE_H_
#define RDFDB_RDF_LINK_STORE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "ndm/network.h"
#include "rdf/codec.h"
#include "rdf/value_store.h"
#include "storage/database.h"

namespace rdfdb::rdf {

/// LINK_ID type (rdf_link$ primary key; also the triple id rdf_t_id).
using LinkId = int64_t;

/// Statement context: directly asserted fact vs. implied (entered only as
/// the base of a reification).
enum class TripleContext : char {
  kDirect = 'D',
  kImplied = 'I',
};

/// Materialized rdf_link$ row.
struct LinkRow {
  LinkId link_id = 0;
  ValueId start_node_id = 0;       ///< subject VALUE_ID
  ValueId p_value_id = 0;          ///< predicate VALUE_ID
  ValueId end_node_id = 0;         ///< object VALUE_ID
  ValueId canon_end_node_id = 0;   ///< canonical-object VALUE_ID
  std::string link_type;           ///< STANDARD / RDF_TYPE / RDF_MEMBER / RDF_*
  int64_t cost = 1;                ///< app-table reference count
  TripleContext context = TripleContext::kDirect;
  bool reif_link = false;          ///< any position references a reified triple
  int64_t model_id = 0;
};

/// Outcome of an insert: the (possibly pre-existing) link and whether a
/// new row was created.
struct LinkInsertOutcome {
  LinkRow row;
  bool inserted = false;
};

/// One statement of a batched link insert (already-interned VALUE_IDs).
struct LinkBatchEntry {
  ValueId s = 0;
  ValueId p = 0;
  ValueId o = 0;
  ValueId canon_o = 0;
  std::string link_type;
  TripleContext context = TripleContext::kDirect;
  bool reif_link = false;
};

/// Classify a predicate URI into the paper's LINK_TYPE codes.
std::string ClassifyPredicate(const std::string& predicate_uri);

/// Triple storage over rdf_link$ + rdf_node$ + the NDM network.
class LinkStore {
 public:
  /// Creates (or reattaches to) MDSYS.RDF_LINK$ / MDSYS.RDF_NODE$ inside
  /// `db` and binds the NDM network `net`.
  LinkStore(storage::Database* db, ndm::LogicalNetwork* net);

  /// Insert a triple into a model. If the identical (s, p, o) triple
  /// already exists in the model, no new row is created: COST is
  /// incremented ("the triple is only stored once ... but may exist in
  /// several rows in a user's application table"), an Implied row is
  /// upgraded to Direct when `context` is Direct, and REIF_LINK is OR-ed.
  Result<LinkInsertOutcome> Insert(int64_t model_id, ValueId s, ValueId p,
                                   ValueId o, ValueId canon_o,
                                   const std::string& link_type,
                                   TripleContext context, bool reif_link);

  /// Batched Insert for the bulk loader: semantically identical to
  /// calling Insert() once per entry in order (same LINK_ID assignment,
  /// same final COST / CONTEXT-upgrade / REIF_LINK state), but duplicate
  /// detection probes the SPO index once per distinct (s, p, o), repeated
  /// statements fold into a single UPDATE, new rows go through the
  /// table's staged append path with a pre-reserved LINK_ID range, and
  /// NDM nodes/links are registered in bulk. Outcome i reports whether
  /// entry i was the batch's first sighting of a brand-new triple.
  Result<std::vector<LinkInsertOutcome>> InsertBatch(
      int64_t model_id, const std::vector<LinkBatchEntry>& entries);

  /// Exact lookup of a triple in a model.
  std::optional<LinkRow> Find(int64_t model_id, ValueId s, ValueId p,
                              ValueId o) const;

  /// Fetch by LINK_ID.
  Result<LinkRow> Get(LinkId link_id) const;

  /// Pattern match within one model. Unbound positions are nullopt. The
  /// object position matches on CANON_END_NODE_ID (query semantics), so
  /// callers pass the canonical object's VALUE_ID.
  std::vector<LinkRow> Match(int64_t model_id, std::optional<ValueId> s,
                             std::optional<ValueId> p,
                             std::optional<ValueId> canon_o) const;

  /// Streaming variant of Match: visits each hit without materializing a
  /// vector; return false from `fn` to stop early (used by the query
  /// planner's bounded cardinality probes). All three positions bound is
  /// a point lookup on the (model, s, p, canon_o) index instead of a
  /// posting scan.
  void MatchEach(int64_t model_id, std::optional<ValueId> s,
                 std::optional<ValueId> p, std::optional<ValueId> canon_o,
                 const std::function<bool(const LinkRow&)>& fn) const;

  /// Id-only streaming match for the join executor's hot loop: same
  /// semantics as MatchEach, but served from the id-native quad cache —
  /// no ValueKey construction per probe, no row fetch or Value decode
  /// per posting, and no LinkRow (whose LINK_TYPE/CONTEXT string
  /// columns the executor never reads). A probe with both subject and
  /// predicate bound — the inner loop of chain joins — hits a dedicated
  /// (s, p) posting list with no residual filtering at all.
  void MatchEachIds(
      int64_t model_id, std::optional<ValueId> s, std::optional<ValueId> p,
      std::optional<ValueId> canon_o,
      const std::function<bool(ValueId s, ValueId p, ValueId o,
                               ValueId canon_o)>& fn) const;

  /// Rebuild the id-native quad cache from the rdf_link$ rows. The
  /// cache is maintained in lockstep by Insert/InsertBatch/Delete/
  /// DeleteModel; this is for callers that populate the table behind
  /// the store's back (snapshot restore copies raw rows to preserve
  /// LINK_IDs). The constructor runs it for reattach.
  void RebuildCache();

  /// Drop one application-table reference: decrements COST and removes
  /// the row (plus the NDM link, plus now-orphaned nodes and rdf_node$
  /// rows) when the count reaches zero. `force` removes regardless of
  /// COST.
  Status Delete(int64_t model_id, ValueId s, ValueId p, ValueId o,
                bool force = false);

  /// Remove every triple of a model (model drop).
  Status DeleteModel(int64_t model_id);

  /// Number of triples in one model.
  size_t TripleCount(int64_t model_id) const;

  /// Number of triples across all models.
  size_t TotalTripleCount() const { return links_->row_count(); }

  /// Visit every link row of a model.
  void ScanModel(int64_t model_id,
                 const std::function<bool(const LinkRow&)>& fn) const;

  /// Underlying table (Experiment I's direct-join query reads it).
  const storage::Table& table() const { return *links_; }

  /// Attach the owning store's metric handles. Null (the default, and
  /// the state of standalone test instances) disables instrumentation.
  void set_metrics(obs::StoreMetrics* metrics) { metrics_ = metrics; }

  /// One rdf_link$ row's VALUE_ID columns, as cached for query scans.
  struct IdQuad {
    ValueId s, p, o, canon_o;
    LinkId link_id;
  };

  /// Copy-on-write granularity of the quad cache (DESIGN.md §12): the
  /// per-quad arrays are cut into chunks of kChunkSize elements and the
  /// hash indexes into kShardCount shards, each held by shared_ptr. A
  /// write copies a chunk or shard only while a published version still
  /// shares it, so its cost is bounded by what it touches, not by the
  /// model's size.
  static constexpr uint32_t kChunkBits = 12;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;  ///< 4096
  static constexpr uint32_t kShardBits = 8;
  static constexpr size_t kShardCount = size_t{1} << kShardBits;  ///< 256

  /// Writer-side byte accounting of one cache, carried across copies.
  struct CacheLedger {
    size_t index_bytes = 0;   ///< Bytes() of every hash shard, summed
    size_t copied_bytes = 0;  ///< chunk/shard bytes copied, not yet
                              ///< drained into rdfdb_cow_copied_bytes_total
  };

  /// Append-mostly array stored as shared fixed-size chunks. Readers
  /// index it like a vector; copying it copies only the chunk pointers.
  /// Mutable copies a chunk first when another copy of the array still
  /// holds it (only the serialized writer copies or drops these
  /// pointers, so use_count() is stable when it asks). PushBack writes
  /// in place even into a shared chunk: it writes only the slot at
  /// size(), and every other holder of the chunk is an older copy of
  /// this array, whose size() is at most this one's, so none of them
  /// reads that slot.
  template <typename T>
  class ChunkedArray {
   public:
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T& operator[](size_t i) const {
      return chunks_[i >> kChunkBits][i & (kChunkSize - 1)];
    }
    const T& back() const { return (*this)[size_ - 1]; }

    /// Writable element `i`; copies its chunk when shared.
    T& Mutable(size_t i, CacheLedger* ledger) {
      return Own(i >> kChunkBits, ledger)[i & (kChunkSize - 1)];
    }

    void PushBack(const T& value) {
      const size_t c = size_ >> kChunkBits;
      const size_t slot = size_ & (kChunkSize - 1);
      if (c == chunks_.size()) {
        // The first chunk starts small and doubles, so small models
        // stay small; later chunks are allocated whole.
        if (c == 0) head_capacity_ = 16;
        chunks_.push_back(std::make_shared<T[]>(Capacity(c)));
      } else if (c == 0 && slot == head_capacity_) {
        // A new, larger first chunk: holders keep the old one.
        auto bigger = std::make_shared<T[]>(2 * head_capacity_);
        std::copy_n(chunks_[0].get(), slot, bigger.get());
        chunks_[0] = std::move(bigger);
        head_capacity_ *= 2;
      }
      chunks_[c][slot] = value;
      ++size_;
    }

    /// Insert at `pos`, shifting the tail up by one (rare: by_link
    /// stragglers during a rebuild).
    void Insert(size_t pos, const T& value, CacheLedger* ledger) {
      PushBack(value);
      for (size_t i = size_ - 1; i > pos; --i) {
        Mutable(i, ledger) = (*this)[i - 1];
      }
      Mutable(pos, ledger) = value;
    }

    /// Heap bytes: chunk payloads plus the pointer table.
    size_t ApproxBytes() const {
      size_t n = chunks_.capacity() * sizeof(std::shared_ptr<T[]>);
      for (size_t c = 0; c < chunks_.size(); ++c) n += ChunkBytes(c);
      return n;
    }
    /// Bytes of the chunks this array holds that `newer` does not.
    size_t UnsharedBytes(const ChunkedArray& newer) const {
      size_t n = chunks_.capacity() * sizeof(std::shared_ptr<T[]>);
      for (size_t c = 0; c < chunks_.size(); ++c) {
        if (c >= newer.chunks_.size() || newer.chunks_[c] != chunks_[c]) {
          n += ChunkBytes(c);
        }
      }
      return n;
    }

   private:
    size_t Capacity(size_t c) const {
      return c == 0 ? head_capacity_ : kChunkSize;
    }
    /// Payload plus the make_shared control block.
    size_t ChunkBytes(size_t c) const {
      return Capacity(c) * sizeof(T) + 2 * sizeof(void*);
    }
    T* Own(size_t c, CacheLedger* ledger) {
      std::shared_ptr<T[]>& chunk = chunks_[c];
      if (chunk.use_count() > 1) {
        auto copy = std::make_shared<T[]>(Capacity(c));
        std::copy_n(chunk.get(), Capacity(c), copy.get());
        ledger->copied_bytes += ChunkBytes(c);
        chunk = std::move(copy);
      }
      return chunk.get();
    }

    std::vector<std::shared_ptr<T[]>> chunks_;
    size_t size_ = 0;
    size_t head_capacity_ = 0;  ///< slots in chunks_[0]
  };

  using QuadArray = ChunkedArray<IdQuad>;

  /// Variable-length lists of T packed into one vector: each list owns
  /// a Region [off, off + cap) of the vector and uses its first len
  /// elements. A list that outgrows its region grows in place when the
  /// region ends the vector, and otherwise moves to the end with double
  /// the capacity, leaving its old region behind as a hole. live()
  /// counts used elements, so size() - live() is the holes plus the
  /// slack inside regions; Packed() rebuilds the vector with every list
  /// tight. Copying an arena is one vector copy, whatever the number of
  /// lists (DESIGN.md §14).
  template <typename T>
  class RegionArena {
   public:
    struct Region {
      uint32_t off = 0;
      uint32_t len = 0;
      uint32_t cap = 0;
    };

    const T* At(const Region& r) const { return data_.data() + r.off; }

    /// Append `n` elements to `r`, moving it when it is full.
    void Append(Region* r, const T* src, uint32_t n) {
      if (r->len + n > r->cap) Reserve(r, r->len + n);
      std::copy_n(src, n, data_.data() + r->off + r->len);
      r->len += n;
      live_ += n;
    }
    /// Remove element `i` of `r`, shifting the rest down.
    void Erase(Region* r, uint32_t i) {
      T* p = data_.data() + r->off;
      std::copy(p + i + 1, p + r->len, p + i);
      --r->len;
      --live_;
    }
    /// Release `r`: its space is a hole until the next repack.
    void Free(Region* r) {
      live_ -= r->len;
      *r = Region{};
    }

    size_t size() const { return data_.size(); }
    size_t live() const { return live_; }
    /// Heap bytes (the vector's capacity).
    size_t Bytes() const { return data_.capacity() * sizeof(T); }
    /// True when holes and slack outweigh the live elements.
    bool Sparse() const { return data_.size() > 2 * live_; }

    /// A tight copy: `each(fn)` calls fn(Region&) on every region of
    /// the copy's owner (offsets still into this arena), and fn moves
    /// each to its packed place with cap == len.
    template <typename EachRegion>
    RegionArena Packed(EachRegion&& each) const {
      RegionArena out;
      out.data_.reserve(live_);
      each([&](Region& r) {
        const uint32_t off = static_cast<uint32_t>(out.data_.size());
        out.data_.insert(out.data_.end(), At(r), At(r) + r.len);
        r.off = off;
        r.cap = r.len;
      });
      out.live_ = live_;
      return out;
    }

   private:
    void Reserve(Region* r, uint32_t need) {
      if (r->off + r->cap == data_.size()) {  // last region: grow in place
        data_.resize(r->off + need);
        r->cap = need;
        return;
      }
      const uint32_t off = static_cast<uint32_t>(data_.size());
      const uint32_t cap = std::max(need, 2 * r->cap);
      data_.resize(off + cap);
      std::copy_n(data_.data() + r->off, r->len, data_.data() + off);
      r->off = off;
      r->cap = cap;
    }

    std::vector<T> data_;
    size_t live_ = 0;  ///< sum of live regions' len
  };

  /// A hash index cut into kShardCount shared shards, picked by the top
  /// bits of the key's Mix64 hash (a shard's own table uses the low
  /// bits). Absent shards are empty. `Shard` provides Bytes() (O(1),
  /// from its container geometry), a copy constructor whose result is
  /// capacity-tight, and Repack() (drop holes and slack in place).
  template <typename Shard>
  class ShardArray {
   public:
    static size_t ShardOf(uint64_t hash) {
      return static_cast<size_t>(hash >> (64 - kShardBits));
    }
    const Shard* Find(uint64_t hash) const {
      return shards_[ShardOf(hash)].get();
    }

    /// Run `fn(Shard&)` on the shard for `hash`, creating it when absent
    /// and copying it first when another copy of the index shares it;
    /// keeps ledger->index_bytes equal to the sum of shard Bytes().
    template <typename Fn>
    void Edit(uint64_t hash, CacheLedger* ledger, Fn&& fn) {
      EditSlot(shards_[ShardOf(hash)], ledger, fn);
    }

    /// Repack every shard (each copied first when shared).
    void RepackAll(CacheLedger* ledger) {
      for (std::shared_ptr<Shard>& slot : shards_) {
        if (slot != nullptr) {
          EditSlot(slot, ledger, [](Shard& shard) { shard.Repack(); });
        }
      }
    }

    /// Bytes of the shards this index holds that `newer` does not.
    size_t UnsharedBytes(const ShardArray& newer) const {
      size_t n = 0;
      for (size_t i = 0; i < kShardCount; ++i) {
        if (shards_[i] != nullptr && shards_[i] != newer.shards_[i]) {
          n += shards_[i]->Bytes();
        }
      }
      return n;
    }

   private:
    template <typename Fn>
    static void EditSlot(std::shared_ptr<Shard>& slot, CacheLedger* ledger,
                         Fn&& fn) {
      if (slot == nullptr) {
        slot = std::make_shared<Shard>();
        ledger->index_bytes += slot->Bytes();
      } else if (slot.use_count() > 1) {
        auto copy = std::make_shared<Shard>(*slot);
        ledger->index_bytes = ledger->index_bytes + copy->Bytes() -
                              slot->Bytes();
        ledger->copied_bytes += copy->Bytes();
        slot = std::move(copy);
      }
      const size_t before = slot->Bytes();
      fn(*slot);
      ledger->index_bytes = ledger->index_bytes + slot->Bytes() - before;
    }

    std::array<std::shared_ptr<Shard>, kShardCount> shards_;
  };

  /// Flat open-addressing (subject, predicate) → rows map with the
  /// single-row answer inlined in the slot: the overwhelmingly common
  /// probe shape in chain and star joins (one matching row) is answered
  /// from one slot load, with no posting-list or quad-array
  /// indirection. Multi-row groups spill to an overflow list of row
  /// indexes in creation order, kept in one shared RegionArena. Deletes
  /// tombstone the slot; rehashing drops tombstones. One SpMap is one
  /// shard of a model's (s, p) index; callers pass the pair's Hash(),
  /// whose low bits pick the slot.
  class SpMap {
   public:
    SpMap() = default;
    /// Three vector copies, or a repack when the row arena is sparse.
    SpMap(const SpMap& other);
    SpMap& operator=(const SpMap&) = delete;

    struct Hit {
      const uint32_t* list = nullptr;  ///< row indexes when n > 1
      uint32_t n = 0;                  ///< match count (0 = miss)
      uint32_t head = 0;               ///< single row's quad index
      ValueId o = 0;                   ///< single row's object
      ValueId canon_o = 0;             ///< single row's canonical object
    };

    static uint64_t Hash(ValueId s, ValueId p) {
      // Full-avalanche finalizer: linear probing clusters badly on
      // HashCombine alone when ids are near-sequential.
      return Mix64(
          HashCombine(static_cast<uint64_t>(s), static_cast<uint64_t>(p)));
    }

    Hit Probe(ValueId s, ValueId p, uint64_t hash) const {
      if (slots_.empty()) return Hit{};
      for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
        const Slot& slot = slots_[i];
        if (slot.s == kEmpty) return Hit{};
        if (slot.s != s || slot.p != p) continue;  // incl. tombstones
        Hit hit;
        if (slot.overflow < 0) {
          hit.n = 1;
          hit.head = slot.head;
          hit.o = slot.o;
          hit.canon_o = slot.canon_o;
        } else {
          const RowArena::Region& rows = overflow_[slot.overflow];
          hit.list = rows_.At(rows);
          hit.n = rows.len;
        }
        return hit;
      }
    }

    void Insert(ValueId s, ValueId p, uint64_t hash, uint32_t idx,
                ValueId o, ValueId canon_o);
    /// Remove row `idx`; `quads` re-derives the inline payload when an
    /// overflow list collapses back to a single row.
    void Erase(ValueId s, ValueId p, uint64_t hash, uint32_t idx,
               const QuadArray& quads);

    /// Heap bytes: this object, the slot array and the overflow lists.
    size_t Bytes() const {
      return sizeof(SpMap) + 2 * sizeof(void*) +
             slots_.capacity() * sizeof(Slot) +
             overflow_.capacity() * sizeof(RowArena::Region) +
             free_overflow_.capacity() * sizeof(int32_t) + rows_.Bytes();
    }
    /// Pack the overflow lists tightly.
    void Repack();

   private:
    static constexpr ValueId kEmpty = -1;
    static constexpr ValueId kGone = -2;  ///< tombstone
    struct Slot {
      ValueId s = kEmpty;
      ValueId p = 0;
      uint32_t head = 0;
      int32_t overflow = -1;
      ValueId o = 0;
      ValueId canon_o = 0;
    };

    using RowArena = RegionArena<uint32_t>;

    Slot& SlotFor(ValueId s, ValueId p, uint64_t hash);
    void Grow();
    RowArena Packed(std::vector<RowArena::Region>* overflow) const;

    std::vector<Slot> slots_;
    std::vector<RowArena::Region> overflow_;  ///< by Slot::overflow
    std::vector<int32_t> free_overflow_;      ///< released overflow_ refs
    RowArena rows_;
    size_t used_ = 0;  ///< full + tombstoned slots
    size_t mask_ = 0;
  };

  /// One shard of a posting index: a delta+varint compressed list of
  /// quad indexes per key, stored flat (DESIGN.md §14). An
  /// open-addressing key table, probed by the low bits of the key's
  /// Mix64 hash, holds each key's count, last value and two regions:
  /// its encoded bytes in one byte arena, and — only for lists longer
  /// than one codec::kBlockSize block — its skip entries in one skip
  /// arena. Copying a shard is three vector copies and freeing one is
  /// three frees, however many keys it holds. Lists are append-only
  /// ascending; deletions tombstone the referenced quad instead of
  /// editing the list.
  class PostingShard {
   public:
    static uint64_t Hash(ValueId key) {
      return Mix64(static_cast<uint64_t>(key));
    }

    PostingShard() = default;
    /// Three vector copies, or a repack when an arena is sparse.
    PostingShard(const PostingShard& other);
    PostingShard& operator=(const PostingShard&) = delete;

    /// The list of `key` (`hash` = Hash(key)); empty when absent.
    codec::PostingView Find(ValueId key, uint64_t hash) const {
      if (slots_.empty()) return {};
      for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
        const Slot& slot = slots_[i];
        if (slot.key == key) return ViewOf(slot);
        if (slot.key == kEmpty) return {};
      }
    }
    /// Append `idx` to the list of `key`; idx must exceed its back().
    void Append(ValueId key, uint64_t hash, uint32_t idx);
    /// Pack every list tightly (no holes, no slack).
    void Repack();

    /// Visit every (key, list), in table order.
    template <typename Fn>
    void ForEachList(Fn&& fn) const {
      for (const Slot& slot : slots_) {
        if (slot.key != kEmpty) fn(slot.key, ViewOf(slot));
      }
    }

    /// Heap bytes from real container geometry: this object, the key
    /// table and the two arenas (holes and slack included).
    size_t Bytes() const {
      return sizeof(PostingShard) + 2 * sizeof(void*) +
             slots_.capacity() * sizeof(Slot) + bytes_.Bytes() +
             skips_.Bytes();
    }
    /// Encoded bytes of every list; skip entries of every list.
    size_t encoded_bytes() const { return bytes_.live(); }
    size_t skip_entries() const { return skips_.live(); }
    /// Arena bytes in holes left by moved lists or in slack at the end
    /// of a list's region.
    size_t slack_bytes() const {
      return bytes_.size() - bytes_.live() +
             (skips_.size() - skips_.live()) * sizeof(codec::SkipEntry);
    }

   private:
    static constexpr ValueId kEmpty = -1;  ///< keys are VALUE_IDs (>= 0)
    using ByteArena = RegionArena<uint8_t>;
    using SkipArena = RegionArena<codec::SkipEntry>;
    struct Slot {
      ValueId key = kEmpty;
      uint32_t count = 0;
      uint32_t last = 0;
      ByteArena::Region bytes;
      SkipArena::Region skips;  ///< len 0 while the list fits one block
    };

    codec::PostingView ViewOf(const Slot& slot) const {
      return codec::PostingView(bytes_.At(slot.bytes),
                                skips_.At(slot.skips), slot.count,
                                slot.last);
    }
    Slot& SlotFor(ValueId key, uint64_t hash);
    void Grow();
    /// Tight copies of `source`'s arenas into this shard, whose slots
    /// are a copy of `source`'s.
    void PackFrom(const PostingShard& source);

    std::vector<Slot> slots_;
    ByteArena bytes_;
    SkipArena skips_;
    size_t keys_ = 0;
    size_t mask_ = 0;
  };
  using PostingIndex = ShardArray<PostingShard>;

  /// Per-model id-native postings backing MatchEachIds and the
  /// executors' leaf scans: quads in creation order plus compressed
  /// posting lists by subject, canonical object, and predicate (quad
  /// indexes, delta+varint with a skip table for galloping), an exact
  /// (subject, predicate) hash, and a sorted LINK_ID → quad index
  /// array. Scans decode cursors instead of walking flat int arrays.
  /// Maintained by every mutation path in lockstep with the table (and
  /// rebuilt from it on reattach), so reads need no locking beyond
  /// what the table itself requires.
  ///
  /// Deletes tombstone: the quad's ids are overwritten with -1 (no
  /// query carries a negative id, so residual filters skip dead quads
  /// for free) and stale posting entries are tolerated by every scan.
  /// Compact() renumbers once dead quads outnumber live ones.
  ///
  /// Instances are held by shared_ptr and copied-on-write at two
  /// levels: the store copies a model's cache object (its chunk and
  /// shard pointer tables only) before the first mutation that follows
  /// a ShareCaches() call, and each write then copies the chunks and
  /// shards it modifies that a published version still holds (appends
  /// excepted, see ChunkedArray). Published snapshots read only their
  /// own chunks and shards, which no write changes.
  struct ModelIdCache {
    QuadArray quads;                  ///< creation order; dead = all -1
    ChunkedArray<uint32_t> row_ids;   ///< parallel: rdf_link$ RowId
    PostingIndex by_s;
    ShardArray<SpMap> by_sp;
    PostingIndex by_canon;
    PostingIndex by_p;
    /// LINK_ID → quad index, sorted by LINK_ID (link ids ascend in
    /// creation order). Tombstoned entries keep the key with
    /// kDeadIdx as the value so the array stays sorted.
    ChunkedArray<std::pair<LinkId, uint32_t>> by_link;
    size_t implied_count = 0;  ///< rows with CONTEXT == Implied
    size_t dead_count = 0;     ///< tombstoned quads awaiting Compact()
    CacheLedger ledger;

    static constexpr uint32_t kDeadIdx = 0xffffffffu;
    static bool Dead(const IdQuad& q) { return q.link_id < 0; }
    size_t live_count() const { return quads.size() - dead_count; }

    /// Append a new quad (all posting structures updated).
    void Append(const IdQuad& quad, uint32_t row_id, bool implied);
    /// Tombstone quad `idx` (caller resolved it via IndexOfLink).
    void Tombstone(uint32_t idx, bool implied);
    /// Quad index for LINK_ID, or -1 when absent/tombstoned.
    int64_t IndexOfLink(LinkId link_id) const;
    /// Renumber live quads into fresh chunks and shards.
    void Compact();
    /// Pack every posting and (s, p) shard tightly (after a rebuild).
    void Repack();
    bool ShouldCompact() const {
      return dead_count > 4096 && dead_count * 2 > quads.size();
    }

    /// Approximate heap bytes owned by this cache object, from real
    /// container geometry: chunk capacities and the shard ledger (key
    /// tables and arena capacities, holes included) — no flat
    /// per-entry constants. Drives the quad-cache memory gauge.
    size_t ApproxBytes() const {
      return sizeof(ModelIdCache) + quads.ApproxBytes() +
             row_ids.ApproxBytes() + by_link.ApproxBytes() +
             ledger.index_bytes;
    }
    /// Bytes this cache holds that `newer` (a later copy of the same
    /// model's cache) does not share: the exclusive footprint of a
    /// retired version. Zero when both are the same object.
    size_t UnsharedBytes(const ModelIdCache& newer) const;

    SpMap::Hit ProbeSp(ValueId s, ValueId p) const {
      const uint64_t hash = SpMap::Hash(s, p);
      const SpMap* shard = by_sp.Find(hash);
      return shard == nullptr ? SpMap::Hit{} : shard->Probe(s, p, hash);
    }
    /// Posting list of `key` in one of the posting indexes; empty when
    /// absent.
    static codec::PostingView FindPostings(const PostingIndex& index,
                                           ValueId key) {
      const uint64_t hash = PostingShard::Hash(key);
      const PostingShard* shard = index.Find(hash);
      return shard == nullptr ? codec::PostingView{} : shard->Find(key, hash);
    }

    /// Exact (s, p, lexical-object) probe — the identity Insert/Delete
    /// and IS_TRIPLE use. Returns the quad index or -1.
    int64_t FindSpoIdx(ValueId s, ValueId p, ValueId o) const {
      SpMap::Hit hit = ProbeSp(s, p);
      if (hit.n == 0) return -1;
      if (hit.n == 1) return hit.o == o ? static_cast<int64_t>(hit.head) : -1;
      for (uint32_t i = 0; i < hit.n; ++i) {
        if (quads[hit.list[i]].o == o) {
          return static_cast<int64_t>(hit.list[i]);
        }
      }
      return -1;
    }
    const IdQuad* FindSpo(ValueId s, ValueId p, ValueId o) const {
      int64_t idx = FindSpoIdx(s, p, o);
      return idx < 0 ? nullptr : &quads[static_cast<uint32_t>(idx)];
    }
  };

  /// Id-only match kernel over one cache: index choice (sp probe →
  /// postings → full scan), residual filtering, and scan accounting.
  /// Shared by the store's MatchEachIds and by published StoreVersions,
  /// which run it against their pinned cache objects.
  static void MatchCache(
      const ModelIdCache& cache, std::optional<ValueId> s,
      std::optional<ValueId> p, std::optional<ValueId> canon_o,
      const std::function<bool(ValueId s, ValueId p, ValueId o,
                               ValueId canon_o)>& fn,
      obs::Counter* scans);

  /// Shared read-only handles on every model's current cache — the raw
  /// material of a published snapshot. Cheap (one shared_ptr copy per
  /// model); subsequent store mutations copy-on-write and leave the
  /// returned objects untouched.
  std::unordered_map<int64_t, std::shared_ptr<const ModelIdCache>>
  ShareCaches() const {
    std::unordered_map<int64_t, std::shared_ptr<const ModelIdCache>> out;
    out.reserve(id_cache_.size());
    for (const auto& [model_id, cache] : id_cache_) {
      out.emplace(model_id, cache);
    }
    return out;
  }

  /// Borrowed read-only view of one model's quad cache for the compiled
  /// executor's leaf scans: direct posting access with no virtual
  /// dispatch or per-row callback. Invalidated by any mutation of the
  /// store, so hold one only for the duration of a query.
  class LeafScan {
   public:
    LeafScan() = default;
    /// View over an externally-owned cache (a published StoreVersion's
    /// pinned object); `scans` may be null to disable accounting.
    LeafScan(const ModelIdCache* cache, obs::Counter* scans)
        : cache_(cache), scans_(scans) {}
    bool valid() const { return cache_ != nullptr; }
    /// The quads, indexed by quad index through their chunks.
    const QuadArray& quads() const { return cache_->quads; }
    uint32_t quad_count() const {
      return static_cast<uint32_t>(cache_->quads.size());
    }
    SpMap::Hit ProbeSp(ValueId s, ValueId p) const {
      return cache_->ProbeSp(s, p);
    }
    /// Compressed posting lists, empty for an absent key (quad indexes;
    /// may reference tombstoned quads — check IdQuad::link_id or rely
    /// on residual filters, which never match a dead quad's -1 ids).
    codec::PostingView PostingsS(ValueId s) const {
      return ModelIdCache::FindPostings(cache_->by_s, s);
    }
    codec::PostingView PostingsCanon(ValueId canon_o) const {
      return ModelIdCache::FindPostings(cache_->by_canon, canon_o);
    }
    codec::PostingView PostingsP(ValueId p) const {
      return ModelIdCache::FindPostings(cache_->by_p, p);
    }
    /// Mirror MatchEachIds' store-level scan accounting.
    void CountScanned(size_t n) const {
      if (scans_ != nullptr && n > 0) scans_->Inc(n);
    }

   private:
    friend class LinkStore;
    const ModelIdCache* cache_ = nullptr;
    obs::Counter* scans_ = nullptr;
  };
  /// Leaf-scan view of `model_id`; invalid when the model has no rows.
  LeafScan Leaf(int64_t model_id) const;

  /// Approximate heap bytes across every model's current quad cache.
  size_t CacheBytes() const {
    size_t n = 0;
    for (const auto& [model_id, cache] : id_cache_) {
      (void)model_id;
      n += cache->ApproxBytes();
    }
    return n;
  }

  /// Approximate heap bytes of the rdf_link$ + rdf_node$ rows and their
  /// storage-layer indexes.
  size_t TableBytes() const {
    return links_->ApproxTotalBytes() + nodes_->ApproxTotalBytes();
  }

 private:
  /// Cache-driven match yielding quad indexes: access-path choice
  /// (SpMap probe → posting cursor → full scan), dead-quad skipping,
  /// residual filtering, and scan accounting. MatchCache and MatchRows
  /// are both built on it.
  static void MatchCacheIndexes(
      const ModelIdCache& cache, std::optional<ValueId> s,
      std::optional<ValueId> p, std::optional<ValueId> canon_o,
      const std::function<bool(uint32_t idx)>& fn, obs::Counter* scans);

  /// Row-level match kernel for callers that need full rdf_link$ rows
  /// (MatchEach): cache-driven candidates, rows fetched by the cache's
  /// RowId column.
  void MatchRows(int64_t model_id, std::optional<ValueId> s,
                 std::optional<ValueId> p, std::optional<ValueId> canon_o,
                 const std::function<bool(const storage::Row&)>& fn) const;

  /// Mutable handle on one model's cache. When a published snapshot
  /// still shares the current object, it is replaced by a copy of its
  /// chunk and shard pointer tables; the chunks and shards themselves
  /// are copied later, one at a time, by the writes that touch them
  /// (only the serialized writer manipulates these shared_ptrs).
  ModelIdCache& MutableCache(int64_t model_id);
  /// Move the chunk/shard bytes `cache`'s writes copied into
  /// rdfdb_cow_copied_bytes_total.
  void DrainCopiedBytes(ModelIdCache* cache);

  void CacheInsert(int64_t model_id, const IdQuad& quad,
                   storage::RowId row_id, bool implied);
  void CacheErase(int64_t model_id, LinkId link_id, bool implied);
  /// An existing row's CONTEXT flipped Implied → Direct.
  void CacheContextUpgrade(int64_t model_id);

  LinkRow RowToLink(const storage::Row& row) const;
  storage::Row LinkToRow(const LinkRow& link) const;
  void RemoveFromNetwork(const LinkRow& link);
  void EnsureNode(ValueId node);
  void DropNodeIfOrphaned(ValueId node);

  storage::Database* db_;
  ndm::LogicalNetwork* net_;
  storage::Table* links_;   // MDSYS.RDF_LINK$
  storage::Table* nodes_;   // MDSYS.RDF_NODE$
  storage::Sequence* link_seq_;
  std::unordered_map<int64_t, std::shared_ptr<ModelIdCache>> id_cache_;
  obs::StoreMetrics* metrics_ = nullptr;
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_LINK_STORE_H_
