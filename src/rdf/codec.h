// Compression codecs for the in-memory store (ROADMAP item 2):
//
//   * Posting lists — delta+varint encoded strictly-ascending uint32
//     sequences with a per-64-value skip table, the posting lists of
//     LinkStore::ModelIdCache. A PostingView reads one wherever it is
//     stored (a posting shard's arenas, or a PostingList); its Cursor
//     decodes sequentially and SkipTo gallops over skip entries so
//     intersections decode only the blocks they visit.
//
//   * FrontCodedPack — sorted strings stored in blocks of 16 as one
//     full head string plus (shared-prefix-length, suffix) pairs,
//     replacing the per-entry std::string copies in TermDict. Get()
//     materializes lazily by walking one block (≤ 15 suffix splices);
//     AppendTo does the splices inside the caller's buffer.
//
// Both structures are immutable-once-shared: the COW quad-cache
// discipline (a write copies the posting shard it touches while a
// published version still shares it) means readers only ever see
// fully-published bytes, so neither structure needs atomics of its own.

#ifndef RDFDB_RDF_CODEC_H_
#define RDFDB_RDF_CODEC_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfdb::rdf::codec {

// ---- Varint primitives ----------------------------------------------------

/// LEB128 encode into `out` (room for 5 bytes); returns the length.
inline uint32_t EncodeVarint32(uint8_t* out, uint32_t v) {
  uint32_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<uint8_t>(v);
  return n;
}

/// LEB128 append (1–5 bytes for uint32).
inline void PutVarint32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t buf[5];
  out->insert(out->end(), buf, buf + EncodeVarint32(buf, v));
}

/// Unchecked decode: the caller guarantees a complete varint at `p`
/// (all codec bytes are produced by PutVarint32). Returns the byte
/// after the varint.
inline const uint8_t* GetVarint32(const uint8_t* p, uint32_t* v) {
  uint32_t result = *p & 0x7f;
  if ((*p++ & 0x80) != 0) {
    int shift = 7;
    do {
      result |= static_cast<uint32_t>(*p & 0x7f) << shift;
      shift += 7;
    } while ((*p++ & 0x80) != 0);
  }
  *v = result;
  return p;
}

/// Encoded size of `v` in bytes.
inline size_t VarintLength(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// ---- Posting lists ---------------------------------------------------------

/// Skip-table entry of a posting list: one per kBlockSize-value block.
struct SkipEntry {
  uint32_t first;   ///< first value of the block
  uint32_t offset;  ///< byte offset of the block's head varint
};

/// Values per skip block. A list longer than one block carries one
/// skip entry per block (block 0 included), so SkipTo lands inside the
/// right block and decodes at most kBlockSize-1 deltas; a list of at
/// most one block carries none.
inline constexpr uint32_t kBlockSize = 64;

class PostingCursor;

/// Read-only view of one delta+varint encoded, strictly ascending
/// uint32 list: its bytes, its skip entries (none when the list fits
/// one block), its count and its last value. The storage belongs to
/// whoever made the view (a PostingList, or a posting shard's arenas)
/// and must stay unmodified while the view is in use — the COW
/// discipline guarantees this for readers of published versions.
class PostingView {
 public:
  PostingView() = default;
  PostingView(const uint8_t* bytes, const SkipEntry* skips, uint32_t count,
              uint32_t last)
      : bytes_(bytes), skips_(skips), count_(count), last_(last) {}

  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Largest (= most recent) value; undefined when empty.
  uint32_t back() const { return last_; }

  /// Decode everything (tests / slow paths).
  std::vector<uint32_t> ToVector() const;

  /// Decode every value in order, calling fn(value) until it returns
  /// false. The whole decode state lives in registers — measurably
  /// faster than driving a Cursor when the full list is visited (the
  /// executor's hot single-list leaf scans).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const uint8_t* p = bytes_;
    uint32_t cur = 0;
    for (uint32_t i = 0; i < count_; ++i) {
      uint32_t delta;
      p = GetVarint32(p, &delta);
      cur += delta;  // first delta is the absolute value (cur == 0)
      if (!fn(cur)) return;
    }
  }

  /// Forward decoder (holds a copy of the view).
  using Cursor = PostingCursor;

  /// Skip entries a list of `count` values carries.
  static uint32_t SkipCountFor(uint32_t count) {
    return count > kBlockSize ? (count + kBlockSize - 1) / kBlockSize : 0;
  }
  uint32_t SkipCount() const { return SkipCountFor(count_); }

 private:
  friend class PostingCursor;

  const uint8_t* bytes_ = nullptr;
  const SkipEntry* skips_ = nullptr;
  uint32_t count_ = 0;
  uint32_t last_ = 0;
};

/// Forward decoder over a PostingView.
class PostingCursor {
 public:
  PostingCursor() = default;
  explicit PostingCursor(const PostingView& list) : list_(list) {
    if (list.count_ > 0) pos_ = GetVarint32(list.bytes_, &cur_);
  }

  bool AtEnd() const { return idx_ >= list_.count_; }
  uint32_t Value() const { return cur_; }
  /// Index of the current value within the list (0-based).
  uint32_t Index() const { return idx_; }

  void Next() {
    if (++idx_ >= list_.count_) return;
    uint32_t delta;
    pos_ = GetVarint32(pos_, &delta);
    cur_ += delta;
  }

  /// Advance to the first value >= target (no-op if already there).
  /// Returns false when the list is exhausted. Gallops across skip
  /// blocks: doubling probe from the current block, then a binary
  /// search over the bracketed range, then ≤ kBlockSize-1 decodes.
  bool SkipTo(uint32_t target) {
    if (AtEnd()) return false;
    if (cur_ >= target) return true;
    const SkipEntry* skip = list_.skips_;
    const size_t blocks = list_.SkipCount();
    size_t block = idx_ / kBlockSize;
    // Gallop: find the last block whose first value <= target.
    size_t step = 1;
    size_t hi = block;
    while (hi + step < blocks && skip[hi + step].first <= target) {
      hi += step;
      step <<= 1;
    }
    // Binary-search (hi, min(hi+step, blocks)) for more blocks <= target.
    size_t lo = hi;
    size_t end = std::min(hi + step, blocks);
    while (lo + 1 < end) {
      size_t mid = (lo + end) / 2;
      if (skip[mid].first <= target) {
        lo = mid;
      } else {
        end = mid;
      }
    }
    if (lo > block) {
      idx_ = static_cast<uint32_t>(lo) * kBlockSize;
      cur_ = skip[lo].first;
      pos_ = list_.bytes_ + skip[lo].offset;
      uint32_t delta;
      pos_ = GetVarint32(pos_, &delta);  // re-decode the block head
    }
    while (cur_ < target) {
      Next();
      if (AtEnd()) return false;
    }
    return true;
  }

 private:
  PostingView list_;
  const uint8_t* pos_ = nullptr;
  uint32_t idx_ = 0;
  uint32_t cur_ = 0;
};

/// What appending `value` to a list writes: the delta varint
/// (`bytes[0..n)`) and, when the value opens a new block of a list that
/// then spans more than one, the skip entries to add
/// (`skips[0..skip_n)`; block 0's entry is added when the list first
/// outgrows one block). The list holds `count` values ending in `last`,
/// encoded in `byte_len` bytes at `list_bytes`.
struct PostingAppend {
  uint8_t bytes[5];
  uint32_t n = 0;
  SkipEntry skips[2];
  uint32_t skip_n = 0;

  PostingAppend(uint32_t count, uint32_t last, const uint8_t* list_bytes,
                uint32_t byte_len, uint32_t value)
      : n(EncodeVarint32(bytes, count == 0 ? value : value - last)) {
    if (count >= kBlockSize && count % kBlockSize == 0) {
      if (count == kBlockSize) {
        uint32_t first;
        GetVarint32(list_bytes, &first);
        skips[skip_n++] = SkipEntry{first, 0};
      }
      skips[skip_n++] = SkipEntry{value, byte_len};
    }
  }
};

/// Owning, self-contained posting list: append-only and strictly
/// ascending (each value must exceed the last); deletions are handled
/// above this layer by tombstoning the referenced quad. The store keeps
/// its lists in posting shards' arenas instead (LinkStore::PostingShard);
/// this is the same encoding in two vectors of its own.
class PostingList {
 public:
  using Cursor = PostingView::Cursor;
  static constexpr uint32_t kBlockSize = codec::kBlockSize;

  PostingList() = default;

  /// Append `value`; must be strictly greater than back() (or anything
  /// for the first append).
  void Append(uint32_t value) {
    const PostingAppend a(count_, last_, bytes_.data(),
                          static_cast<uint32_t>(bytes_.size()), value);
    bytes_.insert(bytes_.end(), a.bytes, a.bytes + a.n);
    skip_.insert(skip_.end(), a.skips, a.skips + a.skip_n);
    last_ = value;
    ++count_;
  }

  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  uint32_t back() const { return last_; }

  PostingView View() const {
    return PostingView(bytes_.data(), skip_.data(), count_, last_);
  }
  operator PostingView() const { return View(); }  // NOLINT(runtime/explicit)

  std::vector<uint32_t> ToVector() const { return View().ToVector(); }

  /// Encoded payload size (exact, no capacity slack).
  size_t EncodedBytes() const {
    return bytes_.size() + skip_.size() * sizeof(SkipEntry);
  }

 private:
  std::vector<uint8_t> bytes_;
  std::vector<SkipEntry> skip_;
  uint32_t count_ = 0;
  uint32_t last_ = 0;
};

// ---- Front-coded string blocks --------------------------------------------

/// Immutable pack of front-coded strings. Strings are stored in the
/// order given to the builder (sort first for real compression: the
/// shared prefix is computed against the previous string). Index i in
/// the pack is the order of insertion.
class FrontCodedPack {
 public:
  /// Strings per block: one full head + 15 (prefix-len, suffix) pairs.
  static constexpr uint32_t kBlockSize = 16;

  FrontCodedPack() = default;

  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Materialize string `idx` (walks its block from the head).
  std::string Get(uint32_t idx) const;

  /// Append string `idx` to `*out`, rebuilding it inside `*out` (no
  /// temporary string; bytes already in `*out` are kept).
  void AppendTo(uint32_t idx, std::string* out) const;

  /// Actual heap bytes owned (vector capacities).
  size_t ApproxBytes() const {
    return bytes_.capacity() * sizeof(uint8_t) +
           block_offsets_.capacity() * sizeof(uint32_t);
  }

 private:
  friend class FrontCodedPackBuilder;

  // Block layout in bytes_:
  //   head:   varint(len)        + len bytes
  //   member: varint(shared_len) + varint(suffix_len) + suffix bytes
  std::vector<uint8_t> bytes_;
  std::vector<uint32_t> block_offsets_;  ///< byte offset of each block head
  uint32_t count_ = 0;
};

/// Builds a FrontCodedPack incrementally. Add() returns the index the
/// string will have in the finished pack.
class FrontCodedPackBuilder {
 public:
  uint32_t Add(std::string_view s);

  /// Finish: shrinks to fit and returns the pack. The builder is
  /// reset to empty.
  FrontCodedPack Build();

  uint32_t size() const { return pack_.count_; }

 private:
  FrontCodedPack pack_;
  std::string prev_;
};

}  // namespace rdfdb::rdf::codec

#endif  // RDFDB_RDF_CODEC_H_
