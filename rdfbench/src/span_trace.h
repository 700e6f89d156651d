// In-memory spans for the traced run.
//
// A span is one timed call at a layer boundary: name, start, end, the
// span that caused it, and the id of the request it belongs to. Spans
// are recorded from the benchmark's own code around calls into each
// module's public functions, kept in memory, and written out when the
// run ends. Each client thread owns one SpanTrace; Merge() folds them
// together at the end.
//
// A span's self time is its duration minus the part of its interval
// that its children cover. CheckIdentity() verifies the tree: every
// child lies inside its parent, siblings do not overlap, and each
// parent's self time (time no child accounts for) stays within the
// stated tolerance of its duration.
#ifndef RDFBENCH_SPAN_TRACE_H_
#define RDFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rdfbench {

struct Span {
  const char* name = "";  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index into the same trace, -1 for a root
  uint64_t request_id = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Parent self time allowed by CheckIdentity: this share of the parent's
/// duration plus kIdentitySlackNs (clock reads and loop bookkeeping
/// between timed calls).
inline constexpr double kIdentityShare = 0.05;
inline constexpr int64_t kIdentitySlackNs = 20000;

class SpanTrace {
 public:
  /// Record a finished span; returns its index (the parent handle of its
  /// children).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request_id);
  /// Widen an already recorded span's end (a parent closed after its
  /// children were recorded).
  void SetEnd(int64_t index, int64_t end_ns) {
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Append `other`'s spans, remapping their parent indexes.
  void Merge(const SpanTrace& other);

  /// Self time of every span (same order as spans()).
  std::vector<int64_t> SelfTimes() const;

  /// Number of parents whose children break the identity; the first
  /// violation is described in `*first` when non-null.
  size_t CheckIdentity(std::string* first = nullptr) const;

  /// One JSON object per line: name, start/end (ns), parent, request id,
  /// self time.
  void WriteJsonLines(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace rdfbench

#endif  // RDFBENCH_SPAN_TRACE_H_
