#include "span_trace.h"

#include <algorithm>
#include <utility>

namespace rdfbench {

namespace {

/// Children of every span, in recording order.
std::vector<std::vector<size_t>> ChildLists(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  return children;
}

/// Nanoseconds of [start, end) covered by the union of `intervals`.
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t start, int64_t end) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

int64_t SpanTrace::Add(const char* name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, uint64_t request_id) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanTrace::Merge(const SpanTrace& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::vector<int64_t> SpanTrace::SelfTimes() const {
  const auto children = ChildLists(spans_);
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>> intervals;
    for (size_t c : children[i]) {
      intervals.emplace_back(spans_[c].start_ns, spans_[c].end_ns);
    }
    self[i] = spans_[i].duration_ns() -
              CoveredNs(std::move(intervals), spans_[i].start_ns,
                        spans_[i].end_ns);
  }
  return self;
}

size_t SpanTrace::CheckIdentity(std::string* first) const {
  const auto children = ChildLists(spans_);
  const std::vector<int64_t> self = SelfTimes();
  size_t violations = 0;
  auto report = [&](size_t i, const std::string& what) {
    if (violations++ == 0 && first != nullptr) {
      *first = std::string(spans_[i].name) + ": " + what;
    }
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (children[i].empty()) continue;
    const Span& parent = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> intervals;
    bool nested = true;
    for (size_t c : children[i]) {
      const Span& child = spans_[c];
      if (child.start_ns < parent.start_ns || child.end_ns > parent.end_ns ||
          child.end_ns < child.start_ns) {
        nested = false;
      }
      intervals.emplace_back(child.start_ns, child.end_ns);
    }
    if (!nested) {
      report(i, "a child lies outside its parent");
      continue;
    }
    std::sort(intervals.begin(), intervals.end());
    bool disjoint = true;
    for (size_t k = 1; k < intervals.size(); ++k) {
      if (intervals[k].first < intervals[k - 1].second) disjoint = false;
    }
    if (!disjoint) {
      report(i, "sibling spans overlap");
      continue;
    }
    const double allowed =
        kIdentityShare * static_cast<double>(parent.duration_ns()) +
        static_cast<double>(kIdentitySlackNs);
    if (static_cast<double>(self[i]) > allowed) {
      report(i, "self time " + std::to_string(self[i]) + " ns of " +
                    std::to_string(parent.duration_ns()) +
                    " ns is not accounted for by its children");
    }
  }
  return violations;
}

void SpanTrace::WriteJsonLines(std::FILE* out) const {
  const std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu, "
                 "\"self_ns\": %lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(self[i]));
  }
}

}  // namespace rdfbench
