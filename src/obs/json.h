// Minimal JSON string escaping shared by the observability sinks
// (event-log JSONL lines, Chrome trace-event export, /varz rendering).
// Full JSON parsing is deliberately out of scope — the library only
// *emits* JSON, and every consumer (jq, chrome://tracing, Prometheus
// scrapers) parses it on the other side.

#ifndef RDFDB_OBS_JSON_H_
#define RDFDB_OBS_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

#include "common/string_util.h"

namespace rdfdb::obs {

/// JSON-escape `*out` from `start` to its end in place: quotes,
/// backslashes and control characters (\n, \r, \t by name, the rest as
/// \u00XX). Lets a writer render text straight into a buffer and escape
/// it there, with no intermediate string.
inline void EscapeJsonInPlace(std::string* out, size_t start) {
  EscapeInPlace(out, start, [](char c, char* buf) -> size_t {
    buf[0] = '\\';
    switch (c) {
      case '"':
        buf[1] = '"';
        return 2;
      case '\\':
        buf[1] = '\\';
        return 2;
      case '\n':
        buf[1] = 'n';
        return 2;
      case '\r':
        buf[1] = 'r';
        return 2;
      case '\t':
        buf[1] = 't';
        return 2;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) return 0;
        std::snprintf(buf, 8, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        return 6;
    }
  });
}

/// Append `value` to `out` as a double-quoted JSON string, escaping
/// quotes, backslashes and control characters.
inline void AppendJsonString(std::string_view value, std::string* out) {
  out->push_back('"');
  const size_t start = out->size();
  out->append(value);
  EscapeJsonInPlace(out, start);
  out->push_back('"');
}

inline std::string JsonString(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 2);
  AppendJsonString(value, &out);
  return out;
}

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_JSON_H_
