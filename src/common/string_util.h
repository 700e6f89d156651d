// Small string helpers shared across modules.

#ifndef RDFDB_COMMON_STRING_UTIL_H_
#define RDFDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace rdfdb {

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Copy of `s` with leading/trailing ASCII whitespace removed.
std::string Trim(std::string_view s);

/// Split on `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Split on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Join `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-case copy.
std::string ToLower(std::string_view s);

/// ASCII upper-case copy.
std::string ToUpper(std::string_view s);

/// Parse a signed decimal integer; returns false on any non-numeric input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parse a floating-point number; returns false on any non-numeric input.
bool ParseDouble(std::string_view s, double* out);

/// Escape the bytes of `*out` from `start` to its end, in place.
/// `escape(c, buf)` writes the replacement for byte `c` into `buf` (at
/// most 8 bytes, at least 2) and returns its length, or returns 0 to
/// keep `c`. Text that needs no escape is scanned once and left alone;
/// otherwise the string grows once, by exactly the extra bytes, and the
/// range is rewritten back to front, so no scratch buffer is needed.
template <typename EscapeFn>
void EscapeInPlace(std::string* out, size_t start, EscapeFn&& escape) {
  char buf[8];
  const size_t end = out->size();
  size_t extra = 0;
  for (size_t i = start; i < end; ++i) {
    const size_t n = escape((*out)[i], buf);
    if (n != 0) extra += n - 1;
  }
  if (extra == 0) return;
  out->resize(end + extra);
  char* data = out->data();
  // Once the write cursor meets the read cursor, everything before it
  // needs no escape and is already in place.
  for (size_t r = end, w = end + extra; w > r;) {
    const char c = data[--r];
    const size_t n = escape(c, buf);
    if (n == 0) {
      data[--w] = c;
    } else {
      w -= n;
      std::memcpy(data + w, buf, n);
    }
  }
}

}  // namespace rdfdb

#endif  // RDFDB_COMMON_STRING_UTIL_H_
