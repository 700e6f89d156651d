// The benchmark's own HTTP/1.1 client.
//
// The benchmark measures the server with a client it owns, so a server
// change (keep-alive, chunked streaming) shows up in the numbers without
// anyone editing the benchmark. The client:
//   * reads bodies delimited by Content-Length, by chunked transfer
//     coding, or by the server closing the connection;
//   * keeps a connection open and reuses it for the next request unless
//     the response says `Connection: close`;
//   * retries a request once on a fresh connection when a reused
//     connection turns out to be closed before any response byte arrives
//     (the usual race with a server's idle-connection timeout).
//
// ResponseParser is a pure incremental parser over bytes, so the tests
// drive it with canned byte streams split at arbitrary points.
#ifndef RDFBENCH_HTTP_CLIENT_H_
#define RDFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rdfbench {

struct HttpResponse {
  int status = 0;
  /// Header names lower-cased, values trimmed, in arrival order.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// True when the connection must not be reused after this response.
  bool close = false;

  /// First header value by lower-case name, or "" when absent.
  std::string Header(std::string_view name) const;
};

/// Incremental parser for one HTTP/1.1 response at a time.
class ResponseParser {
 public:
  enum class State { kNeedMore, kDone, kError };

  /// Append bytes and advance. After kDone, Take() returns the response;
  /// bytes past its end stay buffered for the next response.
  State Feed(std::string_view bytes);
  /// The peer closed the connection: completes a close-delimited body,
  /// and is an error anywhere else mid-response.
  State FinishOnEof();
  /// Move out the completed response and reset for the next one.
  HttpResponse Take();

  const std::string& error() const { return error_; }
  /// Bytes received but not yet consumed by a completed response.
  size_t buffered() const { return buf_.size() - pos_; }
  /// True once any byte of the current response has arrived.
  bool started() const { return buf_.size() > pos_ || phase_ != Phase::kHead; }

 private:
  enum class Phase { kHead, kLength, kChunkSize, kChunkData, kChunkCrlf,
                     kTrailers, kUntilClose, kDone };

  State Advance();
  State Fail(std::string message);
  bool ParseHead(std::string_view head);

  std::string buf_;
  size_t pos_ = 0;  ///< parse cursor into buf_
  Phase phase_ = Phase::kHead;
  size_t remaining_ = 0;  ///< body or chunk bytes still to read
  HttpResponse response_;
  std::string error_;
};

/// Serialize a request. `body` non-empty adds Content-Length and the
/// given content type.
std::string BuildRequest(std::string_view method, std::string_view target,
                         std::string_view host, std::string_view body = {},
                         std::string_view content_type = {});

/// Nanosecond timestamps (steady clock) of one round trip's stages.
struct RoundTripTiming {
  int64_t start_ns = 0;
  int64_t connected_ns = 0;  ///< connection ready (opened or reused)
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool reused = false;
};

/// One client connection to host:port (IPv4 literal), reconnected on
/// demand. Not thread-safe: one per client thread.
class HttpConnection {
 public:
  HttpConnection(std::string host, uint16_t port, int timeout_ms = 10000);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Send `request` (from BuildRequest) and read the whole response.
  /// Returns false with `*error` set on a transport failure.
  bool RoundTrip(const std::string& request, HttpResponse* response,
                 std::string* error, RoundTripTiming* timing = nullptr);

  /// TCP connections opened so far.
  uint64_t connects() const { return connects_; }

 private:
  bool Connect(std::string* error);
  void Close();
  /// One attempt on the current connection. `*retryable` is set when it
  /// failed before any response byte arrived on a reused connection.
  bool Attempt(const std::string& request, HttpResponse* response,
               std::string* error, bool* retryable, RoundTripTiming* timing);

  std::string host_;
  uint16_t port_;
  int timeout_ms_;
  int fd_ = -1;
  uint64_t connects_ = 0;
  ResponseParser parser_;
};

/// Steady-clock nanoseconds.
int64_t NowNs();

}  // namespace rdfbench

#endif  // RDFBENCH_HTTP_CLIENT_H_
