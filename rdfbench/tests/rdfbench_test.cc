// Tests of the benchmark's own machinery: the HTTP client against canned
// byte streams, the percentile rule, the traced-run span identity and
// the result fingerprints.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus.h"
#include "http_client.h"
#include "span_trace.h"
#include "stats.h"

namespace rdfbench {
namespace {

// ---- ResponseParser ------------------------------------------------------------

/// Feed `stream` in pieces of `step` bytes; collect complete responses.
std::vector<HttpResponse> ParseAll(const std::string& stream, size_t step,
                                   bool eof, bool* error = nullptr) {
  ResponseParser parser;
  std::vector<HttpResponse> out;
  size_t pos = 0;
  bool failed = false;
  while (pos < stream.size() && !failed) {
    const size_t n = std::min(step, stream.size() - pos);
    ResponseParser::State state =
        parser.Feed(std::string_view(stream).substr(pos, n));
    pos += n;
    while (state == ResponseParser::State::kDone) {
      out.push_back(parser.Take());
      state = parser.Feed("");
    }
    failed = state == ResponseParser::State::kError;
  }
  if (eof && !failed) {
    ResponseParser::State state = parser.FinishOnEof();
    if (state == ResponseParser::State::kDone) out.push_back(parser.Take());
    failed = state == ResponseParser::State::kError;
  }
  if (error != nullptr) *error = failed;
  return out;
}

const char kKeepAlive[] =
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    "Content-Length: 5\r\n\r\nhello"
    "HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nno!";

const char kChunked[] =
    "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    "4\r\nWiki\r\n5;ext=1\r\npedia\r\nE\r\n in\r\n\r\nchunks.\r\n"
    "0\r\nX-Trailer: t\r\n\r\n";

const char kClose[] =
    "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Type: text/plain\r\n"
    "\r\nbody until the peer closes";

TEST(ResponseParserTest, KeepAliveContentLengthAtEverySplit) {
  const std::string stream = kKeepAlive;
  for (size_t step = 1; step <= stream.size(); ++step) {
    bool error = false;
    std::vector<HttpResponse> got = ParseAll(stream, step, false, &error);
    ASSERT_FALSE(error) << "step " << step;
    ASSERT_EQ(got.size(), 2u) << "step " << step;
    EXPECT_EQ(got[0].status, 200);
    EXPECT_EQ(got[0].body, "hello");
    EXPECT_FALSE(got[0].close);
    EXPECT_EQ(got[0].Header("content-type"), "application/json");
    EXPECT_EQ(got[1].status, 404);
    EXPECT_EQ(got[1].body, "no!");
  }
}

TEST(ResponseParserTest, ChunkedBodyWithExtensionsAndTrailers) {
  const std::string stream = kChunked;
  for (size_t step = 1; step <= stream.size(); ++step) {
    std::vector<HttpResponse> got = ParseAll(stream, step, false);
    ASSERT_EQ(got.size(), 1u) << "step " << step;
    EXPECT_EQ(got[0].body, "Wikipedia in\r\n\r\nchunks.");
    EXPECT_FALSE(got[0].close);
  }
}

TEST(ResponseParserTest, CloseDelimitedBodyEndsAtEof) {
  std::vector<HttpResponse> got = ParseAll(kClose, 7, true);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].body, "body until the peer closes");
  EXPECT_TRUE(got[0].close);
}

TEST(ResponseParserTest, ConnectionCloseWithLength) {
  std::vector<HttpResponse> got = ParseAll(
      "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok", 3,
      false);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].close);
  EXPECT_EQ(got[0].body, "ok");
}

TEST(ResponseParserTest, TruncatedBodyIsAnError) {
  bool error = false;
  std::vector<HttpResponse> got = ParseAll(
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", 4, true, &error);
  EXPECT_TRUE(error);
  EXPECT_TRUE(got.empty());
  got = ParseAll("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
                 4, false, &error);
  EXPECT_TRUE(error);
}

// ---- HttpConnection over a canned server ----------------------------------------

/// A one-shot loopback server: accepts connections and, for each, reads
/// one request head per canned response and writes that response; closes
/// the connection after the responses listed for it.
class CannedServer {
 public:
  explicit CannedServer(std::vector<std::vector<std::string>> per_connection)
      : per_connection_(std::move(per_connection)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~CannedServer() {
    thread_.join();
    ::close(fd_);
  }
  CannedServer(const CannedServer&) = delete;
  CannedServer& operator=(const CannedServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    for (const std::vector<std::string>& responses : per_connection_) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string pending;
      for (const std::string& response : responses) {
        while (pending.find("\r\n\r\n") == std::string::npos) {
          char buf[4096];
          const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
          if (n <= 0) break;
          pending.append(buf, static_cast<size_t>(n));
        }
        const size_t end = pending.find("\r\n\r\n");
        if (end == std::string::npos) break;
        pending.erase(0, end + 4);
        // Write in two pieces so the client sees a split response.
        const size_t half = response.size() / 2;
        ::send(conn, response.data(), half, MSG_NOSIGNAL);
        ::send(conn, response.data() + half, response.size() - half,
               MSG_NOSIGNAL);
      }
      ::shutdown(conn, SHUT_WR);
      ::close(conn);
    }
  }

  std::vector<std::vector<std::string>> per_connection_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(HttpConnectionTest, ReusesKeepAliveAndReconnectsAfterClose) {
  const std::string keep = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na";
  const std::string chunked =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nb\r\n0\r\n\r\n";
  const std::string close =
      "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 1\r\n\r\nc";
  const std::string eof = "HTTP/1.1 200 OK\r\n\r\nd";
  CannedServer server({{keep, chunked, close}, {eof}});
  HttpConnection conn("127.0.0.1", server.port(), 5000);
  const std::string request = BuildRequest("GET", "/x", "127.0.0.1");
  std::string bodies;
  std::vector<bool> reused;
  for (int i = 0; i < 4; ++i) {
    HttpResponse response;
    std::string error;
    RoundTripTiming timing;
    ASSERT_TRUE(conn.RoundTrip(request, &response, &error, &timing)) << error;
    EXPECT_EQ(response.status, 200);
    bodies += response.body;
    reused.push_back(timing.reused);
  }
  EXPECT_EQ(bodies, "abcd");
  EXPECT_EQ(conn.connects(), 2u);
  EXPECT_EQ(reused, (std::vector<bool>{false, true, true, false}));
}

TEST(HttpConnectionTest, RetriesOnceWhenAReusedConnectionWasClosed) {
  const std::string keep = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na";
  // The first connection closes after one keep-alive response, without
  // saying so; the client must reconnect and resend.
  CannedServer server({{keep}, {keep}});
  HttpConnection conn("127.0.0.1", server.port(), 5000);
  const std::string request = BuildRequest("GET", "/x", "127.0.0.1");
  for (int i = 0; i < 2; ++i) {
    HttpResponse response;
    std::string error;
    ASSERT_TRUE(conn.RoundTrip(request, &response, &error)) << error;
    EXPECT_EQ(response.body, "a");
  }
  EXPECT_EQ(conn.connects(), 2u);
}

TEST(BuildRequestTest, PostCarriesLength) {
  EXPECT_EQ(BuildRequest("POST", "/insert?model=m", "h", "abc", "text/plain"),
            "POST /insert?model=m HTTP/1.1\r\nHost: h\r\n"
            "Content-Type: text/plain\r\nContent-Length: 3\r\n\r\nabc");
  EXPECT_EQ(BuildRequest("GET", "/q", "h"), "GET /q HTTP/1.1\r\nHost: h\r\n\r\n");
}

// ---- Percentile rule --------------------------------------------------------------

TEST(StatsTest, TenSamplesBeyondTheReportedPercentile) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_TRUE(Supports(100, 90));
  EXPECT_FALSE(Supports(99, 90));
  EXPECT_FALSE(Supports(999, 99));
  EXPECT_TRUE(Supports(1000, 99));
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(21), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(StatsTest, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50.0);
  EXPECT_EQ(Percentile(v, 90), 90.0);
  EXPECT_EQ(Percentile(v, 99), 99.0);
  EXPECT_EQ(Percentile(v, 100), 100.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
}

// ---- Span identity -----------------------------------------------------------------

TEST(SpanTraceTest, SelfTimesAccountForTheParent) {
  SpanTrace trace;
  const int64_t root = trace.Add("apply", 0, 1000000, -1, 7);
  trace.Add("writer_wait", 0, 100000, root, 7);
  trace.Add("insert", 100000, 700000, root, 7);
  trace.Add("publish", 700000, 1000000, root, 7);
  const std::vector<int64_t> self = trace.SelfTimes();
  EXPECT_EQ(self[0], 0);
  EXPECT_EQ(self[1] + self[2] + self[3], 1000000);
  EXPECT_EQ(trace.CheckIdentity(), 0u);
}

TEST(SpanTraceTest, DetectsGapsOverlapsAndEscapes) {
  SpanTrace gap;  // children cover only half of the parent
  int64_t root = gap.Add("root", 0, 1000000, -1, 1);
  gap.Add("a", 0, 500000, root, 1);
  std::string first;
  EXPECT_EQ(gap.CheckIdentity(&first), 1u);
  EXPECT_NE(first.find("not accounted"), std::string::npos);

  SpanTrace slack;  // within share + slack
  root = slack.Add("root", 0, 1000000, -1, 1);
  slack.Add("a", 10000, 990000, root, 1);
  EXPECT_EQ(slack.CheckIdentity(), 0u);

  SpanTrace overlap;
  root = overlap.Add("root", 0, 100, -1, 1);
  overlap.Add("a", 0, 60, root, 1);
  overlap.Add("b", 50, 100, root, 1);
  EXPECT_EQ(overlap.CheckIdentity(&first), 1u);
  EXPECT_NE(first.find("overlap"), std::string::npos);

  SpanTrace escape;
  root = escape.Add("root", 0, 100, -1, 1);
  escape.Add("a", 50, 150, root, 1);
  EXPECT_EQ(escape.CheckIdentity(&first), 1u);
  EXPECT_NE(first.find("outside"), std::string::npos);
}

TEST(SpanTraceTest, MergeRemapsParents) {
  SpanTrace a;
  a.Add("x", 0, 10, -1, 1);
  SpanTrace b;
  const int64_t root = b.Add("root", 0, 10, -1, 2);
  b.Add("child", 0, 10, root, 2);
  a.Merge(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(a.SelfTimes(), (std::vector<int64_t>{10, 0, 10}));
  EXPECT_EQ(a.CheckIdentity(), 0u);
}

// ---- Result fingerprints -----------------------------------------------------------

TEST(FingerprintTest, OrderIndependentAndBlankInsensitive) {
  const std::string a =
      "{\"columns\": [\"p\", \"o\"], \"rows\": [[\"<http://x/p>\", "
      "\"\\\"v \\\\\\\"q\\\\\\\"\\\"@en\"], [\"<http://x/q>\", \"_:b12\"]], "
      "\"row_count\": 2, \"stats\": {}}";
  const std::string b =
      "{\"columns\": [\"p\", \"o\"], \"rows\": [[\"<http://x/q>\", "
      "\"_:other\"], [\"<http://x/p>\", \"\\\"v \\\\\\\"q\\\\\\\"\\\"@en\"]], "
      "\"row_count\": 2}";
  Fingerprint fa, fb;
  ASSERT_TRUE(FingerprintBody(a, &fa));
  ASSERT_TRUE(FingerprintBody(b, &fb));
  EXPECT_EQ(fa.rows, 2u);
  EXPECT_TRUE(fa == fb);

  std::vector<std::string> seen;
  Fingerprint fc;
  ASSERT_TRUE(FingerprintBody(a, &fc, [&](const std::vector<std::string>& cells) {
    seen.push_back(cells[1]);
    return true;
  }));
  EXPECT_EQ(seen[0], "\"v \\\"q\\\"\"@en");
  EXPECT_EQ(seen[1], "_:");
  EXPECT_FALSE(FingerprintBody(a, &fc, [](const std::vector<std::string>&) {
    return false;
  }));
  EXPECT_FALSE(FingerprintBody("{\"rows\": [[\"unterminated", &fc));
}

TEST(FingerprintTest, InsertBodyMatchesItsLookupRows) {
  Fingerprint expected;
  const std::string body = InsertBody("urn:x:s", 5, 3, &expected);
  EXPECT_EQ(expected.rows, 3u);
  EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 3);
  EXPECT_EQ(body.rfind("<urn:x:s> ", 0), 0u);
}

}  // namespace
}  // namespace rdfbench
