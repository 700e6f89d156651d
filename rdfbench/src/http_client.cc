#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace rdfbench {

namespace {

constexpr size_t kMaxHeadBytes = 64 * 1024;

std::string Lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// True when the comma-separated header value lists `token`.
bool HasToken(std::string_view value, std::string_view token) {
  const std::string lower = Lower(value);
  size_t start = 0;
  while (start <= lower.size()) {
    size_t end = lower.find(',', start);
    if (end == std::string::npos) end = lower.size();
    if (Trim(std::string_view(lower).substr(start, end - start)) == token) {
      return true;
    }
    start = end + 1;
  }
  return false;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string HttpResponse::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return "";
}

// ---- ResponseParser --------------------------------------------------------

ResponseParser::State ResponseParser::Fail(std::string message) {
  error_ = std::move(message);
  return State::kError;
}

bool ResponseParser::ParseHead(std::string_view head) {
  size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  if (status_line.substr(0, 5) != "HTTP/" || status_line.size() < 12 ||
      status_line[8] != ' ') {
    error_ = "malformed status line";
    return false;
  }
  int status = 0;
  for (size_t i = 9; i < 12; ++i) {
    if (status_line[i] < '0' || status_line[i] > '9') {
      error_ = "malformed status code";
      return false;
    }
    status = status * 10 + (status_line[i] - '0');
  }
  response_.status = status;
  response_.headers.clear();
  while (line_end != std::string_view::npos && line_end + 2 < head.size()) {
    const size_t start = line_end + 2;
    line_end = head.find("\r\n", start);
    std::string_view line = head.substr(
        start, line_end == std::string_view::npos ? std::string_view::npos
                                                  : line_end - start);
    if (line.empty()) break;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      error_ = "malformed header line";
      return false;
    }
    response_.headers.emplace_back(Lower(Trim(line.substr(0, colon))),
                                   std::string(Trim(line.substr(colon + 1))));
  }
  response_.close = HasToken(response_.Header("connection"), "close");
  return true;
}

ResponseParser::State ResponseParser::Feed(std::string_view bytes) {
  buf_.append(bytes);
  return Advance();
}

ResponseParser::State ResponseParser::FinishOnEof() {
  State state = Advance();
  if (state != State::kNeedMore) return state;
  if (phase_ == Phase::kUntilClose) {
    phase_ = Phase::kDone;
    return State::kDone;
  }
  return Fail(started() ? "connection closed mid-response"
                        : "connection closed before a response");
}

HttpResponse ResponseParser::Take() {
  HttpResponse out = std::move(response_);
  response_ = HttpResponse{};
  phase_ = Phase::kHead;
  buf_.erase(0, pos_);
  pos_ = 0;
  return out;
}

ResponseParser::State ResponseParser::Advance() {
  for (;;) {
    const std::string_view avail = std::string_view(buf_).substr(pos_);
    switch (phase_) {
      case Phase::kDone:
        return State::kDone;
      case Phase::kHead: {
        const size_t end = avail.find("\r\n\r\n");
        if (end == std::string_view::npos) {
          if (avail.size() > kMaxHeadBytes) return Fail("response head too large");
          return State::kNeedMore;
        }
        if (!ParseHead(avail.substr(0, end + 2))) return State::kError;
        pos_ += end + 4;
        if (HasToken(response_.Header("transfer-encoding"), "chunked")) {
          phase_ = Phase::kChunkSize;
          continue;
        }
        const std::string length = response_.Header("content-length");
        if (!length.empty()) {
          char* end_ptr = nullptr;
          errno = 0;
          const unsigned long long n =
              std::strtoull(length.c_str(), &end_ptr, 10);
          if (errno != 0 || end_ptr == length.c_str() || *end_ptr != '\0') {
            return Fail("malformed Content-Length");
          }
          remaining_ = static_cast<size_t>(n);
          phase_ = Phase::kLength;
          continue;
        }
        response_.close = true;
        phase_ = Phase::kUntilClose;
        continue;
      }
      case Phase::kLength:
      case Phase::kChunkData: {
        const size_t take = std::min(remaining_, avail.size());
        response_.body.append(avail.substr(0, take));
        pos_ += take;
        remaining_ -= take;
        if (remaining_ > 0) return State::kNeedMore;
        phase_ = phase_ == Phase::kLength ? Phase::kDone : Phase::kChunkCrlf;
        continue;
      }
      case Phase::kChunkSize: {
        const size_t end = avail.find("\r\n");
        if (end == std::string_view::npos) return State::kNeedMore;
        std::string_view size_text = avail.substr(0, end);
        size_text = Trim(size_text.substr(0, size_text.find(';')));
        if (size_text.empty() || size_text.size() > 15) {
          return Fail("malformed chunk size");
        }
        size_t size = 0;
        for (char c : size_text) {
          int digit = -1;
          if (c >= '0' && c <= '9') digit = c - '0';
          if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
          if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
          if (digit < 0) return Fail("malformed chunk size");
          size = size * 16 + static_cast<size_t>(digit);
        }
        pos_ += end + 2;
        remaining_ = size;
        phase_ = size == 0 ? Phase::kTrailers : Phase::kChunkData;
        continue;
      }
      case Phase::kChunkCrlf:
        if (avail.size() < 2) return State::kNeedMore;
        if (avail.substr(0, 2) != "\r\n") return Fail("missing chunk CRLF");
        pos_ += 2;
        phase_ = Phase::kChunkSize;
        continue;
      case Phase::kTrailers: {
        const size_t end = avail.find("\r\n");
        if (end == std::string_view::npos) return State::kNeedMore;
        pos_ += end + 2;
        if (end == 0) phase_ = Phase::kDone;  // blank line ends trailers
        continue;
      }
      case Phase::kUntilClose:
        response_.body.append(avail);
        pos_ = buf_.size();
        return State::kNeedMore;
    }
  }
}

// ---- Requests ---------------------------------------------------------------

std::string BuildRequest(std::string_view method, std::string_view target,
                         std::string_view host, std::string_view body,
                         std::string_view content_type) {
  std::string out;
  out.reserve(128 + target.size() + body.size());
  out.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  out.append("Host: ").append(host).append("\r\n");
  if (!body.empty() || method == "POST") {
    if (!content_type.empty()) {
      out.append("Content-Type: ").append(content_type).append("\r\n");
    }
    out.append("Content-Length: ").append(std::to_string(body.size()));
    out.append("\r\n");
  }
  out.append("\r\n").append(body);
  return out;
}

// ---- HttpConnection ----------------------------------------------------------

HttpConnection::HttpConnection(std::string host, uint16_t port,
                               int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  parser_ = ResponseParser{};
}

bool HttpConnection::Connect(std::string* error) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (timeout_ms_ > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms_ / 1000;
    tv.tv_usec = (timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    *error = "bad IPv4 address " + host_;
    return false;
  }
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  ++connects_;
  return true;
}

bool HttpConnection::Attempt(const std::string& request,
                             HttpResponse* response, std::string* error,
                             bool* retryable, RoundTripTiming* timing) {
  *retryable = false;
  const bool reused = fd_ >= 0;
  if (reused && parser_.buffered() > 0) {
    // Bytes nobody asked for: the connection's framing is lost.
    Close();
  }
  timing->reused = fd_ >= 0;
  if (fd_ < 0 && !Connect(error)) return false;
  timing->connected_ns = NowNs();
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      *retryable = timing->reused;
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  timing->sent_ns = NowNs();
  char buf[64 * 1024];
  ResponseParser::State state = ResponseParser::State::kNeedMore;
  while (state == ResponseParser::State::kNeedMore) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      state = parser_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    } else if (n == 0) {
      const bool started = parser_.started();
      state = parser_.FinishOnEof();
      if (state == ResponseParser::State::kError) {
        *retryable = timing->reused && !started;
      }
    } else if (errno == EINTR) {
      continue;
    } else {
      *error = std::string("recv: ") + std::strerror(errno);
      *retryable = timing->reused && !parser_.started();
      Close();
      return false;
    }
  }
  if (state == ResponseParser::State::kError) {
    *error = parser_.error();
    Close();
    return false;
  }
  *response = parser_.Take();
  timing->done_ns = NowNs();
  if (response->close) Close();
  return true;
}

bool HttpConnection::RoundTrip(const std::string& request,
                               HttpResponse* response, std::string* error,
                               RoundTripTiming* timing) {
  RoundTripTiming local;
  RoundTripTiming* t = timing != nullptr ? timing : &local;
  t->start_ns = NowNs();
  bool retryable = false;
  if (Attempt(request, response, error, &retryable, t)) return true;
  if (!retryable) return false;
  return Attempt(request, response, error, &retryable, t);
}

}  // namespace rdfbench
