#include "server/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/json.hpp"

namespace qarch::server {

namespace {

/// Blocks until fd is readable (or writable) or timeout_seconds passed.
/// Returns true when the fd is ready.
bool wait_ready(int fd, bool for_write, double timeout_seconds) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = for_write ? POLLOUT : POLLIN;
  pfd.revents = 0;
  const int ms = timeout_seconds < 0.0
                     ? -1
                     : static_cast<int>(timeout_seconds * 1000.0 + 0.5);
  for (;;) {
    const int rc = ::poll(&pfd, 1, ms);
    if (rc > 0) return (pfd.revents & (pfd.events | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

/// Incremental line reader over a socket: buffers reads, hands back one
/// LF-terminated line at a time (CR stripped), and enforces a byte budget on
/// the whole header section.
class LineReader {
 public:
  LineReader(Socket& socket, const HttpLimits& limits)
      : socket_(socket), limits_(limits) {}

  /// Reads one header line. `first_line` distinguishes a clean EOF before
  /// any bytes (returns false) from a truncated request (throws).
  bool next_line(std::string& line, bool first_line) {
    line.clear();
    for (;;) {
      while (pos_ < buffer_.size()) {
        const char c = buffer_[pos_++];
        if (c == '\n') {
          if (!line.empty() && line.back() == '\r') line.pop_back();
          return true;
        }
        line.push_back(c);
        if (line.size() > limits_.max_header_bytes)
          throw HttpError(431, "header line too long");
      }
      if (!fill()) {
        if (first_line && line.empty() && consumed_ == 0) return false;
        throw HttpError(400, "connection closed mid-request");
      }
    }
  }

  /// Moves `n` body bytes into `out` (which already holds any bytes
  /// over-read past the headers).
  void read_body(std::string& out, std::size_t n) {
    out.append(buffer_, pos_, std::min(n - out.size(),
                                       buffer_.size() - pos_));
    pos_ = buffer_.size();
    while (out.size() < n) {
      char chunk[4096];
      const long got = socket_.recv_some(
          chunk, std::min(sizeof chunk, n - out.size()),
          limits_.read_timeout_seconds);
      if (got < 0) throw HttpError(408, "timed out reading request body");
      if (got == 0) throw HttpError(400, "connection closed mid-body");
      out.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  bool fill() {
    char chunk[4096];
    const long got =
        socket_.recv_some(chunk, sizeof chunk, limits_.read_timeout_seconds);
    if (got < 0) throw HttpError(408, "timed out reading request");
    if (got == 0) return false;
    // Compact the consumed prefix so the buffer stays small across
    // keep-alive requests.
    buffer_.erase(0, pos_);
    pos_ = 0;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    consumed_ += static_cast<std::size_t>(got);
    return true;
  }

  Socket& socket_;
  const HttpLimits& limits_;
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t consumed_ = 0;
};

/// Splits "path?a=1&b=2" into path + decoded query map. Values are used
/// verbatim (the protocol only passes integers and ticket ids — no
/// percent-decoding needed).
void split_target(const std::string& target, std::string& path,
                  std::map<std::string, std::string>& query) {
  const std::size_t qmark = target.find('?');
  path = target.substr(0, qmark);
  if (qmark == std::string::npos) return;
  std::size_t pos = qmark + 1;
  while (pos <= target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const std::string item = target.substr(pos, amp - pos);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos)
        query[item] = "";
      else
        query[item.substr(0, eq)] = item.substr(eq + 1);
    }
    pos = amp + 1;
  }
}

/// Parses the headers shared by requests and responses. Total section size
/// is bounded by max_header_bytes across all lines.
void read_headers(LineReader& reader,
                  std::map<std::string, std::string>& headers,
                  const HttpLimits& limits) {
  std::string line;
  std::size_t total = 0;
  for (;;) {
    reader.next_line(line, /*first_line=*/false);
    if (line.empty()) return;
    total += line.size();
    if (total > limits.max_header_bytes)
      throw HttpError(431, "header section too large");
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos)
      throw HttpError(400, "malformed header line");
    headers[lower(trim(line.substr(0, colon)))] = trim(line.substr(colon + 1));
  }
}

std::size_t parse_content_length(
    const std::map<std::string, std::string>& headers,
    const HttpLimits& limits, int over_limit_status) {
  const auto te = headers.find("transfer-encoding");
  if (te != headers.end() && lower(te->second) != "identity")
    throw HttpError(400, "transfer-encoding not supported");
  const auto it = headers.find("content-length");
  if (it == headers.end()) return 0;
  std::uint64_t n = 0;
  try {
    n = json::parse_u64(it->second, "content-length");
  } catch (const std::exception&) {
    throw HttpError(400, "malformed content-length");
  }
  if (n > limits.max_body_bytes)
    throw HttpError(over_limit_status, "body exceeds limit");
  return static_cast<std::size_t>(n);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const long rc = ::send(fd_, data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!wait_ready(fd_, /*for_write=*/true, 30.0)) return false;
        continue;
      }
      return false;
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

bool Socket::readable(double timeout_seconds) const {
  return wait_ready(fd_, /*for_write=*/false, timeout_seconds);
}

long Socket::recv_some(char* buf, std::size_t n, double timeout_seconds) {
  if (!wait_ready(fd_, /*for_write=*/false, timeout_seconds)) return -1;
  for (;;) {
    const long rc = ::recv(fd_, buf, n, 0);
    if (rc >= 0) return rc;
    if (errno == EINTR) continue;
    return -1;
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("listener: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string what =
        "listener: cannot bind 127.0.0.1:" + std::to_string(port) + ": " +
        std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw Error(what);
  }
  if (::listen(fd_, 128) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw Error("listener: listen() failed");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
      0)
    port_ = ntohs(addr.sin_port);
}

Socket TcpListener::accept(double timeout_seconds) {
  if (fd_ < 0) return Socket();
  if (!wait_ready(fd_, /*for_write=*/false, timeout_seconds)) return Socket();
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) return Socket();
  const int one = 1;
  ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(conn);
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket tcp_connect(const std::string& host, std::uint16_t port,
                   double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw Error("connect: socket() failed");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error("connect: bad address " + host);
  }
  // Non-blocking connect with a poll deadline, then back to blocking IO.
  // (A refused loopback connect fails immediately; the timeout matters for
  // a daemon mid-restart.)
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    throw Error("connect: " + host + ":" + std::to_string(port) + ": " +
                std::strerror(errno));
  }
  (void)timeout_seconds;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Socket(fd);
}

std::string HttpRequest::query_value(const std::string& key,
                                     const std::string& fallback) const {
  const auto it = query.find(key);
  return it == query.end() ? fallback : it->second;
}

bool read_http_request(Socket& socket, HttpRequest& out,
                       const HttpLimits& limits) {
  out = HttpRequest();
  LineReader reader(socket, limits);
  std::string line;
  if (!reader.next_line(line, /*first_line=*/true)) return false;
  // METHOD SP TARGET SP VERSION
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    throw HttpError(400, "malformed request line");
  out.method = line.substr(0, sp1);
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0)
    throw HttpError(400, "unsupported HTTP version");
  split_target(line.substr(sp1 + 1, sp2 - sp1 - 1), out.path, out.query);
  read_headers(reader, out.headers, limits);
  const std::size_t length =
      parse_content_length(out.headers, limits, /*over_limit_status=*/413);
  if (length > 0) reader.read_body(out.body, length);
  return true;
}

std::string serialize_response_head(const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_reason(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "\r\n";
  return head;
}

bool write_http_response(Socket& socket, const HttpResponse& response) {
  return socket.send_all(serialize_response_head(response)) &&
         socket.send_all(response.body);
}

bool write_http_request(Socket& socket, const std::string& method,
                        const std::string& target, const std::string& body,
                        const std::map<std::string, std::string>& headers) {
  std::string head = method + " " + target + " HTTP/1.1\r\n";
  head += "Host: qarchd\r\n";
  for (const auto& [key, value] : headers)
    head += key + ": " + value + "\r\n";
  if (!body.empty()) head += "Content-Type: application/json\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  head += "\r\n";
  return socket.send_all(head) && socket.send_all(body);
}

void read_http_response(Socket& socket, HttpResponse& out,
                        const HttpLimits& limits) {
  out = HttpResponse();
  LineReader reader(socket, limits);
  std::string line;
  try {
    if (!reader.next_line(line, /*first_line=*/true))
      throw HttpError(502, "connection closed before response");
    // HTTP/1.1 SP STATUS SP REASON
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos || line.rfind("HTTP/1.", 0) != 0)
      throw HttpError(502, "malformed status line");
    try {
      const std::size_t sp2 = line.find(' ', sp1 + 1);
      const std::uint64_t status = json::parse_u64(
          line.substr(sp1 + 1, sp2 - sp1 - 1), "status code");
      QARCH_REQUIRE(status >= 100 && status <= 999,
                    "status code out of range");
      out.status = static_cast<int>(status);
    } catch (const std::exception&) {
      throw HttpError(502, "malformed status code");
    }
    read_headers(reader, out.headers, limits);
    const std::size_t length =
        parse_content_length(out.headers, limits, /*over_limit_status=*/502);
    if (length > 0) reader.read_body(out.body, length);
  } catch (const HttpError&) {
    throw;
  } catch (const Error& e) {
    throw HttpError(502, std::string("bad response: ") + e.what());
  }
}

std::string status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

}  // namespace qarch::server
