// Embedded HTTP/1.1 server for the live operations plane (DESIGN.md §16).
//
// One dedicated acceptor thread serves GET requests against a fixed
// route table; handlers run on that thread and are expected to produce
// small snapshot responses (a registry scrape, a health document), so the
// instrumented run never blocks on a client.  The server binds loopback
// only — this is an operator diagnostic port, not a public API — and
// supports port 0 (ephemeral) so tests can run in parallel.
//
// Deliberately minimal: no keep-alive, no TLS, no request bodies.  A
// scrape client (Prometheus, curl) sends one GET and reads one response;
// everything else answers 404/405 and closes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

namespace senkf::net {

struct HttpRequest {
  std::string method;  ///< "GET", uppercased
  std::string path;    ///< path only, query string stripped
  std::string query;   ///< raw query string ("" when absent)
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// A route handler; runs on the server thread, must not throw (a throw
/// is converted to a 500 with the exception message).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers `handler` for exact-match `path`.  Must be called before
  /// start(); later registrations race the acceptor thread.
  void add_route(std::string path, HttpHandler handler);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned) and launches the
  /// acceptor thread.  Throws support-free std::runtime_error on bind
  /// failure (the caller decides whether a busy port is fatal).
  void start(std::uint16_t port);

  /// Stops the acceptor and joins its thread; idempotent and safe to
  /// call from atexit (no locks held while joining).
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual bound port (resolves port 0); 0 when not started.
  std::uint16_t port() const { return port_; }

 private:
  void serve();
  void handle_connection(int client_fd);

  std::map<std::string, HttpHandler> routes_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe that unblocks the acceptor
  std::uint16_t port_ = 0;
};

/// Blocking one-shot GET against 127.0.0.1:`port` — the test/CI client
/// half of the server above.  Returns the raw response body and fills
/// `status`; throws std::runtime_error on connect/read failure.
std::string http_get(std::uint16_t port, const std::string& path,
                     int* status = nullptr);

}  // namespace senkf::net
