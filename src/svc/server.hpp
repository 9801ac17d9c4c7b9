// lipsd transports: unix-domain socket listener and a stdio pipe mode.
//
// The transport layer's whole job is framing and lifecycle — it owns no
// protocol logic. Each accepted connection gets one reader thread that
// splits the byte stream into '\n'-terminated lines (bounded: a line that
// outgrows kMaxLineBytes is truncated at the cap — enough for handle_line
// to answer ERR line-too-long — and the overflow discarded, so a hostile
// client cannot balloon memory) and feeds Service::handle_line. Replies are
// written through a per-connection sink whose internal mutex makes each
// rendered reply one atomic write.
//
// Shutdown: request_stop() is async-signal-safe (one write(2) to a
// self-pipe) so lipsd's SIGTERM handler can call it directly. run() then
// stops accepting, shuts down every live connection socket (unblocking
// blocked readers), joins reader threads, and drains all sessions via
// Service::shutdown() — the clean-SIGTERM gate the CI sanitize lane holds.
//
// Thread role: run() is the accept loop (call from one thread); reader
// threads are internal; request_stop() may be called from any thread or a
// signal handler.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "svc/service.hpp"

namespace lips::svc {

class Server {
 public:
  /// Binds nothing yet; listen() does the socket work so construction is
  /// exception-light.
  explicit Server(Service& service);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Create + bind + listen on a unix socket at `path` (an existing socket
  /// file is replaced). Throws PreconditionError on any syscall failure.
  void listen_unix(const std::string& path);

  /// Accept loop; returns after request_stop(). Requires listen_unix().
  void run();

  /// Async-signal-safe stop request (a single write to the self-pipe).
  void request_stop();

  /// Serve one already-connected stream socket / pipe pair until EOF or
  /// QUIT, on the calling thread. `in_fd`/`out_fd` may be 0/1 (stdio mode)
  /// or the two ends of a socketpair (in-process tests).
  void serve_fd(int in_fd, int out_fd);

  [[nodiscard]] const std::string& socket_path() const { return path_; }

 private:
  void reader_loop(int fd);
  void track(int fd);
  void untrack(int fd);

  Service& service_;
  // Set once by listen_unix() before run() starts, then read-only: owned by
  // the accept thread, never touched by readers.
  std::string path_ LIPS_PER_THREAD;
  int listen_fd_ LIPS_PER_THREAD = -1;
  int stop_pipe_[2] = {-1, -1};

  lips::Mutex mu_;
  std::vector<int> conn_fds_ LIPS_GUARDED_BY(mu_);
  std::vector<std::thread> readers_ LIPS_GUARDED_BY(mu_);
};

}  // namespace lips::svc
