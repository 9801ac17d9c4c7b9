// lipsd — the long-running LiPS co-scheduler service (DESIGN.md §14).
//
// This file is deliberately a thin shell: every decision that can be made
// in a pure function lives in svc::parse_daemon_args (strict flags, exit
// 64 on anything unknown) and the svc library (protocol, sessions,
// transports). All main() adds is process plumbing — signal handlers,
// stderr, exit codes.
//
// Usage:
//   lipsd --socket /tmp/lipsd.sock [--snapshot-dir DIR] [--queue-capacity N]
//   lipsd --stdio                  # one session over stdin/stdout
//   lipsd --version | --help
#include <csignal>
#include <cstdlib>
#include <iostream>

#include "common/build_info.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/daemon.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

// The SIGTERM/SIGINT handler may only touch async-signal-safe state;
// Server::request_stop() is one write(2) to a self-pipe, which qualifies.
lips::svc::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  using lips::svc::DaemonArgs;
  const DaemonArgs args =
      lips::svc::parse_daemon_args({argv + 1, argv + argc});

  switch (args.mode) {
    case DaemonArgs::Mode::Version:
      std::cout << lips::version_line() << "\n";
      return 0;
    case DaemonArgs::Mode::Help:
      std::cout << lips::svc::daemon_usage();
      return 0;
    case DaemonArgs::Mode::Error:
      std::cerr << "lipsd: " << args.error << "\n"
                << lips::svc::daemon_usage();
      return 64;  // EX_USAGE
    case DaemonArgs::Mode::Serve:
      break;
  }

  lips::obs::MetricRegistry metrics;
  lips::obs::Tracer tracer;
  lips::svc::ServiceOptions options;
  options.queue_capacity = args.queue_capacity;
  options.snapshot_root = args.snapshot_dir;
  options.metrics = &metrics;
  options.tracer = &tracer;
  lips::svc::Service service(options);
  lips::svc::Server server(service);

  if (args.stdio) {
    // Single-connection mode: serve stdin/stdout on this thread until EOF
    // or QUIT. No listener, no signal plumbing needed — closing stdin is
    // the shutdown protocol.
    server.serve_fd(0, 1);
    return 0;
  }

  g_server = &server;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a dying client must not kill the daemon

  try {
    server.listen_unix(args.socket_path);
  } catch (const std::exception& e) {
    std::cerr << "lipsd: " << lips::user_message(e) << "\n";
    return 1;
  }
  std::cerr << "lipsd: listening on " << server.socket_path() << "\n";
  server.run();
  std::cerr << "lipsd: clean shutdown\n";
  return 0;
}
