// axdse-serve — the exploration-as-a-service daemon. Binds the loopback
// port (--port=0 asks for an ephemeral one and prints it), restores any
// backlog from --state-dir, and serves the axdse-serve-v1 line protocol
// until SIGTERM/SIGINT or a client SHUTDOWN; either path drains gracefully:
// in-flight jobs suspend through the checkpoint subsystem and a restart on
// the same state directory finishes them with byte-identical results.
//
// Usage:
//   axdse-serve --state-dir DIR [--port N] [--job-workers N]
//               [--engine-workers N] [--progress-interval N]
//               [--chunk-cells N] [--max-queued-per-tenant N]
//               [--max-queued N] [--daemon-cache=0|1]

#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void HandleSignal(int) { g_signal = 1; }

void PrintUsage() {
  std::puts(
      "axdse-serve --state-dir DIR [--port N] [--job-workers N]\n"
      "            [--engine-workers N] [--progress-interval N]\n"
      "            [--chunk-cells N] [--max-queued-per-tenant N]\n"
      "            [--max-queued N] [--daemon-cache=0|1]\n"
      "\n"
      "Binds 127.0.0.1:PORT (--port=0 = ephemeral, printed on stdout) and\n"
      "serves the axdse-serve-v1 protocol. SIGTERM/SIGINT or a client\n"
      "SHUTDOWN drains: in-flight jobs suspend into DIR and resume on the\n"
      "next start.");
}

}  // namespace

int main(int argc, char** argv) {
  const axdse::util::CliArgs args(argc, argv);
  if (args.Has("help")) {
    PrintUsage();
    return 0;
  }
  try {
    axdse::serve::ServerOptions options;
    options.port = static_cast<int>(args.GetIntStrict("port", 4711));
    options.state_dir = args.GetString("state-dir", "");
    options.job_workers = args.GetCountStrict("job-workers", 2);
    options.engine_workers = args.GetCountStrict("engine-workers", 0);
    options.progress_interval = args.GetCountStrict("progress-interval", 512);
    options.chunk_cells = args.GetCountStrict("chunk-cells", 4);
    options.limits.per_tenant =
        args.GetCountStrict("max-queued-per-tenant", 8);
    options.limits.total = args.GetCountStrict("max-queued", 64);
    options.daemon_cache = args.GetBool("daemon-cache", true);
    if (options.state_dir.empty()) {
      std::fprintf(stderr, "axdse-serve: --state-dir is required\n");
      PrintUsage();
      return 2;
    }

    axdse::serve::Server server(std::move(options));
    server.Start();
    // The port line is the startup contract: scripts parse it to find an
    // ephemeral port, and its presence means the backlog is requeued and
    // the listener is live.
    std::printf("axdse-serve listening on port %d\n", server.Port());
    std::fflush(stdout);

    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    while (g_signal == 0 && !server.ShutdownRequested())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::printf("axdse-serve draining (%s)\n",
                g_signal != 0 ? "signal" : "shutdown command");
    std::fflush(stdout);
    server.Stop();
    std::printf("axdse-serve stopped\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axdse-serve: %s\n", e.what());
    return 1;
  }
}
