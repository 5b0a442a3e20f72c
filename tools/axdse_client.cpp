// axdse-client — command-line client for axdse-serve.
//
// Usage:
//   axdse-client --port N [--host H] [--tenant T]
//                [--connect-retries R] [--connect-backoff-ms B]
//                <command> [args...]
//
// --connect-retries R retries a refused/dropped connection up to R extra
// times with exponential backoff starting at --connect-backoff-ms B
// (default 50) plus jitter — for scripts that start the daemon and connect
// immediately.
//
// Commands:
//   ping                         round-trip check
//   submit <request tokens...>   submit an ExplorationRequest; prints job id
//   submit-campaign <tokens...>  submit a CampaignSpec; prints job id
//   status <id>                  print the job's status line
//   wait <id>                    block until the job settles; print state
//   watch <id>                   stream the job's events until it settles
//   results <id>                 print the job's result JSON document
//   run <request tokens...>      submit + watch + print results (one-shot)
//   cancel <id>                  cancel a queued or running job
//   stats                        print daemon statistics
//   shutdown                     ask the daemon to drain and exit
//
// Request/spec tokens are the key=value grammar of
// ExplorationRequest::ToString / CampaignSpec::ToString, e.g.:
//   axdse-client --port 4711 run kernel=matmul@8 steps=500 seeds=2

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "util/cli.hpp"

namespace {

std::string JoinTokens(const std::vector<std::string>& positional,
                       std::size_t begin) {
  std::string joined;
  for (std::size_t i = begin; i < positional.size(); ++i) {
    if (!joined.empty()) joined += " ";
    joined += positional[i];
  }
  return joined;
}

void PrintEvent(const std::string& payload) {
  std::printf("EVENT %s\n", payload.c_str());
  std::fflush(stdout);
}

int Fail(const char* message) {
  std::fprintf(stderr, "axdse-client: %s\n", message);
  return 2;
}

// The server writes a job's terminal event before WAIT's OK, so a WAIT that
// returned without the event means the stream was truncated (watcher evicted
// or daemon died mid-stream) — never report a clean exit for it.
int FailTruncated(const axdse::serve::Client& client, std::uint64_t job_id) {
  std::string message = "axdse-client: event stream truncated before job " +
                        std::to_string(job_id) + " settled";
  if (!client.LastEventError().empty())
    message += " (last server error: " + client.LastEventError() + ")";
  std::fprintf(stderr, "%s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const axdse::util::CliArgs args(argc, argv);
  const auto& positional = args.Positional();
  if (args.Has("help") || positional.empty()) {
    std::puts(
        "axdse-client --port N [--host H] [--tenant T] <command> [args...]\n"
        "commands: ping submit submit-campaign status wait watch results\n"
        "          run cancel stats shutdown");
    return positional.empty() && !args.Has("help") ? 2 : 0;
  }
  try {
    const std::string host = args.GetString("host", "127.0.0.1");
    const int port = static_cast<int>(args.GetIntStrict("port", 4711));
    axdse::serve::ConnectRetry retry;
    retry.retries = args.GetCountStrict("connect-retries", 0);
    retry.backoff_ms = args.GetCountStrict("connect-backoff-ms", 50);
    auto client = axdse::serve::Client::Connect(host, port, retry);
    const std::string& command = positional[0];
    if (const std::string tenant = args.GetString("tenant", "");
        !tenant.empty())
      client.SetTenant(tenant);

    if (command == "ping") {
      std::printf("%s\n", client.Command("PING").c_str());
    } else if (command == "submit" || command == "submit-campaign") {
      if (positional.size() < 2) return Fail("submit needs a job spec");
      const std::string verb =
          command == "submit" ? "SUBMIT" : "SUBMIT-CAMPAIGN";
      std::printf("%s\n",
                  client.Command(verb + " " + JoinTokens(positional, 1))
                      .c_str());
    } else if (command == "status") {
      if (positional.size() != 2) return Fail("status needs a job id");
      std::printf("%s\n",
                  client.Status(axdse::serve::ParseJobId(positional[1]))
                      .c_str());
    } else if (command == "wait") {
      if (positional.size() != 2) return Fail("wait needs a job id");
      const std::string state =
          client.WaitJob(axdse::serve::ParseJobId(positional[1]));
      std::printf("%s\n", state.c_str());
      return state == "done" ? 0 : 1;
    } else if (command == "watch") {
      if (positional.size() != 2) return Fail("watch needs a job id");
      const std::uint64_t id = axdse::serve::ParseJobId(positional[1]);
      client.OnEvent(PrintEvent);
      client.Watch(id);
      const std::string state = client.WaitJob(id);
      if (!client.SawTerminalEvent(id)) return FailTruncated(client, id);
      std::printf("%s\n", state.c_str());
      return state == "done" ? 0 : 1;
    } else if (command == "results") {
      if (positional.size() != 2) return Fail("results needs a job id");
      std::fputs(
          client.Results(axdse::serve::ParseJobId(positional[1])).c_str(),
          stdout);
    } else if (command == "run") {
      if (positional.size() < 2) return Fail("run needs a job spec");
      const std::string payload =
          client.Command("SUBMIT " + JoinTokens(positional, 1));
      const std::uint64_t id =
          axdse::serve::ParseJobId(payload.substr(payload.rfind(' ') + 1));
      std::fprintf(stderr, "job %llu\n",
                   static_cast<unsigned long long>(id));
      client.OnEvent([](const std::string& payload_line) {
        std::fprintf(stderr, "EVENT %s\n", payload_line.c_str());
      });
      client.Watch(id);
      const std::string state = client.WaitJob(id);
      if (!client.SawTerminalEvent(id)) return FailTruncated(client, id);
      if (state != "done") {
        std::fprintf(stderr, "axdse-client: job finished as '%s'\n",
                     state.c_str());
        return 1;
      }
      std::fputs(client.Results(id).c_str(), stdout);
    } else if (command == "cancel") {
      if (positional.size() != 2) return Fail("cancel needs a job id");
      client.Cancel(axdse::serve::ParseJobId(positional[1]));
      std::puts("cancelling");
    } else if (command == "stats") {
      std::printf("%s\n", client.Stats().c_str());
    } else if (command == "shutdown") {
      client.RequestShutdown();
      std::puts("shutting-down");
    } else {
      return Fail(("unknown command '" + command + "'").c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axdse-client: %s\n", e.what());
    return 1;
  }
}
