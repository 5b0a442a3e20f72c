// axdse-serve daemon integration tests, run fully in-process against real
// TCP connections on ephemeral loopback ports. Covered here:
//
//  - startup contract: ephemeral port, HELLO banner, PING/STATS
//  - >= 2 concurrent clients submitting and completing jobs on one shared
//    Engine, with per-tenant isolation
//  - incremental result streaming: progress and state events over WATCH
//  - the headline drain invariant: a daemon SIGTERM'd mid-job (modeled by
//    Drain()) suspends the job through the checkpoint subsystem, and a
//    restarted daemon on the same state directory finishes it with final
//    result JSON byte-identical to an uninterrupted run — for a single
//    request and for a chunked campaign
//  - protocol robustness: malformed/unknown/oversized/truncated input is a
//    per-connection error that never touches other tenants' jobs
//  - admission control over the wire, cancellation (queued + cross-tenant
//    refusal), failed-job reporting, and daemon-wide shared-cache
//    warm-starting across jobs

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/test_support.hpp"
#include "dse/campaign.hpp"
#include "dse/request.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace axdse::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string FreshStateDir(const std::string& name) {
  return testsupport::FreshTempPath("serve-" + name);
}

ServerOptions TestOptions(const std::string& state_dir) {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.state_dir = state_dir;
  options.job_workers = 2;
  options.engine_workers = 2;
  options.progress_interval = 32;
  options.chunk_cells = 1;
  return options;
}

dse::ExplorationRequest QuickRequest(std::size_t steps = 200,
                                     std::size_t seeds = 1) {
  return testsupport::QuickMatmulRequest(steps, seeds);
}

/// A job long enough (hundreds of ms) that the test can reliably observe
/// it mid-run across several protocol round trips — the engine clears well
/// over a million steps per second on this kernel size.
dse::ExplorationRequest LongRequest() { return QuickRequest(300000, 2); }

/// "key=value" field out of a STATUS/STATS payload.
using testsupport::PayloadField;
constexpr auto Field = PayloadField;

/// Polls STATUS until the job reports at least `min_steps` environment
/// steps (i.e. it is genuinely mid-run). Fails the test on timeout.
void WaitForSteps(Client& client, std::uint64_t id, std::size_t min_steps) {
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string status = client.Status(id);
    const std::string steps = Field(status, "steps");
    if (!steps.empty() && std::stoull(steps) >= min_steps) return;
    std::this_thread::sleep_for(1ms);
  }
  FAIL() << "job " << id << " never reached " << min_steps << " steps";
}

// ---------------------------------------------------------------------------
// Startup contract
// ---------------------------------------------------------------------------

TEST(ServeServer, StartsOnEphemeralPortAndAnswersPing) {
  Server server(TestOptions(FreshStateDir("startup")));
  server.Start();
  ASSERT_GT(server.Port(), 0);  // port 0 resolved to a real port

  auto client = Client::Connect("127.0.0.1", server.Port());
  EXPECT_EQ(client.Command("PING"), "pong");
  const std::string stats = client.Stats();
  EXPECT_EQ(Field(stats, "jobs"), "0");
  EXPECT_EQ(Field(stats, "connections"), "1");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Concurrent multi-tenant clients on one shared engine
// ---------------------------------------------------------------------------

TEST(ServeServer, TwoConcurrentClientsRunJobsToCompletion) {
  Server server(TestOptions(FreshStateDir("concurrent")));
  server.Start();

  auto run_one = [&](const std::string& tenant, std::string& json_out) {
    auto client = Client::Connect("127.0.0.1", server.Port());
    client.SetTenant(tenant);
    const std::uint64_t id = client.Submit(QuickRequest(200, 1));
    EXPECT_EQ(client.WaitJob(id), "done");
    json_out = client.Results(id);
  };
  std::string json_a, json_b;
  std::thread client_a([&] { run_one("alice", json_a); });
  std::thread client_b([&] { run_one("bob", json_b); });
  client_a.join();
  client_b.join();

  // Identical requests, one shared engine: both tenants get the same
  // deterministic document.
  ASSERT_FALSE(json_a.empty());
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(json_a.rfind("{\"total_runs\":1", 0), 0u) << json_a;

  auto client = Client::Connect("127.0.0.1", server.Port());
  const std::string stats = client.Stats();
  EXPECT_EQ(Field(stats, "done"), "2");
  EXPECT_EQ(Field(stats, "tenants"), "2");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Incremental result streaming
// ---------------------------------------------------------------------------

TEST(ServeServer, WatchStreamsProgressAndStateEvents) {
  Server server(TestOptions(FreshStateDir("events")));
  server.Start();

  auto client = Client::Connect("127.0.0.1", server.Port());
  std::vector<std::string> events;
  client.OnEvent([&](const std::string& payload) {
    events.push_back(payload);
  });
  const std::uint64_t id = client.Submit(LongRequest());
  client.Watch(id);
  EXPECT_EQ(client.WaitJob(id), "done");

  bool saw_progress = false, saw_done = false;
  for (const std::string& event : events) {
    if (event.find("progress") != std::string::npos &&
        event.find("steps=") != std::string::npos &&
        event.find("reward=") != std::string::npos)
      saw_progress = true;
    if (event.find("state done") != std::string::npos) saw_done = true;
  }
  EXPECT_TRUE(saw_progress) << "no progress event among " << events.size();
  EXPECT_TRUE(saw_done);
  // The clean-exit detector: a complete stream marks the job settled.
  EXPECT_TRUE(client.SawTerminalEvent(id));
  server.Stop();
}

TEST(ServeServer, CampaignStreamsChunkAndParetoEvents) {
  Server server(TestOptions(FreshStateDir("campaign-events")));
  server.Start();

  dse::CampaignSpec spec;
  spec.kernels = {workloads::KernelSpec("matmul", 5),
                  workloads::KernelSpec("fir", 40)};
  spec.base = QuickRequest(50000, 1);
  auto client = Client::Connect("127.0.0.1", server.Port());
  std::vector<std::string> events;
  client.OnEvent([&](const std::string& payload) {
    events.push_back(payload);
  });
  const std::uint64_t id = client.SubmitCampaign(spec);
  client.Watch(id);
  EXPECT_EQ(client.WaitJob(id), "done");

  bool saw_chunk = false, saw_pareto = false;
  for (const std::string& event : events) {
    if (event.find("chunk index=") != std::string::npos) saw_chunk = true;
    if (event.find("pareto kernel=") != std::string::npos &&
        event.find("points=") != std::string::npos)
      saw_pareto = true;
  }
  EXPECT_TRUE(saw_chunk);
  EXPECT_TRUE(saw_pareto);

  const std::string status = client.Status(id);
  EXPECT_EQ(Field(status, "cells"), "2/2");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Drain / restart byte-identity (the headline invariant)
// ---------------------------------------------------------------------------

TEST(ServeServer, DrainAndRestartYieldByteIdenticalRequestResults) {
  const auto request = LongRequest();

  // Reference: the same job run uninterrupted on its own daemon.
  std::string uninterrupted;
  {
    Server server(TestOptions(FreshStateDir("drain-ref")));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    const std::uint64_t id = client.Submit(request);
    ASSERT_EQ(client.WaitJob(id), "done");
    uninterrupted = client.Results(id);
    server.Stop();
  }

  // Interrupted: drain the daemon mid-run, then restart on the same state
  // directory and let the job finish.
  const std::string state_dir = FreshStateDir("drain-resume");
  std::uint64_t id = 0;
  {
    Server server(TestOptions(state_dir));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    id = client.Submit(request);
    WaitForSteps(client, id, 1);  // genuinely mid-run
    server.Drain();               // the SIGTERM path
    EXPECT_EQ(Field(client.Status(id), "state"), "suspended");
    EXPECT_EQ(server.Stats().suspended, 1u);
    server.Stop();
  }
  {
    Server server(TestOptions(state_dir));
    server.Start();  // requeues the suspended job
    auto client = Client::Connect("127.0.0.1", server.Port());
    ASSERT_EQ(client.WaitJob(id), "done");
    const std::string resumed = client.Results(id);
    EXPECT_EQ(resumed, uninterrupted)
        << "drained-and-resumed result JSON must be byte-identical";
    server.Stop();
  }
}

TEST(ServeServer, DrainAndRestartYieldByteIdenticalCampaignResults) {
  dse::CampaignSpec spec;
  spec.kernels = {workloads::KernelSpec("matmul", 5),
                  workloads::KernelSpec("fir", 40)};
  spec.base = QuickRequest(50000, 1);

  std::string uninterrupted;
  {
    Server server(TestOptions(FreshStateDir("campaign-ref")));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    const std::uint64_t id = client.SubmitCampaign(spec);
    ASSERT_EQ(client.WaitJob(id), "done");
    uninterrupted = client.Results(id);
    server.Stop();
  }

  const std::string state_dir = FreshStateDir("campaign-resume");
  std::uint64_t id = 0;
  {
    Server server(TestOptions(state_dir));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    id = client.SubmitCampaign(spec);
    WaitForSteps(client, id, 1);
    server.Drain();
    EXPECT_EQ(Field(client.Status(id), "state"), "suspended");
    server.Stop();
  }
  {
    Server server(TestOptions(state_dir));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    ASSERT_EQ(client.WaitJob(id), "done");
    EXPECT_EQ(client.Results(id), uninterrupted)
        << "campaign JSON must survive drain/restart byte-identically";
    server.Stop();
  }
}

TEST(ServeServer, RestartRequeuesQueuedBacklog) {
  const std::string state_dir = FreshStateDir("backlog");
  std::uint64_t first = 0, second = 0;
  {
    ServerOptions options = TestOptions(state_dir);
    options.job_workers = 1;  // the second job must queue behind the first
    Server server(std::move(options));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    first = client.Submit(LongRequest());
    second = client.Submit(QuickRequest(150, 1));
    WaitForSteps(client, first, 1);
    EXPECT_EQ(Field(client.Status(second), "state"), "queued");
    server.Stop();  // drains: first suspends, second stays queued
  }
  {
    Server server(TestOptions(state_dir));
    server.Start();
    auto client = Client::Connect("127.0.0.1", server.Port());
    EXPECT_EQ(client.WaitJob(first), "done");
    EXPECT_EQ(client.WaitJob(second), "done");
    server.Stop();
  }
}

// ---------------------------------------------------------------------------
// Protocol robustness: errors stay per-connection
// ---------------------------------------------------------------------------

/// Raw-socket helper speaking the wire protocol without the Client's
/// discipline, for sending deliberately broken input.
struct RawClient {
  Socket socket;
  LineReader reader;

  explicit RawClient(int port)
      : socket(Socket::ConnectTcp("127.0.0.1", port)),
        reader(socket.Fd(), 1 << 16) {
    std::string banner;
    EXPECT_EQ(reader.ReadLine(banner), LineReader::Status::kLine);
  }

  std::string RoundTrip(const std::string& line) {
    EXPECT_TRUE(socket.SendAll(line + "\n"));
    std::string response;
    EXPECT_EQ(reader.ReadLine(response), LineReader::Status::kLine);
    return response;
  }
};

TEST(ServeServer, MalformedInputErrorsWithoutTouchingOtherTenantsJobs) {
  ServerOptions options = TestOptions(FreshStateDir("robust"));
  // Small enough to trip with a junk line, large enough for a legitimate
  // canonical SUBMIT line.
  options.max_line_bytes = 1024;
  Server server(std::move(options));
  server.Start();

  // Tenant "good" starts a real job first.
  auto good = Client::Connect("127.0.0.1", server.Port());
  good.SetTenant("good");
  const std::uint64_t id = good.Submit(QuickRequest(2000, 1));

  // A hostile connection throws everything at the daemon.
  {
    RawClient raw(server.Port());
    EXPECT_EQ(raw.RoundTrip("FROB").rfind("ERR unknown-command", 0), 0u);
    EXPECT_EQ(raw.RoundTrip("submit kernel=matmul").rfind("ERR bad-command", 0),
              0u);
    EXPECT_EQ(raw.RoundTrip("STATUS 999").rfind("ERR unknown-job", 0), 0u);
    EXPECT_EQ(raw.RoundTrip("STATUS abc").rfind("ERR bad-job-id", 0), 0u);
    EXPECT_EQ(raw.RoundTrip("SUBMIT garbage==").rfind("ERR bad-request", 0),
              0u);
    // A well-formed request asking for more seeds than a request may hold
    // is refused before any job exists.
    EXPECT_EQ(raw.RoundTrip("SUBMIT kernel=matmul@4 seeds=18446744073709551615")
                  .rfind("ERR bad-request", 0),
              0u);
    EXPECT_EQ(raw.RoundTrip("PING"), "OK pong");
    EXPECT_EQ(raw.RoundTrip("RESULTS").rfind("ERR bad-job-id", 0), 0u);
    // An oversized line is rejected and the stream resynchronizes.
    EXPECT_EQ(
        raw.RoundTrip("SUBMIT " + std::string(4000, 'x'))
            .rfind("ERR line-too-long", 0),
        0u);
    EXPECT_EQ(raw.RoundTrip("PING"), "OK pong");
    // Finally: vanish mid-line (no newline, then disconnect).
    EXPECT_TRUE(raw.socket.SendAll("STATU"));
  }  // ~RawClient closes the socket

  // None of that perturbed the other tenant's job.
  EXPECT_EQ(good.WaitJob(id), "done");
  EXPECT_NE(good.Results(id).find("\"total_steps\":2000"), std::string::npos);
  server.Stop();
}

TEST(ServeServer, FailedJobReportsErrorAndDaemonStaysUp) {
  Server server(TestOptions(FreshStateDir("failed-job")));
  server.Start();
  auto client = Client::Connect("127.0.0.1", server.Port());

  // A kernel name unknown to the registry parses fine but fails at run
  // time — the job must fail, not the daemon.
  const std::uint64_t bad = client.Submit(
      {.kernel = workloads::KernelSpec("no-such-kernel"), .max_steps = 50});
  EXPECT_EQ(client.WaitJob(bad), "failed");
  const std::string status = client.Status(bad);
  EXPECT_EQ(Field(status, "state"), "failed");
  EXPECT_FALSE(Field(status, "error").empty());
  EXPECT_THROW(client.Results(bad), ProtocolError);

  const std::uint64_t ok = client.Submit(QuickRequest(150, 1));
  EXPECT_EQ(client.WaitJob(ok), "done");
  server.Stop();
}

TEST(ServeServer, ClientDetectsTruncatedEventStreamAndKeepsLastError) {
  // Regression: a daemon dying mid-WATCH truncates the event stream, but the
  // client used to surface nothing actionable — and the CLI exited 0. The
  // Client must (a) throw ConnectionLostError carrying the last typed server
  // error it saw, and (b) never report the watched job as settled.
  //
  // Modeled with a fake daemon that speaks just enough protocol: it accepts
  // one connection, streams a progress event and a typed error event, then
  // drops dead before the terminal state event and before WAIT's OK.
  Listener listener = Listener::Bind(0);
  const int port = listener.Port();
  std::thread fake_daemon([&listener] {
    Socket conn = listener.Accept();
    ASSERT_TRUE(conn.Valid());
    LineReader reader(conn.Fd(), 1 << 16);
    ASSERT_TRUE(conn.SendAll(std::string("HELLO ") + kProtocolVersion + "\n"));
    std::string line;
    ASSERT_EQ(reader.ReadLine(line), LineReader::Status::kLine);  // WATCH 7
    ASSERT_TRUE(conn.SendAll("OK\n"));
    ASSERT_EQ(reader.ReadLine(line), LineReader::Status::kLine);  // WAIT 7
    ASSERT_TRUE(conn.SendAll(
        "EVENT 7 progress steps=64\n"
        "EVENT 7 state running error=engine%20worker%20crashed\n"));
    conn.Close();  // dead before "EVENT 7 state ..." terminal + "OK state ..."
  });

  auto client = Client::Connect("127.0.0.1", port);
  client.Watch(7);
  try {
    client.WaitJob(7);
    FAIL() << "expected ConnectionLostError";
  } catch (const ConnectionLostError& error) {
    EXPECT_EQ(error.LastServerError(), "engine worker crashed");
    EXPECT_NE(std::string(error.what())
                  .find("last server error: engine worker crashed"),
              std::string::npos)
        << error.what();
  }
  // The stream never delivered job 7's terminal event: not settled.
  EXPECT_FALSE(client.SawTerminalEvent(7));
  fake_daemon.join();
}

// ---------------------------------------------------------------------------
// Admission control and cancellation over the wire
// ---------------------------------------------------------------------------

TEST(ServeServer, AdmissionBoundRejectsFloodPerTenant) {
  ServerOptions options = TestOptions(FreshStateDir("admission"));
  options.job_workers = 1;
  options.limits.per_tenant = 2;
  Server server(std::move(options));
  server.Start();

  auto client = Client::Connect("127.0.0.1", server.Port());
  client.SetTenant("flooder");
  // One job runs; two sit in the queue; the next is refused.
  const std::uint64_t running = client.Submit(LongRequest());
  WaitForSteps(client, running, 1);
  (void)client.Submit(QuickRequest(150, 1));
  (void)client.Submit(QuickRequest(150, 1));
  try {
    (void)client.Submit(QuickRequest(150, 1));
    FAIL() << "expected admission error";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.Code(), "admission");
  }
  // Another tenant is not affected by the flooder's bound.
  auto other = Client::Connect("127.0.0.1", server.Port());
  other.SetTenant("bystander");
  (void)other.Submit(QuickRequest(150, 1));
  server.Stop();
}

TEST(ServeServer, CancelQueuedJobAndRefuseCrossTenantCancel) {
  ServerOptions options = TestOptions(FreshStateDir("cancel"));
  options.job_workers = 1;
  Server server(std::move(options));
  server.Start();

  auto owner = Client::Connect("127.0.0.1", server.Port());
  owner.SetTenant("owner");
  const std::uint64_t running = owner.Submit(LongRequest());
  WaitForSteps(owner, running, 1);
  const std::uint64_t queued = owner.Submit(QuickRequest(150, 1));

  // Another tenant may not cancel the owner's job.
  auto outsider = Client::Connect("127.0.0.1", server.Port());
  outsider.SetTenant("outsider");
  try {
    outsider.Cancel(queued);
    FAIL() << "expected forbidden";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.Code(), "forbidden");
  }

  owner.Cancel(queued);  // queued job: cancelled immediately
  EXPECT_EQ(Field(owner.Status(queued), "state"), "cancelled");
  owner.Cancel(running);  // running job: suspends cooperatively, then dies
  EXPECT_EQ(owner.WaitJob(running), "cancelled");
  server.Stop();
}

// ---------------------------------------------------------------------------
// Daemon-wide shared-cache warm start
// ---------------------------------------------------------------------------

TEST(ServeServer, SharedCacheJobsWarmStartAcrossSubmissions) {
  Server server(TestOptions(FreshStateDir("warm-cache")));
  server.Start();
  auto client = Client::Connect("127.0.0.1", server.Port());

  const dse::ExplorationRequest request{
      .kernel = workloads::KernelSpec("matmul", 5),
      .max_steps = 400,
      .num_seeds = 1,
      .seed = 7,
      .cache_mode = dse::CacheMode::kShared};
  auto executed = [&](const std::string& json) {
    const std::string key = "\"total_executed_runs\":";
    const std::size_t pos = json.find(key);
    EXPECT_NE(pos, std::string::npos);
    return std::stoull(json.substr(pos + key.size()));
  };
  auto distinct = [&](const std::string& json) {
    const std::string key = "\"total_distinct_evaluations\":";
    const std::size_t pos = json.find(key);
    EXPECT_NE(pos, std::string::npos);
    return std::stoull(json.substr(pos + key.size()));
  };

  const std::uint64_t first = client.Submit(request);
  ASSERT_EQ(client.WaitJob(first), "done");
  const std::string json_first = client.Results(first);

  const std::uint64_t second = client.Submit(request);
  ASSERT_EQ(client.WaitJob(second), "done");
  const std::string json_second = client.Results(second);

  // Same kernel identity => the second job reuses the daemon-wide cache:
  // (almost) every configuration it visits was already measured by the
  // first job, so it executes far fewer fresh runs.
  EXPECT_EQ(executed(json_first), distinct(json_first));
  EXPECT_LT(executed(json_second), distinct(json_second));
  EXPECT_LT(executed(json_second), executed(json_first) / 2);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Misc protocol behaviors
// ---------------------------------------------------------------------------

TEST(ServeServer, ResultsBeforeCompletionIsATypedError) {
  ServerOptions options = TestOptions(FreshStateDir("not-done"));
  options.job_workers = 1;
  Server server(std::move(options));
  server.Start();
  auto client = Client::Connect("127.0.0.1", server.Port());
  const std::uint64_t id = client.Submit(LongRequest());
  try {
    (void)client.Results(id);
    FAIL() << "expected not-done";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.Code(), "not-done");
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Slow-consumer backpressure
// ---------------------------------------------------------------------------

// A WATCH subscriber that never reads must not wedge the daemon: once its
// socket buffer fills, the bounded event send (event_send_timeout_ms) times
// out, the connection is marked dead and evicted, and every job — including
// another tenant's — keeps running to completion.
TEST(ServeServer, StalledWatcherDoesNotWedgeOtherTenants) {
  ServerOptions options = TestOptions(FreshStateDir("slow-watch"));
  // One progress event per step makes the event stream (hundreds of
  // thousands of small lines) vastly exceed any socket buffer, forcing the
  // send path to actually hit the stalled connection.
  options.progress_interval = 1;
  options.event_send_timeout_ms = 200;
  Server server(std::move(options));
  server.Start();

  // The stalled subscriber: submits a long job, subscribes, then never
  // reads another byte.
  RawClient slow(server.Port());
  const std::string submitted =
      slow.RoundTrip("SUBMIT " + QuickRequest(300000, 1).ToString());
  ASSERT_EQ(submitted.rfind("OK job ", 0), 0u) << submitted;
  const std::uint64_t slow_id = ParseJobId(submitted.substr(7));
  ASSERT_EQ(slow.RoundTrip("WATCH " + WireUnsigned(slow_id)),
            "OK watching " + WireUnsigned(slow_id));
  // From here on `slow` stops reading; the daemon's event stream backs up
  // against its socket buffer.

  // A different tenant's job must be unaffected.
  auto other = Client::Connect("127.0.0.1", server.Port());
  other.SetTenant("busy-bee");
  const std::uint64_t other_id = other.Submit(QuickRequest(200, 1));
  EXPECT_EQ(other.WaitJob(other_id), "done");

  // And the watched job itself still runs to completion (its events are
  // dropped with the dead connection, not its work).
  auto observer = Client::Connect("127.0.0.1", server.Port());
  EXPECT_EQ(observer.WaitJob(slow_id), "done");
  EXPECT_FALSE(observer.Results(slow_id).empty());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Job manifest strictness: a daemon refuses to start on a manifest it
// cannot trust instead of guessing (and later overwriting a job).
// ---------------------------------------------------------------------------

constexpr const char* kManifestHeader = "axdse-serve-manifest v1\n";
constexpr const char* kDoneJob =
    "job 1 request done alice kernel=matmul@5%20steps=200 -\n";

/// A fresh state directory holding `manifest` as its job manifest.
std::string StateDirWithManifest(const std::string& name,
                                  const std::string& manifest) {
  const std::string dir = FreshStateDir(name);
  fs::create_directories(dir);
  std::ofstream(fs::path(dir) / "jobs.manifest", std::ios::binary)
      << manifest;
  return dir;
}

void ExpectManifestRejected(const std::string& name,
                            const std::string& manifest) {
  Server server(TestOptions(StateDirWithManifest(name, manifest)));
  EXPECT_THROW(server.Start(), std::runtime_error) << manifest;
}

TEST(ServeManifest, RejectsIdWithTrailingJunk) {
  ExpectManifestRejected("manifest-junk-id",
                         std::string(kManifestHeader) + "next-id 12abc\n");
}

TEST(ServeManifest, RejectsNegativeId) {
  ExpectManifestRejected(
      "manifest-negative-id",
      std::string(kManifestHeader) +
          "next-id 5\njob -3 request done alice kernel=matmul@5 -\n");
}

TEST(ServeManifest, RejectsExtraTokens) {
  ExpectManifestRejected(
      "manifest-extra-tokens",
      std::string(kManifestHeader) +
          "next-id 5\njob 1 request done alice kernel=matmul@5 - surplus\n");
}

TEST(ServeManifest, RejectsNextIdAtOrBelowAStoredJob) {
  // With next-id 1 the next SUBMIT would reuse job 1's id and directory.
  ExpectManifestRejected("manifest-stale-next-id",
                         std::string(kManifestHeader) + "next-id 1\n" +
                             kDoneJob);
}

TEST(ServeManifest, RejectsDuplicateIds) {
  ExpectManifestRejected("manifest-duplicate-id",
                         std::string(kManifestHeader) + "next-id 5\n" +
                             kDoneJob + kDoneJob);
}

TEST(ServeManifest, LoadsManifestWrittenWithRequestEscaping) {
  // Earlier builds escaped '=' (and ';') in manifest text as %3d / %3b;
  // the shared decoder still reads them, and the rewrite uses record text.
  const std::string dir = StateDirWithManifest(
      "manifest-old-escaping",
      std::string(kManifestHeader) +
          "next-id 4\n"
          "job 3 request done alice kernel%3dmatmul@5%20steps%3d200 -\n");
  Server server(TestOptions(dir));
  server.Start();
  auto client = Client::Connect("127.0.0.1", server.Port());
  EXPECT_EQ(Field(client.Status(3), "state"), "done");
  EXPECT_EQ(Field(client.Status(3), "tenant"), "alice");
  EXPECT_EQ(client.Submit(QuickRequest()), 4u);  // next-id carried over
  server.Stop();
  std::ifstream in(fs::path(dir) / "jobs.manifest", std::ios::binary);
  const std::string rewritten((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  EXPECT_NE(rewritten.find("job 3 request done alice "
                           "kernel=matmul@5%20steps=200 -\n"),
            std::string::npos)
      << rewritten;
}

TEST(ServeServer, ShutdownVerbRequestsDrain) {
  Server server(TestOptions(FreshStateDir("shutdown-verb")));
  server.Start();
  EXPECT_FALSE(server.ShutdownRequested());
  auto client = Client::Connect("127.0.0.1", server.Port());
  client.RequestShutdown();
  EXPECT_TRUE(server.ShutdownRequested());
  server.Stop();
}

}  // namespace
}  // namespace axdse::serve
