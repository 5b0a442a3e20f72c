#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "dse/campaign.hpp"
#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "dse/request.hpp"
#include "report/campaign.hpp"
#include "report/export.hpp"
#include "serve/net.hpp"
#include "util/record_io.hpp"

namespace axdse::serve {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFile = "jobs.manifest";

/// Error/detail text travels on a line protocol: newlines must not survive.
std::string Sanitize(std::string text) {
  for (char& c : text)
    if (c == '\n' || c == '\r') c = ' ';
  return text;
}

std::string FirstToken(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  std::size_t end = begin;
  while (end < text.size() && text[end] != ' ' && text[end] != '\t') ++end;
  return text.substr(begin, end - begin);
}

}  // namespace

/// One accepted client connection. Send() serializes writers (the
/// connection's own response thread and any worker emitting events), and a
/// failed send marks the connection dead so later events are dropped
/// without touching the socket again.
struct Connection {
  Socket socket;
  std::mutex write_mutex;
  std::string tenant = "default";
  std::atomic<bool> alive{true};

  explicit Connection(Socket s) : socket(std::move(s)) {}

  bool Send(const std::string& data) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!alive.load(std::memory_order_relaxed)) return false;
    if (!socket.SendAll(data)) {
      alive.store(false, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Event push with a deadline: a watcher that cannot absorb the event in
  /// time is disconnected (a timed-out send may leave a partial line on the
  /// wire, so the connection cannot be reused). The Shutdown() also wakes
  /// the connection's reader thread so it gets reaped promptly.
  bool SendEvent(const std::string& data, int timeout_ms) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!alive.load(std::memory_order_relaxed)) return false;
    const bool ok = timeout_ms > 0
                        ? socket.SendAllWithTimeout(data, timeout_ms)
                        : socket.SendAll(data);
    if (!ok) {
      alive.store(false, std::memory_order_relaxed);
      socket.Shutdown();
      return false;
    }
    return true;
  }
};

/// Daemon-side state of one job. Guarded by Impl::jobs_mutex except for
/// `id`, `kind`, `tenant`, and `spec`, which are immutable after creation.
struct JobRecord {
  std::uint64_t id = 0;
  JobKind kind = JobKind::kRequest;
  std::string tenant;
  std::string spec;  ///< canonical ToString() of the request / campaign

  JobState state = JobState::kQueued;
  std::string error;
  bool cancel = false;

  /// Steps per (request index, seed index) run, from progress hooks.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> run_steps;
  std::size_t cells_done = 0;
  std::size_t cells_total = 0;

  std::vector<std::weak_ptr<Connection>> watchers;

  std::size_t TotalSteps() const {
    std::size_t total = 0;
    for (const auto& [key, steps] : run_steps) total += steps;
    return total;
  }
};

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        engine(dse::EngineOptions{options.engine_workers}),
        queue(options.limits) {}

  ServerOptions options;
  dse::Engine engine;
  JobQueue queue;

  Listener listener;
  std::thread accept_thread;
  std::vector<std::thread> workers;

  mutable std::mutex conn_mutex;
  std::vector<std::shared_ptr<Connection>> connections;
  std::vector<std::thread> conn_threads;

  mutable std::mutex jobs_mutex;
  std::condition_variable jobs_cv;
  std::map<std::uint64_t, std::shared_ptr<JobRecord>> jobs;
  std::uint64_t next_id = 1;

  std::mutex cache_mutex;
  std::map<std::string, std::shared_ptr<instrument::SharedEvaluationCache>>
      daemon_caches;

  std::atomic<bool> draining{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> shutdown_requested{false};
  bool started = false;
  bool drained = false;  // workers joined
  bool stopped = false;

  // --- paths ----------------------------------------------------------------

  std::string ManifestPath() const {
    return (fs::path(options.state_dir) / kManifestFile).string();
  }

  std::string JobDir(std::uint64_t id) const {
    return (fs::path(options.state_dir) / ("job-" + WireUnsigned(id)))
        .string();
  }

  // --- manifest (caller holds jobs_mutex) -----------------------------------

  void PersistManifest() {
    util::RecordWriter out("serve-manifest", 1);
    out.Line("next-id").U64(next_id);
    for (const auto& [id, job] : jobs)
      out.Line("job")
          .U64(id)
          .Word(ToString(job->kind))
          .Word(ToString(job->state))
          .Text(job->tenant)
          .Text(job->spec)
          .Text(job->error);
    dse::AtomicWriteCheckpointFile(ManifestPath(), out.Take(),
                                   "serve manifest");
  }

  /// Loads the manifest of a previous run, if any. Strict: a malformed
  /// line, a duplicate id, or a next-id that does not exceed every stored
  /// id (the next SUBMIT would overwrite that job) refuses to start.
  void LoadManifest() {
    const std::optional<std::string> text =
        util::ReadWholeFile(ManifestPath());
    if (!text) return;  // fresh state directory
    auto [loaded_next_id, loaded] = util::ParseRecords<std::runtime_error>(
        *text, "serve manifest " + ManifestPath(),
        [](util::RecordReader& reader) {
          reader.ExpectHeader("serve-manifest", 1);
          const std::uint64_t next =
              reader.Expect("next-id", 1).U64("next-id");
          std::map<std::uint64_t, std::shared_ptr<JobRecord>> records;
          while (reader.PeekTag() == "job") {
            util::RecordCursor cursor = reader.Expect("job", 6);
            auto job = std::make_shared<JobRecord>();
            job->id = cursor.U64("job id");
            job->kind = JobKindFromName(std::string(cursor.Word("job kind")));
            job->state =
                JobStateFromName(std::string(cursor.Word("job state")));
            job->tenant = cursor.Text("tenant");
            job->spec = cursor.Text("spec");
            job->error = cursor.Text("error");
            if (job->id >= next)
              cursor.Fail("job id " + WireUnsigned(job->id) +
                          " is not below next-id " + WireUnsigned(next));
            if (!records.emplace(job->id, job).second)
              cursor.Fail("duplicate job id " + WireUnsigned(job->id));
          }
          reader.ExpectEof();
          return std::make_pair(next, std::move(records));
        });
    next_id = loaded_next_id;
    jobs = std::move(loaded);
    // Requeue the unfinished backlog in id order: jobs caught mid-run by the
    // previous process (running/suspended) resume from their checkpoint
    // directories; queued jobs simply run.
    for (auto& [id, job] : jobs) {
      if (IsTerminal(job->state)) continue;
      job->state = JobState::kQueued;
      queue.Restore(job->tenant, id);
    }
    PersistManifest();
  }

  // --- events ---------------------------------------------------------------

  /// Snapshots the job's live watchers under jobs_mutex, then sends outside
  /// the lock (a blocked client must not stall the daemon's state).
  void EmitEvent(const std::shared_ptr<JobRecord>& job,
                 const std::string& detail) {
    std::vector<std::shared_ptr<Connection>> targets;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      auto& watchers = job->watchers;
      watchers.erase(std::remove_if(watchers.begin(), watchers.end(),
                                    [&](const std::weak_ptr<Connection>& w) {
                                      auto conn = w.lock();
                                      if (!conn || !conn->alive.load())
                                        return true;
                                      targets.push_back(std::move(conn));
                                      return false;
                                    }),
                     watchers.end());
    }
    if (targets.empty()) return;
    const std::string event = EventLine(job->id, detail);
    for (auto& conn : targets)
      conn->SendEvent(event, options.event_send_timeout_ms);
  }

  void SetTerminalOrSuspended(const std::shared_ptr<JobRecord>& job,
                              JobState state, const std::string& error) {
    // Emit the terminal event before waking WAITers: per-connection writes
    // are serialized, so a client that both WATCHes and WAITs is guaranteed
    // to read the "state ..." event before WAIT's OK response.
    EmitEvent(job, std::string("state ") + ToString(state) +
                       (error.empty() ? std::string()
                                      : " error=" + dse::EscapeRequestToken(
                                                        Sanitize(error))));
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      job->state = state;
      job->error = Sanitize(error);
      PersistManifest();
      jobs_cv.notify_all();
    }
  }

  // --- job execution --------------------------------------------------------

  void RunWorker() {
    while (true) {
      const std::optional<std::uint64_t> id = queue.Pop();
      if (!id) return;  // queue closed: drain
      std::shared_ptr<JobRecord> job;
      bool cancelled_in_queue = false;
      {
        std::lock_guard<std::mutex> lock(jobs_mutex);
        auto it = jobs.find(*id);
        if (it == jobs.end()) continue;
        job = it->second;
        // CANCEL raced us popping the job: honor it without running.
        cancelled_in_queue = job->cancel;
        job->state =
            cancelled_in_queue ? JobState::kCancelled : JobState::kRunning;
        PersistManifest();
        jobs_cv.notify_all();
      }
      if (cancelled_in_queue) {
        EmitEvent(job, "state cancelled");
        continue;
      }
      EmitEvent(job, "state running");
      RunJob(job);
    }
  }

  dse::RunHooks MakeHooks(const std::shared_ptr<JobRecord>& job) {
    dse::RunHooks hooks;
    hooks.interval = options.progress_interval;
    hooks.on_progress = [this, job](const dse::JobProgress& p) {
      {
        std::lock_guard<std::mutex> lock(jobs_mutex);
        job->run_steps[{p.request_index, p.seed_index}] = p.steps;
      }
      std::string detail = "progress seed=" + WireUnsigned(p.seed) +
                           " steps=" + WireUnsigned(p.steps) +
                           " reward=" + WireDouble(p.cumulative_reward);
      if (p.has_best)
        detail += " best-dacc=" + WireDouble(p.best.delta_acc) +
                  " best-dpower=" + WireDouble(p.best.delta_power_mw) +
                  " best-dtime=" + WireDouble(p.best.delta_time_ns);
      if (p.finished) detail += " finished=1";
      if (p.suspended) detail += " suspended=1";
      EmitEvent(job, detail);
    };
    hooks.should_suspend = [this, job] {
      if (draining.load() || stopping.load()) return true;
      std::lock_guard<std::mutex> lock(jobs_mutex);
      return job->cancel;
    };
    if (options.daemon_cache) {
      hooks.cache_provider = [this](const std::string& signature,
                                    std::size_t capacity) {
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto& slot = daemon_caches[signature];
        if (!slot) {
          instrument::SharedEvaluationCache::Options copts;
          copts.capacity = capacity;
          slot = std::make_shared<instrument::SharedEvaluationCache>(copts);
        }
        return slot;
      };
    }
    return hooks;
  }

  void WriteResultDocument(const std::shared_ptr<JobRecord>& job,
                           const std::string& json) {
    dse::AtomicWriteCheckpointFile(
        (fs::path(JobDir(job->id)) / "result.json").string(), json,
        "serve result");
  }

  void RunJob(const std::shared_ptr<JobRecord>& job) {
    const std::string jobdir = JobDir(job->id);
    const dse::RunHooks hooks = MakeHooks(job);
    bool complete = false;
    try {
      if (job->kind == JobKind::kRequest) {
        const auto request = dse::ExplorationRequest::Parse(job->spec);
        dse::CheckpointOptions checkpoint;
        checkpoint.directory = jobdir;
        const dse::BatchResult batch =
            engine.Run({request}, checkpoint, hooks);
        complete = batch.Complete();
        if (complete) WriteResultDocument(job, report::BatchJson(batch));
      } else {
        const auto spec = dse::CampaignSpec::Parse(job->spec);
        dse::CampaignOptions copts;
        copts.chunk_cells = options.chunk_cells;
        copts.checkpoint_directory = jobdir;
        dse::CampaignObserver observer;
        observer.engine = hooks;
        observer.on_chunk = [this,
                             job](const dse::CampaignChunkProgress& p) {
          {
            std::lock_guard<std::mutex> lock(jobs_mutex);
            job->cells_done = p.cells_done;
            job->cells_total = p.num_cells;
          }
          EmitEvent(job, "chunk index=" + WireUnsigned(p.chunk_index) +
                             " cells=" + WireUnsigned(p.cells_done) + "/" +
                             WireUnsigned(p.num_cells) +
                             (p.resumed ? " resumed=1" : ""));
          // The streaming-Pareto feed: one line per kernel front, plus the
          // current best objective per kernel.
          for (std::size_t i = 0; i < p.fronts.size(); ++i) {
            std::string line = "pareto kernel=" +
                               dse::EscapeRequestToken(p.fronts[i].kernel) +
                               " points=" +
                               WireUnsigned(p.fronts[i].front.Size());
            if (i < p.best.size())
              line += " best=" + WireDouble(p.best[i].objective) +
                      " feasible=" + (p.best[i].feasible ? "1" : "0");
            EmitEvent(job, line);
          }
        };
        const dse::Campaign campaign(engine);
        const dse::CampaignResult result =
            campaign.Run(spec, copts, observer);
        complete = result.Complete();
        if (complete) WriteResultDocument(job, report::CampaignJson(result));
      }
    } catch (const std::exception& e) {
      SetTerminalOrSuspended(job, JobState::kFailed, e.what());
      return;
    }
    if (complete) {
      SetTerminalOrSuspended(job, JobState::kDone, "");
      return;
    }
    // The run suspended: either this job was cancelled, or the daemon is
    // draining. A cancelled job's checkpoint state is dead weight — drop it.
    bool cancelled;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      cancelled = job->cancel;
    }
    if (cancelled) {
      std::error_code ec;
      fs::remove_all(jobdir, ec);
      SetTerminalOrSuspended(job, JobState::kCancelled, "");
    } else {
      SetTerminalOrSuspended(job, JobState::kSuspended, "");
    }
  }

  // --- protocol handlers ----------------------------------------------------

  void Dispatch(const std::shared_ptr<Connection>& conn,
                const std::string& line) {
    try {
      const CommandLine command = ParseCommandLine(line);
      if (command.verb == "PING") {
        conn->Send(OkLine("pong"));
      } else if (command.verb == "TENANT") {
        HandleTenant(conn, command.rest);
      } else if (command.verb == "SUBMIT") {
        HandleSubmit(conn, command.rest, JobKind::kRequest);
      } else if (command.verb == "SUBMIT-CAMPAIGN") {
        HandleSubmit(conn, command.rest, JobKind::kCampaign);
      } else if (command.verb == "STATUS") {
        HandleStatus(conn, command.rest);
      } else if (command.verb == "RESULTS") {
        HandleResults(conn, command.rest);
      } else if (command.verb == "WATCH") {
        HandleWatch(conn, command.rest);
      } else if (command.verb == "WAIT") {
        HandleWait(conn, command.rest);
      } else if (command.verb == "CANCEL") {
        HandleCancel(conn, command.rest);
      } else if (command.verb == "STATS") {
        HandleStats(conn);
      } else if (command.verb == "SHUTDOWN") {
        shutdown_requested.store(true);
        conn->Send(OkLine("shutting-down"));
      } else {
        throw ProtocolError("unknown-command",
                            "verb '" + command.verb + "' is not known");
      }
    } catch (const ProtocolError& e) {
      conn->Send(ErrLine(e.Code(), Sanitize(e.what())));
    } catch (const AdmissionError& e) {
      conn->Send(ErrLine("admission", Sanitize(e.what())));
    } catch (const dse::CheckpointError& e) {
      conn->Send(ErrLine("io", Sanitize(e.what())));
    } catch (const std::invalid_argument& e) {
      conn->Send(ErrLine("bad-request", Sanitize(e.what())));
    } catch (const std::exception& e) {
      conn->Send(ErrLine("internal", Sanitize(e.what())));
    }
  }

  void HandleTenant(const std::shared_ptr<Connection>& conn,
                    const std::string& rest) {
    const std::string name = FirstToken(rest);
    if (name.empty() || name != rest)
      throw ProtocolError("bad-tenant",
                          "TENANT takes exactly one token, e.g. TENANT alice");
    conn->tenant = name;
    conn->Send(OkLine("tenant " + name));
  }

  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    const std::string& rest, JobKind kind) {
    if (draining.load() || stopping.load())
      throw ProtocolError("draining", "daemon is draining; resubmit after restart");
    if (rest.empty())
      throw ProtocolError("bad-request", "SUBMIT needs a serialized job spec");
    // Parse + canonicalize BEFORE allocating anything: a malformed spec
    // must leave no trace.
    std::string canonical;
    if (kind == JobKind::kRequest) {
      const auto request = dse::ExplorationRequest::Parse(rest);
      request.Validate();
      canonical = request.ToString();
    } else {
      const auto spec = dse::CampaignSpec::Parse(rest);
      spec.Validate();
      canonical = spec.ToString();
    }
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      // Admission first: a rejected Push throws before any state exists.
      queue.Push(conn->tenant, next_id);
      id = next_id++;
      auto job = std::make_shared<JobRecord>();
      job->id = id;
      job->kind = kind;
      job->tenant = conn->tenant;
      job->spec = std::move(canonical);
      jobs[id] = job;
      PersistManifest();
    }
    conn->Send(OkLine("job " + WireUnsigned(id)));
  }

  std::shared_ptr<JobRecord> FindJob(std::uint64_t id) {
    // jobs_mutex held by caller
    auto it = jobs.find(id);
    if (it == jobs.end())
      throw ProtocolError("unknown-job",
                          "no job with id " + WireUnsigned(id));
    return it->second;
  }

  void HandleStatus(const std::shared_ptr<Connection>& conn,
                    const std::string& rest) {
    const std::uint64_t id = ParseJobId(FirstToken(rest));
    std::string payload;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      const auto job = FindJob(id);
      payload = "job " + WireUnsigned(id) +
                " state=" + ToString(job->state) +
                " kind=" + ToString(job->kind) +
                " tenant=" + dse::EscapeRequestToken(job->tenant) +
                " steps=" + WireUnsigned(job->TotalSteps());
      if (job->kind == JobKind::kCampaign)
        payload += " cells=" + WireUnsigned(job->cells_done) + "/" +
                   WireUnsigned(job->cells_total);
      if (!job->error.empty())
        payload += " error=" + dse::EscapeRequestToken(job->error);
    }
    conn->Send(OkLine(payload));
  }

  void HandleResults(const std::shared_ptr<Connection>& conn,
                     const std::string& rest) {
    const std::uint64_t id = ParseJobId(FirstToken(rest));
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      const auto job = FindJob(id);
      if (job->state != JobState::kDone)
        throw ProtocolError("not-done", "job " + WireUnsigned(id) + " is " +
                                            ToString(job->state));
    }
    std::string json = dse::ReadCheckpointFile(
        (fs::path(JobDir(id)) / "result.json").string(), "serve result");
    while (!json.empty() && (json.back() == '\n' || json.back() == '\r'))
      json.pop_back();
    conn->Send(OkLine("result " + WireUnsigned(id) + " " + json));
  }

  void HandleWatch(const std::shared_ptr<Connection>& conn,
                   const std::string& rest) {
    const std::uint64_t id = ParseJobId(FirstToken(rest));
    JobState state;
    std::shared_ptr<JobRecord> job;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      job = FindJob(id);
      job->watchers.push_back(conn);
      state = job->state;
    }
    conn->Send(OkLine("watching " + WireUnsigned(id)));
    // Seed the subscriber with the current state so a watcher of an
    // already-terminal job does not hang waiting for a transition.
    conn->Send(EventLine(id, std::string("state ") + ToString(state)));
  }

  void HandleWait(const std::shared_ptr<Connection>& conn,
                  const std::string& rest) {
    const std::uint64_t id = ParseJobId(FirstToken(rest));
    JobState state;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex);
      const auto job = FindJob(id);
      jobs_cv.wait(lock, [&] {
        return stopping.load() || IsTerminal(job->state) ||
               job->state == JobState::kSuspended;
      });
      state = job->state;
    }
    if (!IsTerminal(state) && state != JobState::kSuspended)
      throw ProtocolError("shutting-down", "daemon stopped before job " +
                                               WireUnsigned(id) + " settled");
    conn->Send(OkLine(std::string("state ") + ToString(state)));
  }

  void HandleCancel(const std::shared_ptr<Connection>& conn,
                    const std::string& rest) {
    const std::uint64_t id = ParseJobId(FirstToken(rest));
    std::shared_ptr<JobRecord> job;
    bool now_cancelled = false;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      job = FindJob(id);
      if (job->tenant != conn->tenant)
        throw ProtocolError("forbidden", "job " + WireUnsigned(id) +
                                             " belongs to tenant '" +
                                             job->tenant + "'");
      if (IsTerminal(job->state))
        throw ProtocolError("not-cancellable", "job " + WireUnsigned(id) +
                                                   " is already " +
                                                   ToString(job->state));
      job->cancel = true;
      if (queue.Remove(id)) {
        // Still queued: cancel takes effect immediately.
        job->state = JobState::kCancelled;
        PersistManifest();
        jobs_cv.notify_all();
        now_cancelled = true;
      }
      // Otherwise the job is running (or suspended): the worker's
      // should_suspend poll picks the flag up and finishes the cancel.
    }
    if (now_cancelled) EmitEvent(job, "state cancelled");
    conn->Send(OkLine("cancelling " + WireUnsigned(id)));
  }

  void HandleStats(const std::shared_ptr<Connection>& conn) {
    const ServerStats stats = ComputeStats();
    conn->Send(OkLine(
        "stats jobs=" + WireUnsigned(stats.jobs) +
        " queued=" + WireUnsigned(stats.queued) +
        " running=" + WireUnsigned(stats.running) +
        " suspended=" + WireUnsigned(stats.suspended) +
        " done=" + WireUnsigned(stats.done) +
        " failed=" + WireUnsigned(stats.failed) +
        " cancelled=" + WireUnsigned(stats.cancelled) +
        " connections=" + WireUnsigned(stats.connections) +
        " tenants=" + WireUnsigned(stats.tenants)));
  }

  ServerStats ComputeStats() const {
    ServerStats stats;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      std::set<std::string> tenants;
      stats.jobs = jobs.size();
      for (const auto& [id, job] : jobs) {
        tenants.insert(job->tenant);
        switch (job->state) {
          case JobState::kQueued: ++stats.queued; break;
          case JobState::kRunning: ++stats.running; break;
          case JobState::kSuspended: ++stats.suspended; break;
          case JobState::kDone: ++stats.done; break;
          case JobState::kFailed: ++stats.failed; break;
          case JobState::kCancelled: ++stats.cancelled; break;
        }
      }
      stats.tenants = tenants.size();
    }
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      for (const auto& conn : connections)
        if (conn->alive.load()) ++stats.connections;
    }
    return stats;
  }

  // --- connection plumbing --------------------------------------------------

  void AcceptLoop() {
    while (true) {
      Socket socket = listener.Accept();
      if (!socket.Valid()) return;  // listener shut down
      auto conn = std::make_shared<Connection>(std::move(socket));
      {
        std::lock_guard<std::mutex> lock(conn_mutex);
        if (stopping.load()) {
          conn->socket.Shutdown();
          continue;
        }
        connections.push_back(conn);
        conn_threads.emplace_back(
            [this, conn] { HandleConnection(conn); });
      }
    }
  }

  void HandleConnection(const std::shared_ptr<Connection>& conn) {
    conn->Send(HelloLine());
    LineReader reader(conn->socket.Fd(), options.max_line_bytes);
    std::string line;
    while (conn->alive.load()) {
      const LineReader::Status status = reader.ReadLine(line);
      if (status == LineReader::Status::kEof ||
          status == LineReader::Status::kError)
        break;
      if (status == LineReader::Status::kTooLong) {
        if (!conn->Send(ErrLine(
                "line-too-long",
                "command exceeds " + WireUnsigned(options.max_line_bytes) +
                    " bytes; discarded up to the next newline")))
          break;
        continue;
      }
      if (line.find_first_not_of(" \t") == std::string::npos) continue;
      Dispatch(conn, line);
    }
    conn->alive.store(false);
    conn->socket.Shutdown();
    std::lock_guard<std::mutex> lock(conn_mutex);
    connections.erase(
        std::remove(connections.begin(), connections.end(), conn),
        connections.end());
  }

  // --- lifecycle ------------------------------------------------------------

  void Start() {
    if (options.state_dir.empty())
      throw std::invalid_argument("axdse-serve: state_dir is required");
    fs::create_directories(options.state_dir);
    LoadManifest();
    listener = Listener::Bind(options.port);
    for (std::size_t i = 0; i < std::max<std::size_t>(1, options.job_workers);
         ++i)
      workers.emplace_back([this] { RunWorker(); });
    accept_thread = std::thread([this] { AcceptLoop(); });
    started = true;
  }

  void Drain() {
    if (drained) return;
    draining.store(true);
    queue.Close();
    for (auto& worker : workers)
      if (worker.joinable()) worker.join();
    workers.clear();
    drained = true;
  }

  void Stop() {
    if (stopped) return;
    Drain();
    stopping.store(true);
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      jobs_cv.notify_all();
    }
    listener.Shutdown();
    if (accept_thread.joinable()) accept_thread.join();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      for (auto& conn : connections) {
        conn->alive.store(false);
        conn->socket.Shutdown();
      }
      threads.swap(conn_threads);
    }
    for (auto& thread : threads)
      if (thread.joinable()) thread.join();
    listener.Close();
    stopped = true;
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  if (impl_ && impl_->started) impl_->Stop();
}

void Server::Start() { impl_->Start(); }

int Server::Port() const noexcept { return impl_->listener.Port(); }

bool Server::ShutdownRequested() const noexcept {
  return impl_->shutdown_requested.load();
}

void Server::Drain() { impl_->Drain(); }

void Server::Stop() { impl_->Stop(); }

ServerStats Server::Stats() const { return impl_->ComputeStats(); }

}  // namespace axdse::serve
