// Set-up and the untraced end-to-end phases.
//
// The phases run round-robin — one round of each per cycle — until
// --seconds passed, and every metric is the median of its samples (rounds,
// set-ups, serve jobs or serve bursts). Speed regimes of a shared host last
// seconds to minutes; interleaving spreads every phase over the whole run,
// and the compute rates of each round are scaled by a host-speed probe
// taken around them (see HostSpeed). Each round also draws fresh inputs
// (see ForRound), so a run's median covers many seeds.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace axbench {

namespace fs = std::filesystem;
using namespace axdse;

namespace {

constexpr std::size_t kServeTenants = 4;
constexpr std::size_t kServeChunkCells = 4;
constexpr std::size_t kMinRounds = 5;
constexpr std::size_t kSetupsPerRound = 24;
/// HostSpeed() passes/s that the compute throughputs are scaled to: about
/// its median on the 4-core development host (see README.md).
constexpr double kReferenceHostSpeed = 8e5;
constexpr double kHostSpeedProbeS = 0.02;

/// Keeps HostSpeed()'s loop from being optimized away.
std::atomic<std::uint64_t> g_speed_sink{0};

serve::ServerOptions DaemonOptions(const std::string& state_dir) {
  serve::ServerOptions options;
  options.port = 0;
  options.state_dir = state_dir;
  options.job_workers = 2;
  options.engine_workers = 1;
  options.chunk_cells = kServeChunkCells;
  return options;
}

std::string StripNewlines(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  return text;
}

/// Steps per second of one engine batch on one worker. The first round
/// also runs the batch on four workers, which must digest identically.
double ExploreRound(const Mix& mix, std::size_t round, Report& report) {
  const auto requests = ExploreRequests(mix);
  const auto start = Clock::now();
  const dse::BatchResult batch =
      dse::Engine(dse::EngineOptions{1}).Run(requests);
  const double rate =
      static_cast<double>(batch.TotalSteps()) / SecondsSince(start);
  report.Attempt(batch.TotalRuns());
  if (round == 0) {
    const dse::BatchResult wide =
        dse::Engine(dse::EngineOptions{4}).Run(requests);
    report.Check(CostMasked(mix, report::BatchJson(wide)) ==
                     CostMasked(mix, report::BatchJson(batch)),
                 "explore: w1 and w4 results differ");
  }
  return rate;
}

/// Evaluations per second of RandomSearch and GeneticSearch on every mix
/// kernel; each search runs twice and must find the same optimum.
double SearchRound(const Mix& mix, Report& report) {
  double seconds = 0.0;
  std::size_t evaluations = 0;
  for (std::size_t k = 0; k < mix.kernels.size(); ++k) {
    const auto kernel = workloads::KernelRegistry::Global().Create(
        mix.kernels[k], mix.kernel_seed);
    const std::uint64_t seed = mix.stream_seed + k;
    for (int algorithm = 0; algorithm < 2; ++algorithm) {
      double objective[2] = {0.0, 0.0};
      for (int repeat = 0; repeat < 2; ++repeat) {
        dse::Evaluator evaluator(*kernel);
        const dse::RewardConfig reward = dse::MakePaperRewardConfig(evaluator);
        const auto start = Clock::now();
        const dse::BaselineResult result =
            algorithm == 0
                ? dse::RandomSearch(evaluator, reward, mix.search_budget, seed)
                : dse::GeneticSearch(evaluator, reward, mix.search_budget,
                                     seed);
        seconds += SecondsSince(start);
        evaluations += result.evaluations;
        objective[repeat] = result.best_objective;
      }
      report.Attempt(mix.search_budget);
      report.Check(objective[0] == objective[1],
                   "search: a repeated search found another optimum");
    }
  }
  return static_cast<double>(evaluations) / seconds;
}

/// Cells per second of one campaign on one engine worker and of the shard
/// path; both JSON documents must agree. The first round also runs the
/// campaign on 2 and 4 workers, which must produce the same document.
void CampaignRound(const Mix& mix, const RunOptions& options,
                   std::size_t round, double* campaign_rate,
                   double* shard_rate, Report& report) {
  const double cells = static_cast<double>(CampaignGrid(mix).NumCells());
  std::string reference;
  *campaign_rate = cells / RunCampaignOnce(mix, 1, &reference);
  report.Attempt(static_cast<std::size_t>(cells));
  for (std::size_t workers : {2, 4}) {
    if (round != 0) break;
    std::string json;
    RunCampaignOnce(mix, workers, &json);
    report.Attempt(static_cast<std::size_t>(cells) - 1);
    report.Check(json == reference, "campaign: JSON differs at " +
                                        std::to_string(workers) +
                                        " engine workers");
  }
  std::string merged;
  *shard_rate = cells / RunShardOnce(mix, options, &merged);
  report.Attempt(static_cast<std::size_t>(cells) - 1);
  report.Check(merged == reference,
               "shard: merged JSON differs from Campaign::Run");
}

/// Passes per second, over about `seconds`, of a fixed loop that does the
/// kinds of work a step does — small integer multiply-add chains and
/// hash-table lookups — and runs none of the library's code.
double HostSpeed(double seconds) {
  static const std::unordered_map<std::uint64_t, std::uint64_t> kTable = [] {
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::uint64_t i = 0; i < 16384; ++i)
      table.emplace(i * 0x9E3779B97F4A7C15ULL, i);
    return table;
  }();
  std::int64_t a[12][12];
  std::int64_t c[12][12];
  for (int i = 0; i < 12; ++i)
    for (int j = 0; j < 12; ++j) a[i][j] = i * 31 - j * 17;
  std::uint64_t x = 1;
  std::uint64_t sum = 0;
  std::size_t passes = 0;
  const auto start = Clock::now();
  do {
    for (int i = 0; i < 12; ++i)
      for (int j = 0; j < 12; ++j) {
        std::int64_t s = 0;
        for (int k = 0; k < 12; ++k) s += a[i][k] * a[k][j];
        c[i][j] = s;
      }
    a[passes % 12][(passes / 12) % 12] ^= c[5][7];
    for (int l = 0; l < 256; ++l) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto it = kTable.find((x >> 50) * 0x9E3779B97F4A7C15ULL);
      sum += it == kTable.end() ? 0 : it->second;
    }
    ++passes;
  } while (SecondsSince(start) < seconds);
  g_speed_sink += sum;
  return static_cast<double>(passes) / SecondsSince(start);
}

}  // namespace

void WarmUp(double seconds) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([&, t] {
      std::uint64_t x = t + 1;
      while (Clock::now() < deadline)
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
      sink += x;
    });
  }
  for (std::thread& spinner : spinners) spinner.join();
}

double SetupOnce(const Mix& mix, const RunOptions& options,
                 Prepared* prepared) {
  // The daemon's fresh, empty state directory is made before the clock
  // starts. Making it took 0.11-0.31 ms from run to run on the development
  // host, with the disk's contention from other tenants, while the rest of
  // a set-up moved by about 5%.
  const std::string state_dir = FreshDir(options, "setup");
  const auto start = Clock::now();
  Prepared fresh;
  for (const workloads::KernelSpec& spec : mix.kernels) {
    std::shared_ptr<const workloads::Kernel> kernel =
        workloads::KernelRegistry::Global().Create(spec, mix.kernel_seed);
    const dse::Evaluator golden(*kernel);
    fresh.kernels.push_back(std::move(kernel));
  }
  const dse::CampaignSpec grid = CampaignGrid(mix);
  grid.Validate();
  const std::size_t cells = grid.Expand().size();
  serve::Server server(DaemonOptions(state_dir));
  server.Start();
  double seconds = 0.0;
  {
    serve::Client client = serve::Client::Connect("127.0.0.1", server.Port());
    seconds = SecondsSince(start);
  }
  server.Stop();
  if (cells != grid.NumCells())
    throw std::runtime_error("campaign expansion lost cells");
  if (prepared) *prepared = std::move(fresh);
  return seconds;
}

double RunCampaignOnce(const Mix& mix, std::size_t workers, std::string* json,
                       const dse::CampaignObserver* observer) {
  const dse::CampaignSpec spec = CampaignGrid(mix);
  const dse::Engine engine(dse::EngineOptions{workers});
  const dse::Campaign campaign(engine);
  dse::CampaignOptions copts;
  copts.chunk_cells = mix.chunk_cells;
  const auto start = Clock::now();
  const dse::CampaignResult result =
      observer ? campaign.Run(spec, copts, *observer)
               : campaign.Run(spec, copts);
  const double seconds = SecondsSince(start);
  if (!result.Complete()) throw std::runtime_error("campaign did not complete");
  *json = CostMasked(mix, report::CampaignJson(result));
  return seconds;
}

double RunShardOnce(const Mix& mix, const RunOptions& options,
                    std::string* json, double* merge_s) {
  const dse::CampaignSpec spec = CampaignGrid(mix);
  const dse::Engine engine(dse::EngineOptions{1});
  const dse::ShardWorker worker(engine);
  dse::ShardOptions sopts;
  sopts.state_directory = FreshDir(options, "shard");
  sopts.worker_id = "bench";
  sopts.chunk_cells = mix.chunk_cells;
  const auto start = Clock::now();
  const dse::ShardRunReport run = worker.Run(spec, sopts);
  const auto merge_start = Clock::now();
  const dse::CampaignResult merged =
      dse::MergeShardedCampaign(sopts.state_directory);
  const double seconds = SecondsSince(start);
  if (merge_s) *merge_s = SecondsSince(merge_start);
  if (!run.complete) throw std::runtime_error("shard run did not complete");
  *json = CostMasked(mix, report::CampaignJson(merged));
  return seconds;
}

// --- serve ------------------------------------------------------------------------

ServeLoad::ServeLoad(const RunOptions& options)
    : options_(options), jobs_(kServeTenants, 0) {}

ServeLoad::Items ServeLoad::Expected(const Mix& inputs) {
  Items items;
  const dse::Engine reference(dse::EngineOptions{1});
  for (const dse::ExplorationRequest& request : ServeRequests(inputs)) {
    Item item;
    item.request = request;
    item.expected = StripNewlines(report::BatchJson(reference.Run({request})));
    items.requests.push_back(std::move(item));
  }
  items.campaign_every = inputs.serve_campaign_every;
  if (items.campaign_every) {
    items.campaign.campaign = true;
    items.campaign.spec = ServeCampaign(inputs);
    dse::CampaignOptions copts;
    copts.chunk_cells = kServeChunkCells;
    items.campaign.expected = StripNewlines(report::CampaignJson(
        dse::Campaign(reference).Run(items.campaign.spec, copts)));
  }
  return items;
}

const ServeLoad::Item& ServeLoad::Items::Pick(std::size_t tenant,
                                              std::size_t job) const {
  if (campaign_every && job % campaign_every == campaign_every - 1)
    return campaign;
  return requests[(tenant * 3 + job) % requests.size()];
}

void ServeLoad::Burst(const Mix& inputs, double seconds, Report& report) {
  const Items items = Expected(inputs);
  // A fresh daemon and state directory per burst: the jobs manifest is
  // rewritten whole on every state change, so a daemon that kept the run's
  // whole history would slow down as the run goes on.
  serve::Server server(DaemonOptions(FreshDir(options_, "serve")));
  server.Start();
  const int port = server.Port();
  std::mutex mutex;  // guards stats_ and report
  const std::size_t done_before = stats_.done_ms.size();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);

  auto tenant = [&](std::size_t index) {
    try {
      serve::Client client = serve::Client::Connect("127.0.0.1", port);
      client.SetTenant("tenant-" + std::to_string(index));
      Clock::time_point running_at{};
      std::uint64_t watched = 0;
      client.OnEvent([&](const std::string& payload) {
        if (running_at == Clock::time_point{} &&
            payload == std::to_string(watched) + " state running")
          running_at = Clock::now();
      });
      while (Clock::now() < deadline) {
        const Item& item = items.Pick(index, jobs_[index]++);
        running_at = {};
        const auto submit = Clock::now();
        watched = item.campaign ? client.SubmitCampaign(item.spec)
                                : client.Submit(item.request);
        const auto acked = Clock::now();
        client.Watch(watched);
        const std::string state = client.WaitJob(watched);
        const auto done = Clock::now();
        const std::string json =
            state == "done" ? StripNewlines(client.Results(watched)) : "";
        const auto ms = [](Clock::time_point a, Clock::time_point b) {
          return std::chrono::duration<double, std::milli>(b - a).count();
        };
        std::lock_guard<std::mutex> lock(mutex);
        report.Check(state == "done" && json == item.expected,
                     "serve: job " + std::to_string(watched) + " ended " +
                         state +
                         (json == item.expected
                              ? ""
                              : " with a result unlike the engine's"));
        stats_.done_ms.push_back(ms(submit, done));
        stats_.submit_ms.push_back(ms(submit, acked));
        stats_.result_bytes.push_back(static_cast<double>(json.size()));
        if (running_at != Clock::time_point{}) {
          stats_.queue_wait_ms.push_back(ms(submit, running_at));
          stats_.run_ms.push_back(ms(running_at, done));
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex);
      report.Check(false, std::string("serve: tenant failed: ") + e.what());
    }
  };
  std::vector<std::thread> tenants;
  for (std::size_t t = 0; t < kServeTenants; ++t)
    tenants.emplace_back(tenant, t);
  for (std::thread& thread : tenants) thread.join();
  const double wall_s = SecondsSince(start);
  const std::size_t done = stats_.done_ms.size() - done_before;
  stats_.busy_s += wall_s;
  stats_.jobs_per_s.push_back(static_cast<double>(done) / wall_s);
  if (done == 0) ++stats_.empty_bursts;
  server.Stop();
}

void CheckServeJobs(const ServeStats& stats, std::size_t min_jobs,
                    Report& report) {
  report.Check(stats.done_ms.size() >= min_jobs,
               "serve: " + std::to_string(stats.done_ms.size()) +
                   " jobs completed, fewer than " + std::to_string(min_jobs));
}

// --- the untraced run ------------------------------------------------------------------

void RunEndToEnd(const Mix& mix, const RunOptions& options, Report& report) {
  const std::size_t min_jobs = options.smoke ? 8 : kMinServeJobs;
  const double burst_s = std::max(0.2, 0.03 * options.seconds);
  std::vector<double> setup, explore, search, campaign, shard, speeds;
  ServeLoad serve(options);
  WarmUp(options.smoke ? 0.1 : 1.5);
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool enough = round >= (options.smoke ? 1 : kMinRounds) &&
                        serve.Stats().done_ms.size() >= min_jobs;
    if (enough && SecondsSince(start) >= options.seconds) break;
    // Bounded even on a host far slower than expected, or a broken daemon.
    if (round > 0 && (SecondsSince(start) >= 4.0 * options.seconds + 30.0 ||
                      serve.Stats().empty_bursts > 0))
      break;
    const Mix inputs = ForRound(mix, round);
    // A block of set-ups back to back: the first ones after the previous
    // round's phases run on cold caches and beside that round's exiting
    // threads and pending writeback, the later ones do not; the median
    // over all blocks reads the set-up work itself.
    for (std::size_t rep = 0; rep < kSetupsPerRound; ++rep)
      setup.push_back(SetupOnce(inputs, options, nullptr));
    // The compute phases, between two host-speed probes. The host's speed
    // drifts by 20-40% over seconds to minutes with other tenants' load, and
    // moves every compute phase alike; scaling each round's rates to the
    // reference speed keeps that drift out of the medians.
    const double speed_before = HostSpeed(kHostSpeedProbeS);
    const double explore_rate = ExploreRound(inputs, round, report);
    const double search_rate = SearchRound(inputs, report);
    double campaign_rate = 0.0;
    double shard_rate = 0.0;
    CampaignRound(inputs, options, round, &campaign_rate, &shard_rate, report);
    speeds.push_back(0.5 * (speed_before + HostSpeed(kHostSpeedProbeS)));
    const double scale = kReferenceHostSpeed / speeds.back();
    explore.push_back(explore_rate * scale);
    search.push_back(search_rate * scale);
    campaign.push_back(campaign_rate * scale);
    shard.push_back(shard_rate * scale);
    serve.Burst(inputs, burst_s, report);
  }
  const ServeStats& stats = serve.Stats();
  CheckServeJobs(stats, min_jobs, report);
  std::printf("# host_speed %.6g passes/s (median of %zu rounds), reference %.6g\n",
              Median(speeds), speeds.size(), kReferenceHostSpeed);

  report.AddSamples("setup_s", "s", std::move(setup));
  report.AddSamples("explore.steps_per_s", "1/s", std::move(explore));
  report.AddSamples("search.configs_per_s", "1/s", std::move(search));
  report.AddSamples("campaign.cells_per_s.w1", "1/s", std::move(campaign));
  report.AddSamples("shard.cells_per_s", "1/s", std::move(shard));
  report.AddSamples("serve.done_ms.p50", "ms", stats.done_ms);
  report.AddSamples("serve.jobs_per_s", "1/s", stats.jobs_per_s);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.AddValue("peak_rss_mb", "MB",
                  static_cast<double>(usage.ru_maxrss) / 1024.0);
}

}  // namespace axbench
