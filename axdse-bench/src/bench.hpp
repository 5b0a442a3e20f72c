#pragma once
// axdse-bench internals shared by the entry point (main.cpp), the untraced
// end-to-end phases (phases.cpp) and the traced per-layer probes
// (layers.cpp). Everything here is benchmark code: it calls the library only
// through its public headers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axdse.hpp"
#include "dse/campaign.hpp"

namespace axbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> values);
/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method). Needs at least two values.
void Quartiles(std::vector<double> values, double* q1, double* q3);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
/// The highest of p95/p90/p75/p50 that still has at least ten samples
/// beyond it; the chosen percentile is written to *chosen.
double TailPercentile(const std::vector<double>& values, double* chosen);

// --- results ----------------------------------------------------------------

/// One reported metric: the value it reports, the observations behind it,
/// and — when the value is the median of separate samples — those samples.
/// A derived value (a ratio, a mean, a percentile) keeps no samples, so no
/// spread is claimed for it.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  double value = 0.0;
  std::size_t n = 0;  ///< observations behind the value
};

/// Ordered metric table plus the correctness tally of one run.
class Report {
 public:
  /// Records a metric whose value is the median of `samples`.
  void AddSamples(const std::string& name, const std::string& unit,
                  std::vector<double> samples);
  /// Records a single derived value (a ratio, a count, a percentile)
  /// computed from `n` observations.
  void AddValue(const std::string& name, const std::string& unit,
                double value, std::size_t n = 1);
  const std::vector<Metric>& Metrics() const { return metrics_; }

  /// Counts one attempted operation; a failed or mismatching one is also
  /// counted as failed and, when `what` is given, listed.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations that completed without a check of their own.
  void Attempt(std::size_t n) { attempted_ += n; }
  std::size_t Attempted() const { return attempted_; }
  std::size_t Failed() const { return failed_; }
  const std::vector<std::string>& Failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

// --- workloads ---------------------------------------------------------------

/// One workload: the inputs every phase runs, all derived from the
/// workload name and the --seed argument.
struct Mix {
  std::string name;
  std::vector<axdse::workloads::KernelSpec> kernels;
  std::vector<axdse::dse::AgentKind> agents;
  std::size_t steps = 0;           ///< step limit per exploration job
  double reward_cap = 500.0;       ///< per-episode cumulative reward cap
  axdse::dse::CacheMode cache = axdse::dse::CacheMode::kPrivate;
  std::size_t seeds = 1;           ///< agent seeds per request / grid cell
  std::size_t search_budget = 0;   ///< evaluations per baseline search
  std::size_t chunk_cells = 4;     ///< campaign chunk size
  std::size_t serve_steps = 0;     ///< step limit of serve requests
  std::size_t serve_campaign_every = 0;  ///< 0 = no campaigns in serve mix
  std::uint64_t kernel_seed = 0;   ///< kernel input-data seed
  std::uint64_t agent_seed = 0;    ///< first agent seed of every job
  std::uint64_t stream_seed = 0;   ///< configuration streams and searches
};

/// Builds a workload; `smoke` shrinks every budget. Throws
/// std::invalid_argument for an unknown name.
Mix MakeMix(const std::string& name, std::uint64_t seed, bool smoke);

/// The mix's exploration requests (kernel x agent) by registry name or,
/// when `kernels` is given (one instance per mix kernel, in mix order), on
/// those instances through kernel_override.
std::vector<axdse::dse::ExplorationRequest> ExploreRequests(
    const Mix& mix,
    const std::vector<std::shared_ptr<const axdse::workloads::Kernel>>&
        kernels = {});
/// The mix's campaign grid: kernels x agents x seeds.
axdse::dse::CampaignSpec CampaignGrid(const Mix& mix);
/// One registry-named request per (kernel, agent), sized for serving.
std::vector<axdse::dse::ExplorationRequest> ServeRequests(const Mix& mix);
/// The small campaign tenants submit now and then.
axdse::dse::CampaignSpec ServeCampaign(const Mix& mix);

// --- run context ---------------------------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;  ///< scratch state directories and the trace file
};

/// The mix for round `round` of a run: same workload, fresh kernel, agent
/// and stream seeds derived from the run's seed. Rounds sample many inputs,
/// so a run's median does not hinge on one seed's trajectory.
Mix ForRound(const Mix& mix, std::size_t round);

/// Kernels built during set-up, reused by the traced probes.
struct Prepared {
  std::vector<std::shared_ptr<const axdse::workloads::Kernel>> kernels;
};

/// One set-up: kernel construction and golden runs, campaign expansion,
/// daemon start on a fresh state directory (made before the clock starts)
/// up to HELLO. Returns its seconds.
double SetupOnce(const Mix& mix, const RunOptions& options,
                 Prepared* prepared);

/// The untraced end-to-end phases (set-up, explore, search, campaign,
/// shard, serve), run round-robin until --seconds passed, each round
/// checking its outputs.
void RunEndToEnd(const Mix& mix, const RunOptions& options, Report& report);

/// The traced per-layer probes. Spans stay in memory; WriteTrace() writes
/// them with the layer table when the run ends.
void RunLayers(const Mix& mix, const Prepared& prepared,
               const RunOptions& options, Report& report);
void WriteTrace(const std::string& path, const std::string& header_json,
                const Report& report);

// --- shared helpers ----------------------------------------------------------

/// `json` with the cost counters masked that a shared cache splits between
/// requests by scheduling (the library guarantees only their group totals);
/// unchanged for private-cache mixes. Results compare after masking.
std::string CostMasked(const Mix& mix, const std::string& json);

/// Keeps every core busy for `seconds`. A shared host may hand a process
/// that just went parallel fewer cores for about a second; measuring starts
/// after that.
void WarmUp(double seconds);

/// Fresh, empty directory under the run's output directory.
std::string FreshDir(const RunOptions& options, const std::string& name);

/// Serve-phase observations, shared by the end-to-end and traced runs.
struct ServeStats {
  std::vector<double> done_ms;        ///< SUBMIT -> DONE per job
  std::vector<double> queue_wait_ms;  ///< SUBMIT -> "state running"
  std::vector<double> run_ms;         ///< "state running" -> DONE
  std::vector<double> submit_ms;      ///< SUBMIT round trip
  std::vector<double> result_bytes;
  std::vector<double> jobs_per_s;     ///< completed jobs / wall, per burst
  double busy_s = 0.0;                ///< summed burst wall time
  std::size_t empty_bursts = 0;       ///< bursts that completed no job
};

/// Bursts of four tenants, one connection each, in a closed loop against
/// an in-process axdse-serve daemon (job_workers=2, engine_workers=1):
/// SUBMIT, WATCH, WAIT, RESULTS over a mix's serve requests plus, when the
/// mix has one, a small campaign every few jobs. Every RESULTS document is
/// compared with the in-process Engine export of the same job.
class ServeLoad {
 public:
  explicit ServeLoad(const RunOptions& options);

  /// Computes the expected documents of `inputs` (untimed), starts a daemon
  /// on a fresh state directory, runs the tenants on those inputs for about
  /// `seconds` (each finishes its job in flight) and stops the daemon.
  void Burst(const Mix& inputs, double seconds, Report& report);
  const ServeStats& Stats() const { return stats_; }

 private:
  struct Item {
    bool campaign = false;
    axdse::dse::ExplorationRequest request;
    axdse::dse::CampaignSpec spec;
    std::string expected;
  };
  struct Items {
    std::vector<Item> requests;
    Item campaign;
    std::size_t campaign_every = 0;
    const Item& Pick(std::size_t tenant, std::size_t job) const;
  };
  static Items Expected(const Mix& inputs);

  RunOptions options_;
  std::vector<std::size_t> jobs_;  ///< jobs sent so far, per tenant
  ServeStats stats_;
};

/// Jobs a serve phase must complete: enough for a p95 with ten samples
/// beyond it.
constexpr std::size_t kMinServeJobs = 200;
/// Counts one check that at least `min_jobs` serve jobs completed.
void CheckServeJobs(const ServeStats& stats, std::size_t min_jobs,
                    Report& report);

/// Campaign::Run on `workers` engine workers, in memory: checkpoint I/O
/// is the shard path's share (see README.md). Returns the wall seconds and
/// the axdse-campaign-v1 JSON.
double RunCampaignOnce(const Mix& mix, std::size_t workers, std::string* json,
                       const axdse::dse::CampaignObserver* observer = nullptr);
/// ShardWorker (one engine worker) plus MergeShardedCampaign; returns wall
/// seconds and the merged JSON. `merge_s` receives the merge's share.
double RunShardOnce(const Mix& mix, const RunOptions& options,
                    std::string* json, double* merge_s = nullptr);

}  // namespace axbench
