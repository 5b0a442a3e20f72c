#pragma once
// dse::Campaign — declarative exploration campaigns: the paper's headline
// result is a sweep (every kernel x agent x threshold explored and
// compared), and autoAx-style library-wide searches are the same shape at
// scale. A CampaignSpec names the axes (kernels, agents, action spaces,
// threshold factors, cache modes) plus a base ExplorationRequest supplying
// everything else; Expand() takes the cartesian product into one
// ExplorationRequest per grid cell. Campaign::Run() executes the grid
// through the existing Engine in chunks. Without a checkpoint directory it
// is an in-memory loop that writes nothing; with one, the directory is a
// shard state directory (dse/shard.hpp) and Campaign::Run works it as the
// single shard worker "campaign" — each finished chunk commits its result
// document, a chunk that stops short persists its jobs as Engine job
// snapshots — so a killed campaign resumes mid-grid (through Campaign::Run or shard workers) and
// finishes with byte-identical reports to an uninterrupted run. Results
// stream into a CampaignAggregator that maintains per-kernel Pareto fronts
// (incremental insertion + dominance pruning) and best-per-kernel tables;
// traces and per-step data never accumulate across the grid.
//
// The spec serializes to the same whitespace/';'-separated key=value token
// grammar as ExplorationRequest (axis keys first, base request keys after),
// and Parse() is its strict inverse — campaigns are checkpoint-keyable and
// CLI-expressible as one line.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dse/engine.hpp"
#include "dse/pareto.hpp"

namespace axdse::dse {

/// Ceiling on CampaignSpec::NumJobs(), which Validate() enforces before it
/// expands the grid.
inline constexpr std::size_t kMaxCampaignJobs = std::size_t{1} << 20;

/// Declarative sweep specification. Non-empty axis vectors multiply into
/// the grid; empty optional axes inherit the base request's single value.
///
/// Token grammar (ToString()/Parse()):
///   kernels=matmul@10{granularity=row-col},fir@100,...
///                                        (required; comma-separated
///                                         workloads::KernelSpec entries —
///                                         commas inside {...} belong to a
///                                         spec's extras)
///   agents=q-learning,sarsa,...          (optional; default = base agent)
///   action-spaces=full,compact           (optional)
///   acc-factors=0.4,0.2                  (optional threshold-factor axes)
///   power-factors=... time-factors=...
///   cache-modes=private,shared           (optional)
///   <any ExplorationRequest token>       (base: steps=, seeds=, alpha=, ...)
struct CampaignSpec {
  std::vector<workloads::KernelSpec> kernels;
  std::vector<AgentKind> agents;
  std::vector<ActionSpaceKind> action_spaces;
  std::vector<double> acc_factors;
  std::vector<double> power_factors;
  std::vector<double> time_factors;
  std::vector<CacheMode> cache_modes;
  /// Base request: every field not owned by an axis (steps, seeds, seed,
  /// hyper-parameters, rollout, cache capacity, checkpoint interval, ...).
  /// Its kernel/label/agent/action-space/threshold-factor/cache-mode fields
  /// act as axis defaults and are overwritten per cell; extras in
  /// base.kernel.extra apply to every cell (the entry's own extras win on
  /// key collisions).
  ExplorationRequest base;

  /// Checks the axes (kernels present with non-empty names and distinct),
  /// that NumJobs() is at most kMaxCampaignJobs, and that the expanded grid
  /// is well-formed: every cell request validates and no two cells are
  /// identical. The size is checked before the grid is expanded.
  /// Throws std::invalid_argument.
  void Validate() const;

  /// Grid size (product of the non-empty axis lengths), saturated at
  /// SIZE_MAX when the product overflows.
  std::size_t NumCells() const noexcept;

  /// NumCells() * base.num_seeds — the explorations the campaign runs —
  /// saturated at SIZE_MAX like NumCells().
  std::size_t NumJobs() const noexcept;

  /// Cartesian-product expansion into one request per cell, kernel-major
  /// (kernels, then agents, action spaces, acc/power/time factors, cache
  /// modes innermost). Each request gets a generated label naming its axis
  /// coordinates, e.g. "matmul@10/sarsa/acc=0.2/shared" (single-valued axes
  /// are omitted from labels).
  std::vector<ExplorationRequest> Expand() const;

  /// One-line token serialization (see the grammar above). Lossless:
  /// Parse(ToString()) reproduces the spec.
  std::string ToString() const;

  /// Strict inverse of ToString(). Axis tokens are consumed here; all
  /// remaining tokens must form a valid ExplorationRequest. Throws
  /// std::invalid_argument on unknown keys or unparsable values.
  static CampaignSpec Parse(const std::string& text);
};

/// Equality over the serialized representation.
bool operator==(const CampaignSpec& a, const CampaignSpec& b);
bool operator!=(const CampaignSpec& a, const CampaignSpec& b);

/// Campaign execution policy.
struct CampaignOptions {
  /// Grid cells (requests) per Engine::Run call. Results are streamed into
  /// the aggregator chunk by chunk; with checkpointing on, each completed
  /// chunk becomes one result document. 0 = the whole grid in one chunk.
  /// Shared-cache requests share caches within a chunk only, so the chunk
  /// size is part of a campaign's identity: resume with the same value.
  std::size_t chunk_cells = 8;
  /// Checkpoint directory (created on demand). Empty = an in-memory run.
  /// The directory is a shard state directory (see dse/shard.hpp): the
  /// manifest, chunk-<i>.done result documents and the lease of the chunk
  /// in flight, plus the Engine's job snapshots. Rerunning the same
  /// campaign against it resumes mid-grid with byte-identical final
  /// reports; shard workers and MergeShardedCampaign accept it as well.
  /// All campaign files are removed once the campaign completes, the
  /// manifest first. Every run is the shard worker "campaign", so at most
  /// one Campaign::Run may work a directory at a time.
  std::string checkpoint_directory;
  /// Engine autosave period in environment steps (see CheckpointOptions).
  std::size_t checkpoint_interval = 0;
  /// Cooperative preemption: each job takes at most this many NEW steps per
  /// invocation (see CheckpointOptions::step_budget). The campaign stops at
  /// the first chunk left unfinished. 0 = run to completion.
  std::size_t step_budget = 0;
  /// Execute at most this many NEW chunks this invocation, then suspend
  /// (the grid-level analog of step_budget). Chunks found already done
  /// don't count, so rerunning the same command always makes forward
  /// progress. 0 = no limit.
  std::size_t max_chunks = 0;
};

/// One seed-run of a cell, reduced to what campaign reports consume.
/// NOTE: campaign reports must read only the measurement deltas, the
/// precise_power_mw/precise_time_ns baselines, and `stage_counts` — chunk
/// result documents round-trip exactly those fields (whole-kernel operation
/// counts are not persisted).
struct CampaignSeedRun {
  std::uint64_t seed = 0;
  std::size_t steps = 0;
  std::string stop;  ///< rl::ToString(StopReason) of the run
  double cumulative_reward = 0.0;
  std::size_t episodes = 1;
  std::size_t kernel_runs = 0;
  std::size_t cache_hits = 0;
  std::size_t kernel_runs_executed = 0;
  std::size_t shared_cache_hits = 0;
  std::size_t surrogate_hits = 0;
  std::size_t kernel_runs_deferred = 0;

  Configuration solution;
  instrument::Measurement solution_measurement;
  std::string adder;
  std::string multiplier;
  bool feasible = false;

  bool has_best_feasible = false;
  Configuration best_feasible;
  instrument::Measurement best_feasible_measurement;

  /// Per-stage operation counts of the solution (empty for single-stage
  /// kernels); see workloads::Kernel::StageCounts.
  std::vector<workloads::StageOpCounts> stage_counts;

  /// BaselineObjective of the run's best feasible point (or of the solution
  /// when no feasible point was seen — negative by construction).
  double objective = 0.0;
};

/// One executed grid cell: the request as run plus the per-seed reductions
/// and the multi-seed aggregates (traces are dropped as results stream in).
struct CampaignCell {
  ExplorationRequest request;
  std::string kernel_name;
  RewardConfig reward;
  std::vector<CampaignSeedRun> runs;
  util::Summary solution_delta_power;
  util::Summary solution_delta_time;
  util::Summary solution_delta_acc;
  util::Summary steps;
  double feasible_fraction = 0.0;
  std::string modal_adder;
  std::string modal_multiplier;
  CacheUsage cache;
};

/// Streaming Pareto front of one kernel across every cell that ran it.
struct CampaignFront {
  std::string kernel;  ///< resolved kernel name, e.g. "matmul-10x10"
  IncrementalParetoFront front;
};

/// Best point of one kernel across the campaign: the highest
/// BaselineObjective over every run's best feasible point (grid order
/// breaks ties). When no run found a feasible point, `feasible` is false
/// and the entry carries the least-infeasible solution.
struct CampaignBest {
  std::string kernel;
  std::string cell;  ///< label of the winning cell
  std::string agent;
  std::uint64_t seed = 0;
  double objective = 0.0;
  bool feasible = false;
  Configuration config;
  instrument::Measurement measurement;
};

/// Folds RequestResults (or pre-reduced cells read from chunk result
/// documents) into the campaign aggregates: cells in grid order, one
/// incremental Pareto front and one best entry per kernel (front/best
/// order = first appearance of the kernel in the grid).
class CampaignAggregator {
 public:
  /// Reduces one engine result to its campaign cell (drops traces, keeps
  /// aggregates, computes per-run feasibility and objectives).
  static CampaignCell Reduce(const RequestResult& result);

  /// Reduce + Add in one step.
  void Add(const RequestResult& result);

  /// Folds a pre-reduced cell in (the chunk-result resume path).
  void Add(CampaignCell cell);

  const std::vector<CampaignCell>& Cells() const noexcept { return cells_; }
  const std::vector<CampaignFront>& Fronts() const noexcept {
    return fronts_;
  }
  const std::vector<CampaignBest>& Best() const noexcept { return best_; }

 private:
  std::vector<CampaignCell> cells_;
  std::vector<CampaignFront> fronts_;
  std::map<std::string, std::size_t> front_index_;
  std::vector<CampaignBest> best_;
  std::map<std::string, std::size_t> best_index_;
};

/// Outcome of one Campaign::Run call.
struct CampaignResult {
  CampaignSpec spec;
  /// Full grid size (spec.NumCells()), whether or not everything ran.
  std::size_t num_cells = 0;
  /// Cells completed this or a previous invocation, grid order.
  std::vector<CampaignCell> cells;
  std::vector<CampaignFront> fronts;
  std::vector<CampaignBest> best;
  /// Jobs suspended by CampaignOptions::step_budget this invocation.
  std::size_t unfinished_jobs = 0;
  /// Grid cells not yet completed (suspension or max_chunks).
  std::size_t pending_cells = 0;
  /// Cells of chunks found already done instead of executed.
  std::size_t resumed_cells = 0;

  bool Complete() const noexcept {
    return unfinished_jobs == 0 && pending_cells == 0;
  }

  /// Total explorations folded in (sum of runs over cells).
  std::size_t TotalRuns() const noexcept;
  /// Total environment steps across those runs.
  std::size_t TotalSteps() const noexcept;
};

/// Persisted reduction of one completed chunk: the shard result document
/// (chunk-<i>.done). A util::record_io document ("axdse-campaign-chunk
/// v3"): strict parsing (CheckpointError), atomic Save.
struct CampaignChunkCheckpoint {
  /// v2 added the surrogate counters to the "cache" and "run" lines; v3
  /// carries the KernelSpec request grammar and per-run "stage" lines.
  static constexpr unsigned kFormatVersion = 3;

  /// StableHash64 of CampaignSpec::ToString() — a document loads only into
  /// the campaign that wrote it.
  std::uint64_t spec_hash = 0;
  std::size_t chunk_index = 0;
  /// Grid index of the first cell in this chunk.
  std::size_t first_cell = 0;
  std::vector<CampaignCell> cells;

  std::string Serialize() const;
  static CampaignChunkCheckpoint Deserialize(const std::string& text);
  void Save(const std::string& path) const;
};

/// Streaming view of campaign state after one chunk, handed to
/// CampaignObserver::on_chunk. The referenced vectors are the aggregator's
/// live state: valid only for the duration of the callback.
struct CampaignChunkProgress {
  std::size_t chunk_index = 0;
  /// Cells completed so far (including resumed ones) / full grid size.
  std::size_t cells_done = 0;
  std::size_t num_cells = 0;
  /// True when this chunk was found already done (by an earlier call or
  /// another worker) instead of executed.
  bool resumed = false;
  const std::vector<CampaignFront>& fronts;
  const std::vector<CampaignBest>& best;
};

/// Observation and control hooks for Campaign::Run: the engine-level hooks
/// are forwarded to every chunk's Engine::Run call (per-job progress,
/// cooperative drain, external caches), and on_chunk fires in grid order
/// after each chunk completes or is found done — the streaming-Pareto feed.
struct CampaignObserver {
  RunHooks engine;
  std::function<void(const CampaignChunkProgress&)> on_chunk;
};

/// Executes campaigns on an Engine. Stateless between Run() calls.
class Campaign {
 public:
  explicit Campaign(const Engine& engine) : engine_(&engine) {}

  /// Validates, expands, and runs `spec` (see CampaignOptions for
  /// chunking, checkpointing, and preemption). Returns the aggregates of
  /// every completed cell; Complete() is false after a suspension — rerun
  /// with the same spec, options, and directory to continue. Throws
  /// std::invalid_argument on invalid specs and ShardError when the
  /// directory belongs to a different campaign or chunking; torn result
  /// documents and engine snapshots are recomputed, not fatal.
  ///
  /// `observer` streams per-chunk progress (see CampaignObserver). Hooks
  /// never change results; observer.engine.should_suspend additionally lets
  /// a caller drain the campaign mid-chunk (requires a checkpoint
  /// directory).
  CampaignResult Run(const CampaignSpec& spec,
                     const CampaignOptions& options = {},
                     const CampaignObserver& observer = {}) const;

 private:
  const Engine* engine_;
};

}  // namespace axdse::dse
