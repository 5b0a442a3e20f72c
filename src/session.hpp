#pragma once
// axdse::Session — the top of the facade. One object that knows the kernel
// registry and owns a batch engine, so the whole paper pipeline is:
//
//   axdse::Session session;
//   auto result = session.Explore(
//       axdse::Session::Request("matmul").Size(10).MaxSteps(10000).Build());
//
// Sessions are cheap to construct; the kernel registry behind them is the
// process-wide one (custom kernels registered through any session are
// visible to all).

#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "dse/engine.hpp"
#include "dse/shard.hpp"

namespace axdse {

class Session {
 public:
  /// `options.num_workers` sizes the batch worker pool (0 = hardware).
  explicit Session(const dse::EngineOptions& options = {});

  /// Names of all registered kernels, sorted.
  std::vector<std::string> Kernels() const;

  /// Registers a custom kernel factory (process-wide). Throws
  /// std::invalid_argument on duplicate or empty names.
  void RegisterKernel(const std::string& name,
                      workloads::KernelRegistry::Factory factory);

  /// Fluent request builder, pre-targeted at `kernel`.
  static dse::RequestBuilder Request(const std::string& kernel);

  /// Runs one request (all its seeds, possibly in parallel).
  dse::RequestResult Explore(const dse::ExplorationRequest& request) const;

  /// Runs a batch of requests on the worker pool; results in request order,
  /// identical for any worker count.
  dse::BatchResult ExploreBatch(
      const std::vector<dse::ExplorationRequest>& requests) const;

  /// ExploreBatch under a checkpoint policy (see dse::CheckpointOptions):
  /// jobs resume from snapshots in the directory, autosave while running,
  /// and optionally suspend after a step budget. A suspended-and-resumed
  /// batch finishes with byte-identical results and exports to an
  /// uninterrupted one.
  dse::BatchResult ExploreBatch(
      const std::vector<dse::ExplorationRequest>& requests,
      const dse::CheckpointOptions& checkpoint) const;

  /// Continues a batch previously suspended into `directory` and runs it to
  /// completion (snapshot files are removed once everything finished).
  dse::BatchResult ResumeBatch(
      const std::vector<dse::ExplorationRequest>& requests,
      const std::string& directory) const;

  /// ExploreBatch with every request switched to CacheMode::kShared: jobs
  /// with the same kernel identity reuse each other's kernel runs. Results
  /// (solutions, traces, rewards) are byte-identical to ExploreBatch; only
  /// the kernel-run cost drops (see BatchResult::TotalSavedRuns()).
  dse::BatchResult ExploreBatchShared(
      std::vector<dse::ExplorationRequest> requests) const;

  /// Scores candidate configurations of one kernel identity through a single
  /// evaluator, lane-parallel (see dse::Engine::Score): up to `lanes`
  /// configurations per kernel traversal, 0 = full lane width, 1 = the
  /// sequential scalar path. Bit-identical to sequential evaluation.
  std::vector<instrument::Measurement> Score(
      const dse::ExplorationRequest& identity,
      const std::vector<dse::Configuration>& configs,
      std::size_t lanes = 0) const;

  /// Expands a declarative sweep spec into its request grid and runs it
  /// through the engine in chunks (see dse::Campaign). Results stream into
  /// per-kernel Pareto fronts and best-point tables. With a checkpoint
  /// directory the campaign works it as a shard state directory, so a
  /// suspended campaign (options.step_budget / max_chunks) resumes from it
  /// with byte-identical final reports — or shard workers finish it.
  dse::CampaignResult RunCampaign(
      const dse::CampaignSpec& spec,
      const dse::CampaignOptions& options = {}) const;

  /// Runs this process's share of a multi-process campaign: chunks are
  /// claimed from the shared state directory through crash-safe owner
  /// leases (see dse::ShardWorker). Any number of processes may point at
  /// the same directory; once any of them returns with `complete`,
  /// MergeShardedCampaign yields the byte-identical equivalent of a
  /// single-process RunCampaign of the same spec and chunk size.
  dse::ShardRunReport RunShardedCampaign(const dse::CampaignSpec& spec,
                                         const dse::ShardOptions& options) const;

  /// Folds a completed sharded campaign's state directory into one
  /// CampaignResult (see dse::MergeShardedCampaign). Throws dse::ShardError
  /// when the directory is incomplete or foreign.
  static dse::CampaignResult MergeShardedCampaign(
      const std::string& state_directory);

  /// The underlying batch engine.
  const dse::Engine& Engine() const noexcept { return engine_; }

 private:
  dse::Engine engine_;
};

}  // namespace axdse
