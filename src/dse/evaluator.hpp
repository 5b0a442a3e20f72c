#pragma once
// Deterministic configuration evaluator: runs the instrumented kernel under a
// configuration and produces the paper's observations (Δacc per Eq. 2,
// Δpower, Δtime from the per-op characterization), memoized per
// configuration.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dse/configuration.hpp"
#include "dse/surrogate.hpp"
#include "energy/energy_model.hpp"
#include "instrument/evaluation_cache.hpp"
#include "instrument/measurement.hpp"
#include "instrument/multi_approx_context.hpp"
#include "instrument/shared_evaluation_cache.hpp"
#include "workloads/kernel.hpp"

namespace axdse::dse {

/// Evaluates configurations for one kernel. Owns the context, the energy
/// model, the golden (precise) run, and a private evaluation cache; an
/// external SharedEvaluationCache can be layered behind the private one so
/// concurrent evaluators of the same kernel identity reuse each other's
/// kernel runs. Not thread-safe; use one Evaluator per exploration (the
/// shared cache itself is fully thread-safe).
class Evaluator {
 public:
  /// Runs the precise version once to capture golden outputs, op counts,
  /// and precise power/time. The kernel must outlive the evaluator.
  /// `shared_cache`, when non-null, is consulted on private-cache misses
  /// and must be dedicated to this kernel identity (same name, size, seed,
  /// and extras — the Engine guarantees this); sharing a cache between
  /// different kernels would serve measurements of the wrong workload.
  explicit Evaluator(
      const workloads::Kernel& kernel,
      std::shared_ptr<instrument::SharedEvaluationCache> shared_cache =
          nullptr);

  /// Handle to a ground-truth entry of the private memo. Valid for the
  /// evaluator's lifetime: memo entries are never erased, and inserting
  /// other configurations never moves one.
  using MemoHandle = const instrument::Measurement*;

  /// Measures `config` (cache-backed). Throws std::invalid_argument if the
  /// configuration shape does not match the kernel.
  ///
  /// With the surrogate tier enabled the answer may be a PREDICTED
  /// measurement (see dse/surrogate.hpp): Δpower/Δtime exact, Δacc a
  /// confident over-threshold prediction. Predicted answers are memoized —
  /// repeat visits return the same bytes — and IsPredicted() tells them
  /// apart from ground truth.
  ///
  /// When `memo` is non-null and the answer is ground truth (a private hit
  /// or a fresh measurement), `*memo` receives the handle of its memo entry
  /// at no extra hash; it is left untouched for a predicted answer, which
  /// may later be replaced by ground truth.
  instrument::Measurement Evaluate(const Configuration& config,
                                   MemoHandle* memo = nullptr);

  /// Repeat visit through a handle Evaluate() handed out: the stored
  /// measurement, counted as the private hit Evaluate() of the same
  /// configuration would have counted — without hashing it.
  const instrument::Measurement& Recall(MemoHandle memo) noexcept {
    cache_.CountHit();
    return *memo;
  }

  /// Scores a batch of sibling configurations, lane-parallel where
  /// profitable: uncached configurations are collected into groups of up to
  /// MultiApproxContext::kMaxLanes and scored in ONE kernel pass each, with
  /// per-lane counts/outputs bit-identical to the scalar path — so every
  /// returned Measurement, the private-cache contents, and the
  /// hit/miss/KernelRuns() counters are exactly what the equivalent
  /// sequential Evaluate() loop would have produced. (KernelRuns() counts
  /// per-configuration scoring work: a lane pass over k configurations
  /// counts k, keeping checkpoint/determinism invariants intact.)
  ///
  /// Falls back to the sequential loop verbatim when the surrogate tier is
  /// enabled (its skip/observe decisions are order-coupled) or the kernel
  /// has no lane support. With a shared cache attached, batch lanes consult
  /// it up front and publish results with Insert() instead of coordinating
  /// through FetchOrCompute(); shared-tier statistics were already
  /// scheduling-dependent and stay that way.
  std::vector<instrument::Measurement> MultiEvaluate(
      const std::vector<Configuration>& configs);

  /// GroundTruth() over a batch, lane-parallel where profitable. Safe (and
  /// useful) with the surrogate enabled: ground-truthing never feeds
  /// Observe(), so batching preserves the scalar sequence's surrogate
  /// bookkeeping exactly — predictions are invalidated and
  /// KernelRunsDeferred() decremented per configuration, in order.
  std::vector<instrument::Measurement> GroundTruthMany(
      const std::vector<Configuration>& configs);

  /// Enables the surrogate tier (idempotent re-enable is an error). Must be
  /// called on a fresh evaluator, before the first Evaluate(), with the
  /// run's accuracy threshold (RewardConfig::acc_threshold).
  void EnableSurrogate(double acc_threshold,
                       const SurrogateOptions& options = {});

  bool SurrogateEnabled() const noexcept { return surrogate_ != nullptr; }

  /// True when Evaluate(config) is currently answered by a surrogate
  /// prediction rather than a real kernel run.
  bool IsPredicted(const Configuration& config) const;

  /// Forces a real measurement of `config` (the correctness valve): runs the
  /// kernel (or consults the caches) even if the surrogate predicted it, and
  /// drops the prediction so every later Evaluate() returns ground truth.
  instrument::Measurement GroundTruth(const Configuration& config);

  /// Evaluate() calls answered by the surrogate tier (first-time skips and
  /// memoized repeat visits). Deterministic per run.
  std::size_t SurrogateHits() const noexcept { return surrogate_hits_; }

  /// Distinct configurations skipped by the surrogate and (still) never
  /// executed — the kernel runs saved. GroundTruth() decrements.
  std::size_t KernelRunsDeferred() const noexcept {
    return kernel_runs_deferred_;
  }

  /// The kernel being explored.
  const workloads::Kernel& Kernel() const noexcept { return *kernel_; }

  /// Shape of this kernel's configuration space.
  const SpaceShape& Shape() const noexcept { return shape_; }

  /// Mean of |precise output| — the basis of the paper's accuracy threshold
  /// (acc_th = 0.4 x average precise output).
  double MeanAbsPreciseOutput() const noexcept { return mean_abs_output_; }

  /// Cost of the precise run under the additive per-op model.
  double PrecisePowerMw() const noexcept { return precise_power_mw_; }
  double PreciseTimeNs() const noexcept { return precise_time_ns_; }

  /// Golden outputs (for reporting / tests).
  const std::vector<double>& PreciseOutputs() const noexcept {
    return precise_outputs_;
  }

  /// Number of actual kernel executions by THIS evaluator. Without a shared
  /// cache this equals DistinctEvaluations(); with one it is lower (shared
  /// hits replace executions) and depends on scheduling.
  std::size_t KernelRuns() const noexcept { return kernel_runs_; }

  /// Number of private-cache hits across Evaluate() and Recall() calls
  /// (deterministic — repeat visits along this evaluator's own exploration
  /// path).
  std::size_t CacheHits() const noexcept { return cache_.Hits(); }

  /// Evaluations answered by the shared cache (0 without one).
  std::size_t SharedHits() const noexcept { return shared_hits_; }

  /// Distinct configurations this evaluator evaluated — the kernel runs a
  /// private-cache evaluator would have executed. Identical across cache
  /// modes and worker counts; KernelRuns() + SharedHits().
  std::size_t DistinctEvaluations() const noexcept {
    return kernel_runs_ + shared_hits_;
  }

  /// The external cache handle (null when running privately).
  const instrument::SharedEvaluationCache* SharedCache() const noexcept {
    return shared_cache_.get();
  }

  /// Replaces the cache consulted on private-cache misses (null for none)
  /// and returns the previous one. Explorer::ResumeFrom installs a cache
  /// restored from the snapshot's memo for the length of its replay, so the
  /// replay runs no kernel for a memoized configuration and never touches
  /// the batch's shared cache, then puts the previous cache back.
  std::shared_ptr<instrument::SharedEvaluationCache> ExchangeSharedCache(
      std::shared_ptr<instrument::SharedEvaluationCache> cache) noexcept {
    std::swap(cache, shared_cache_);
    return cache;
  }

  /// The evaluator's part of a dse::Checkpoint: the private memo entries
  /// plus the four cost counters a resume restores after its replay (the
  /// replay's own kernel runs and shared hits depend on the caches it met).
  struct CacheState {
    std::vector<std::pair<Configuration, instrument::Measurement>> entries;
    std::size_t kernel_runs = 0;
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::size_t shared_hits = 0;
  };

  /// Captures the current memo contents and counters. Entry order is
  /// unspecified — the checkpoint serializer sorts.
  CacheState CaptureCacheState() const;

  /// Overwrites the counters with checkpointed values. Called last on
  /// resume, after the replay bumped them.
  void RestoreCounters(std::size_t kernel_runs, std::size_t cache_hits,
                       std::size_t cache_misses, std::size_t shared_hits);

 private:
  /// Runs the kernel under `config` and builds the measurement (the
  /// cache-miss path; increments kernel_runs_).
  instrument::Measurement Measure(const Configuration& config);

  /// Derives a Measurement from one configuration's op counts and outputs
  /// (shared by the scalar and the lane-parallel compute paths).
  instrument::Measurement BuildMeasurement(const Configuration& config,
                                           const energy::OpCounts& counts,
                                           std::span<const double> outputs) const;

  /// Scores `pending` (1..kMaxLanes distinct uncached configurations) in one
  /// lane-parallel kernel pass (scalar Measure() for a single lane), inserts
  /// each measurement into the private — and, when attached, shared — cache
  /// in lane order, and returns the measurements in the same order.
  std::vector<instrument::Measurement> RunLanesBatch(
      const std::vector<Configuration>& pending);

  const workloads::Kernel* kernel_;
  energy::EnergyModel energy_;
  instrument::ApproxContext context_;
  SpaceShape shape_;
  std::vector<double> precise_outputs_;
  double mean_abs_output_ = 0.0;
  double precise_power_mw_ = 0.0;
  double precise_time_ns_ = 0.0;
  /// Ground-truths `config` on a private-cache miss (shared cache first when
  /// attached), inserts the result into the private memo and returns the
  /// memo entry.
  const instrument::Measurement& ComputeAndCache(const Configuration& config);

  instrument::EvaluationCache cache_;
  std::shared_ptr<instrument::SharedEvaluationCache> shared_cache_;
  // Lane-parallel context, built on the first multi-lane batch.
  std::unique_ptr<instrument::MultiApproxContext> multi_context_;
  std::size_t kernel_runs_ = 0;
  std::size_t shared_hits_ = 0;
  std::unique_ptr<SurrogateModel> surrogate_;
  std::size_t surrogate_hits_ = 0;
  std::size_t kernel_runs_deferred_ = 0;
};

}  // namespace axdse::dse
