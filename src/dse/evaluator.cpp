#include "dse/evaluator.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace axdse::dse {

Evaluator::Evaluator(
    const workloads::Kernel& kernel,
    std::shared_ptr<instrument::SharedEvaluationCache> shared_cache)
    : kernel_(&kernel),
      energy_(kernel.Operators()),
      context_(kernel.Operators(), kernel.NumVariables()),
      shape_(ShapeOf(kernel.Operators(), kernel.NumVariables())),
      shared_cache_(std::move(shared_cache)) {
  // Golden run: all-precise configuration. Always executed locally — the
  // golden outputs are the accuracy baseline every later Evaluate() needs,
  // so a shared cache cannot stand in for this run.
  context_.Configure(InitialConfiguration(shape_));
  precise_outputs_ = kernel_->Run(context_);
  ++kernel_runs_;
  if (precise_outputs_.empty())
    throw std::invalid_argument("Evaluator: kernel produced no outputs");
  double abs_sum = 0.0;
  for (const double v : precise_outputs_) abs_sum += std::abs(v);
  mean_abs_output_ = abs_sum / static_cast<double>(precise_outputs_.size());
  const energy::CostEstimate precise_cost =
      energy_.PreciseCost(context_.Counts());
  precise_power_mw_ = precise_cost.power_mw;
  precise_time_ns_ = precise_cost.time_ns;

  // Seed the private cache with the golden configuration so the all-precise
  // point is never executed twice. (Private only: every evaluator of a
  // shared group seeds its own, so a shared golden entry would never be
  // read — it would just waste a slot of a capacity-bounded cache.)
  instrument::Measurement golden;
  golden.counts = context_.Counts();
  golden.precise_power_mw = precise_power_mw_;
  golden.precise_time_ns = precise_time_ns_;
  golden.approx_power_mw = precise_power_mw_;
  golden.approx_time_ns = precise_time_ns_;
  cache_.Insert(InitialConfiguration(shape_), golden);
}

instrument::Measurement Evaluator::Measure(const Configuration& config) {
  context_.Configure(config);
  const std::vector<double> outputs = kernel_->Run(context_);
  ++kernel_runs_;
  return BuildMeasurement(config, context_.Counts(), outputs);
}

instrument::Measurement Evaluator::BuildMeasurement(
    const Configuration& config, const energy::OpCounts& counts,
    std::span<const double> outputs) const {
  instrument::Measurement m;
  m.counts = counts;
  m.delta_acc = kernel_->AccuracyError(precise_outputs_, outputs);
  const energy::CostEstimate approx_cost =
      energy_.Cost(m.counts, config.AdderIndex(), config.MultiplierIndex());
  m.approx_power_mw = approx_cost.power_mw;
  m.approx_time_ns = approx_cost.time_ns;
  m.precise_power_mw = precise_power_mw_;
  m.precise_time_ns = precise_time_ns_;
  m.delta_power_mw = precise_power_mw_ - approx_cost.power_mw;
  m.delta_time_ns = precise_time_ns_ - approx_cost.time_ns;
  return m;
}

std::vector<instrument::Measurement> Evaluator::RunLanesBatch(
    const std::vector<Configuration>& pending) {
  std::vector<instrument::Measurement> measured(pending.size());
  if (pending.size() == 1) {
    measured[0] = Measure(pending[0]);
  } else {
    if (!multi_context_)
      multi_context_ = std::make_unique<instrument::MultiApproxContext>(
          kernel_->Operators(), kernel_->NumVariables());
    multi_context_->Configure(pending);
    const std::vector<double> outputs = kernel_->RunLanes(*multi_context_);
    // KernelRuns() counts per-configuration scoring work (the checkpoint /
    // determinism invariant), not physical passes.
    kernel_runs_ += pending.size();
    const std::size_t out_size = outputs.size() / pending.size();
    for (std::size_t j = 0; j < pending.size(); ++j)
      measured[j] = BuildMeasurement(
          pending[j], multi_context_->Counts(j),
          std::span<const double>(outputs).subspan(j * out_size, out_size));
  }
  for (std::size_t j = 0; j < pending.size(); ++j) {
    cache_.Insert(pending[j], measured[j]);
    if (shared_cache_) shared_cache_->Insert(pending[j], measured[j]);
  }
  return measured;
}

std::vector<instrument::Measurement> Evaluator::MultiEvaluate(
    const std::vector<Configuration>& configs) {
  std::vector<instrument::Measurement> results(configs.size());
  // Sequential fallback: the surrogate's skip/observe decisions are coupled
  // to evaluation order, and a kernel without lane support gains nothing.
  if (surrogate_ || !kernel_->SupportsLanes()) {
    for (std::size_t i = 0; i < configs.size(); ++i)
      results[i] = Evaluate(configs[i]);
    return results;
  }
  std::vector<Configuration> pending;
  std::vector<std::size_t> pending_idx;
  pending.reserve(instrument::MultiApproxContext::kMaxLanes);
  const auto flush = [&] {
    if (pending.empty()) return;
    const std::vector<instrument::Measurement> measured =
        RunLanesBatch(pending);
    for (std::size_t j = 0; j < pending.size(); ++j)
      results[pending_idx[j]] = measured[j];
    pending.clear();
    pending_idx.clear();
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Configuration& config = configs[i];
    if (!FitsShape(shape_, config))
      throw std::invalid_argument(
          "Evaluator::MultiEvaluate: configuration does not match the "
          "kernel's space (variable count or operator index out of range)");
    // A repeat of a pending lane must observe that lane's insert first, so
    // its Find below is a private hit exactly as in the sequential path.
    bool repeat = false;
    for (const Configuration& p : pending)
      if (p == config) {
        repeat = true;
        break;
      }
    if (repeat) flush();
    if (const instrument::Measurement* cached = cache_.Find(config)) {
      results[i] = *cached;
      continue;
    }
    if (shared_cache_) {
      if (const auto hit = shared_cache_->Lookup(config); hit.has_value()) {
        ++shared_hits_;
        cache_.Insert(config, *hit);
        results[i] = *hit;
        continue;
      }
    }
    pending.push_back(config);
    pending_idx.push_back(i);
    if (pending.size() == instrument::MultiApproxContext::kMaxLanes) flush();
  }
  flush();
  return results;
}

std::vector<instrument::Measurement> Evaluator::GroundTruthMany(
    const std::vector<Configuration>& configs) {
  std::vector<instrument::Measurement> results(configs.size());
  if (!kernel_->SupportsLanes()) {
    for (std::size_t i = 0; i < configs.size(); ++i)
      results[i] = GroundTruth(configs[i]);
    return results;
  }
  // Drops the surrogate prediction for a freshly ground-truthed
  // configuration — the scalar GroundTruth()'s epilogue, applied per
  // configuration in batch order.
  const auto invalidate = [&](const Configuration& config) {
    if (surrogate_ && surrogate_->Lookup(config) != nullptr) {
      surrogate_->Invalidate(config);
      if (kernel_runs_deferred_ > 0) --kernel_runs_deferred_;
    }
  };
  std::vector<Configuration> pending;
  std::vector<std::size_t> pending_idx;
  pending.reserve(instrument::MultiApproxContext::kMaxLanes);
  const auto flush = [&] {
    if (pending.empty()) return;
    const std::vector<instrument::Measurement> measured =
        RunLanesBatch(pending);
    for (std::size_t j = 0; j < pending.size(); ++j) {
      results[pending_idx[j]] = measured[j];
      invalidate(pending[j]);
    }
    pending.clear();
    pending_idx.clear();
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Configuration& config = configs[i];
    if (!FitsShape(shape_, config))
      throw std::invalid_argument(
          "Evaluator::GroundTruthMany: configuration does not match the "
          "kernel's space");
    bool repeat = false;
    for (const Configuration& p : pending)
      if (p == config) {
        repeat = true;
        break;
      }
    if (repeat) flush();
    // A private-cache hit is already ground truth (predictions are memoized
    // in the surrogate, never in the private memo) — same early return, no
    // invalidation, as the scalar GroundTruth().
    if (const instrument::Measurement* cached = cache_.Find(config)) {
      results[i] = *cached;
      continue;
    }
    if (shared_cache_) {
      if (const auto hit = shared_cache_->Lookup(config); hit.has_value()) {
        ++shared_hits_;
        cache_.Insert(config, *hit);
        results[i] = *hit;
        invalidate(config);
        continue;
      }
    }
    pending.push_back(config);
    pending_idx.push_back(i);
    if (pending.size() == instrument::MultiApproxContext::kMaxLanes) flush();
  }
  flush();
  return results;
}

void Evaluator::EnableSurrogate(double acc_threshold,
                                const SurrogateOptions& options) {
  if (surrogate_)
    throw std::logic_error("Evaluator::EnableSurrogate: already enabled");
  surrogate_ = std::make_unique<SurrogateModel>(
      shape_, acc_threshold, energy_, precise_power_mw_, precise_time_ns_,
      options);
}

bool Evaluator::IsPredicted(const Configuration& config) const {
  return surrogate_ && surrogate_->Lookup(config) != nullptr;
}

instrument::Measurement Evaluator::GroundTruth(const Configuration& config) {
  if (!FitsShape(shape_, config))
    throw std::invalid_argument(
        "Evaluator::GroundTruth: configuration does not match the kernel's "
        "space");
  if (const instrument::Measurement* cached = cache_.Find(config))
    return *cached;
  const instrument::Measurement& m = ComputeAndCache(config);
  if (surrogate_ && surrogate_->Lookup(config) != nullptr) {
    surrogate_->Invalidate(config);
    if (kernel_runs_deferred_ > 0) --kernel_runs_deferred_;
  }
  return m;
}

Evaluator::CacheState Evaluator::CaptureCacheState() const {
  CacheState state;
  state.entries.reserve(cache_.Entries().size());
  for (const auto& [config, measurement] : cache_.Entries())
    state.entries.emplace_back(config, measurement);
  state.kernel_runs = kernel_runs_;
  state.cache_hits = cache_.Hits();
  state.cache_misses = cache_.Misses();
  state.shared_hits = shared_hits_;
  return state;
}

void Evaluator::RestoreCounters(std::size_t kernel_runs,
                                std::size_t cache_hits,
                                std::size_t cache_misses,
                                std::size_t shared_hits) {
  kernel_runs_ = kernel_runs;
  shared_hits_ = shared_hits;
  cache_.RestoreStats(cache_hits, cache_misses);
}

const instrument::Measurement& Evaluator::ComputeAndCache(
    const Configuration& config) {
  if (!shared_cache_) return cache_.Insert(config, Measure(config));
  bool computed = false;
  const instrument::Measurement m = shared_cache_->FetchOrCompute(
      config, [&] { return Measure(config); }, &computed);
  if (!computed) ++shared_hits_;
  return cache_.Insert(config, m);
}

instrument::Measurement Evaluator::Evaluate(const Configuration& config,
                                            MemoHandle* memo) {
  if (!FitsShape(shape_, config))
    throw std::invalid_argument(
        "Evaluator::Evaluate: configuration does not match the kernel's "
        "space (variable count or operator index out of range)");

  // Private cache first: repeat visits along this exploration's own path
  // never touch the shared shards (keeps contention to genuinely new work).
  if (const instrument::Measurement* cached = cache_.Find(config)) {
    if (memo != nullptr) *memo = cached;
    return *cached;
  }

  // Surrogate tier. The skip decision happens BEFORE the shared cache is
  // consulted, from job-local state only — whether another worker already
  // computed this configuration must not influence this run's trajectory.
  if (surrogate_) {
    if (const instrument::Measurement* predicted = surrogate_->Lookup(config)) {
      ++surrogate_hits_;
      return *predicted;
    }
    instrument::Measurement predicted;
    if (surrogate_->TrySkip(config, &predicted)) {
      ++surrogate_hits_;
      ++kernel_runs_deferred_;
      return predicted;
    }
  }

  const instrument::Measurement& m = ComputeAndCache(config);
  if (memo != nullptr) *memo = &m;
  if (surrogate_) surrogate_->Observe(config, m);
  return m;
}

}  // namespace axdse::dse
