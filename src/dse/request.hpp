#pragma once
// ExplorationRequest: one validated, serializable description of a DSE run —
// which kernel (by registry name + parameters), which agent and action
// space, the step/reward budget, the paper's threshold recipe, and how many
// seeds to repeat it over. It subsumes the scattered ExplorerConfig /
// RewardConfig / PaperThresholdFactors surface behind a single value type:
// callers assign its fields (or use designated initializers), call
// Validate(), and hand it to dse::Engine. It round-trips through one
// key=value token grammar (ToString / Parse), which campaign specs, serve
// SUBMITs and checkpoints reuse.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dse/explorer.hpp"
#include "workloads/registry.hpp"

namespace axdse::dse {

/// How a request's jobs use the evaluation cache.
///
/// kPrivate — every (request, seed) job owns its memo table; jobs never see
/// each other's kernel runs (the historical behavior).
/// kShared — all jobs in the batch with the same kernel identity (name,
/// size, kernel seed, extras — or the same kernel_override instance) share
/// one SharedEvaluationCache, so a configuration any job has measured is
/// never executed again by the others. Solutions, traces, and rewards are
/// byte-identical to private mode for any worker count; only the number of
/// kernel executions changes.
enum class CacheMode {
  kPrivate,
  kShared,
};

/// Percent-escaping used by the request (and campaign) token grammar: '%',
/// '=', ';', and whitespace are encoded so free-text values survive the
/// space-separated key=value format losslessly.
std::string EscapeRequestToken(const std::string& text);
/// Inverse of EscapeRequestToken.
std::string UnescapeRequestToken(const std::string& text);

/// Splits request (and campaign) text on runs of whitespace and ';' into
/// (key, value) pairs, split at each token's first '='. Throws
/// std::invalid_argument, prefixed with `context`, for a token without '='.
std::vector<std::pair<std::string, std::string>> SplitRequestTokens(
    const std::string& text, const char* context);

/// Human-readable cache-mode name ("private" / "shared").
const char* ToString(CacheMode mode) noexcept;

/// Inverse of ToString(CacheMode). Throws std::invalid_argument.
CacheMode CacheModeFromName(const std::string& name);

/// Human-readable action-space name ("full" / "compact").
const char* ToString(ActionSpaceKind kind) noexcept;

/// Inverse of ToString(AgentKind). Throws std::invalid_argument for names
/// that match no agent.
AgentKind AgentKindFromName(const std::string& name);

/// Inverse of ToString(ActionSpaceKind). Throws std::invalid_argument.
ActionSpaceKind ActionSpaceFromName(const std::string& name);

/// Ceiling on ExplorationRequest::num_seeds, which Validate() enforces.
/// The paper and every bundled bench use at most 8 seeds.
inline constexpr std::size_t kMaxSeeds = 65536;

/// A complete, self-contained exploration job description. Every member
/// has a default (`{}` where there is no other), so designated initializers
/// may name any subset, in declaration order.
struct ExplorationRequest {
  // --- What to explore -----------------------------------------------------
  /// The typed kernel identity: registry name, primary size, and extras
  /// (see workloads::KernelSpec). `kernel.name` may stay empty only when
  /// `kernel_override` is set.
  workloads::KernelSpec kernel;
  /// Seed for the kernel's input-data generation (KernelParams::seed).
  /// Deliberately outside the spec: the same kernel identity explored under
  /// different data seeds still groups as one kernel in campaign reports.
  std::uint64_t kernel_seed = 42;
  /// Display name for reports; DisplayName() falls back to the spec string.
  std::string label{};

  // --- How to explore ------------------------------------------------------
  AgentKind agent_kind = AgentKind::kQLearning;
  ActionSpaceKind action_space = ActionSpaceKind::kFull;
  std::size_t max_steps = 10000;
  double max_cumulative_reward = 500.0;
  std::size_t episodes = 1;
  /// Number of repeated explorations; run i uses agent seed `seed + i`.
  /// At most kMaxSeeds.
  std::size_t num_seeds = 1;
  std::uint64_t seed = 1;
  std::size_t greedy_rollout_steps = 0;
  /// Keep per-step traces (costs memory; off by default for batches).
  bool record_trace = false;
  /// Evaluation-cache mode (see CacheMode). Shared mode changes only cost,
  /// never results.
  CacheMode cache_mode = CacheMode::kPrivate;
  /// Entry bound for the shared cache (0 = unbounded). A bounded cache
  /// rejects new entries once full (no eviction), trading extra kernel runs
  /// for a memory ceiling; results are still identical. When several
  /// requests share one cache, the first request's bound wins.
  std::size_t cache_capacity = 0;
  /// Checkpoint autosave period in environment steps for this request's
  /// jobs, overriding CheckpointOptions::interval when non-zero. Only
  /// meaningful when the engine runs with a checkpoint directory; see
  /// dse/checkpoint.hpp.
  std::size_t checkpoint_interval = 0;
  /// Enable the surrogate evaluator tier (dse/surrogate.hpp): skip kernel
  /// runs the online model confidently predicts infeasible, with the
  /// ground-truth valve on solutions. Ignored (surrogate stays off) when
  /// `record_trace` is set — traces must contain real measurements only.
  bool surrogate = false;

  // --- Agent hyper-parameters ---------------------------------------------
  double alpha = 0.1;
  double gamma = 0.95;
  double initial_q = 0.0;
  double lambda = 0.8;  ///< trace decay, used by AgentKind::kQLambda only
  /// Linear epsilon schedule: start -> end over `epsilon_decay_steps` steps;
  /// 0 decay steps means "3/4 of max_steps" (the benches' convention).
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::size_t epsilon_decay_steps = 0;

  // --- Reward thresholds (the paper's Section III recipe) ------------------
  PaperThresholdFactors thresholds{};

  // --- Escape hatch (not serialized) --------------------------------------
  /// Explore this kernel instance instead of constructing one from the
  /// registry; set `kernel.name` to its Name() for reports. The pointee
  /// must stay alive for the duration of the run and its Run() must be
  /// const-thread-safe (all built-ins are).
  std::shared_ptr<const workloads::Kernel> kernel_override{};

  /// Checks invariants (budget > 0, 1 <= num_seeds <= kMaxSeeds, rates in
  /// range, finite initial Q, a kernel name or non-null instance present). Registry membership of the
  /// name is checked by the engine, which knows the registry. Throws
  /// std::invalid_argument.
  void Validate() const;

  /// Lowers the request to the single-run ExplorerConfig it describes.
  ExplorerConfig ToExplorerConfig() const;

  /// `label` when set, otherwise the kernel spec string.
  std::string DisplayName() const;

  /// Serializes every serializable field as space-separated key=value
  /// tokens, e.g. "kernel=matmul@10{granularity=row-col} kernel-seed=42
  /// ... acc-factor=0.4". The kernel identity is one KernelSpec token (its
  /// own escaping keeps it free of separators). Stable field order; doubles
  /// use shortest-round-trip formatting, so Parse(ToString()) is lossless.
  std::string ToString() const;

  /// Inverse of ToString(). Accepts whitespace- and/or ';'-separated
  /// key=value tokens. Integers are unsigned decimal (no sign); doubles are
  /// read locale-independently and may be infinite but never NaN. Throws
  /// std::invalid_argument naming the key on unknown keys or unparsable
  /// values.
  static ExplorationRequest Parse(const std::string& text);
};

/// Equality over the serialized representation (kernel_override excluded).
bool operator==(const ExplorationRequest& a, const ExplorationRequest& b);
bool operator!=(const ExplorationRequest& a, const ExplorationRequest& b);

}  // namespace axdse::dse
