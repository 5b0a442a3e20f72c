#pragma once
// The paper's RL environment (its Figure 1 / Equation 1): the state is
// (adder, multiplier, variables_approx) plus the observed Δacc/Δpower/Δtime;
// actions change the adder type, change the multiplier type, or add/remove
// one variable; rewards follow Algorithm 1.

#include <string>
#include <unordered_map>
#include <vector>

#include "dse/configuration.hpp"
#include "dse/evaluator.hpp"
#include "dse/reward.hpp"
#include "rl/env.hpp"

namespace axdse::dse {

/// How the paper's three action kinds (change adder, change multiplier,
/// toggle a variable) become agent actions; the paper does not fix an
/// encoding (README "Inferred parameters").
enum class ActionSpaceKind {
  /// 4 + num_variables actions: adder +1/-1, multiplier +1/-1 (cyclic), and
  /// one toggle action per variable. The default.
  kFull,
  /// Exactly three actions (the paper's literal enumeration): next adder,
  /// next multiplier, toggle the round-robin-next variable.
  kCompact,
};

/// Gymnasium-style environment over the approximate-configuration space of
/// one kernel. States are interned configuration ids, dense in first-visit
/// order (0, 1, 2, ...) so agents index their Q-tables by them; the full
/// observation (configuration + measured deltas) is available via
/// ConfigOfState() / LastMeasurement().
///
/// A step hashes its configuration once, to find its id. Every interned
/// state keeps the evaluator's memo handle of its ground-truth measurement
/// once it has one, so a revisit reads the measurement through the handle
/// (Evaluator::Recall) instead of hashing again; a state without a handle
/// (first visit or surrogate-predicted answer) is evaluated with
/// Evaluator::Evaluate. Handles live as long as the evaluator, which must
/// outlive the environment anyway.
class AxDseEnvironment final : public rl::Env {
 public:
  /// The evaluator must outlive the environment.
  /// Throws std::invalid_argument on invalid reward config.
  AxDseEnvironment(Evaluator& evaluator, const RewardConfig& reward,
                   ActionSpaceKind action_space = ActionSpaceKind::kFull);

  /// Returns to the all-precise configuration.
  rl::StateId Reset(std::uint64_t seed) override;

  /// Applies the action, evaluates the new configuration, and rewards it per
  /// Algorithm 1. `terminated` mirrors the algorithm's saturation flag.
  rl::StepResult Step(std::size_t action) override;

  std::size_t NumActions() const noexcept override;

  /// Name of an action (for traces), e.g. "adder+1" or "toggle(x)".
  std::string ActionName(std::size_t action) const;

  /// The configuration the environment is currently in.
  const Configuration& CurrentConfig() const noexcept { return config_; }

  /// Observations for the current configuration (Δacc, Δpower, Δtime...).
  const instrument::Measurement& LastMeasurement() const noexcept {
    return last_measurement_;
  }

  /// Configuration interned under `state`. Throws std::out_of_range for ids
  /// never produced by this environment.
  const Configuration& ConfigOfState(rl::StateId state) const;

  /// Number of distinct configurations visited (interned states).
  std::size_t NumInternedStates() const noexcept { return states_.size(); }

  const RewardConfig& Reward() const noexcept { return reward_; }
  const SpaceShape& Shape() const noexcept { return shape_; }
  ActionSpaceKind ActionSpace() const noexcept { return action_space_; }

 private:
  /// One interned state: its configuration (the key inside ids_, whose
  /// nodes never move) and its memo handle, null until a ground-truth
  /// evaluation hands one out.
  struct Interned {
    const Configuration* config;
    Evaluator::MemoHandle memo = nullptr;
  };

  /// Interns config_ and evaluates it into last_measurement_, with one hash.
  rl::StateId Visit();
  void ApplyAction(std::size_t action);

  Evaluator* evaluator_;
  RewardConfig reward_;
  ActionSpaceKind action_space_;
  SpaceShape shape_;
  Configuration config_;
  instrument::Measurement last_measurement_;
  std::vector<Interned> states_;  ///< indexed by StateId
  std::unordered_map<Configuration, rl::StateId, Configuration::Hash> ids_;
  std::size_t round_robin_variable_ = 0;
};

}  // namespace axdse::dse
