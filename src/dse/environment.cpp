#include "dse/environment.hpp"

#include <stdexcept>

namespace axdse::dse {

AxDseEnvironment::AxDseEnvironment(Evaluator& evaluator,
                                   const RewardConfig& reward,
                                   ActionSpaceKind action_space)
    : evaluator_(&evaluator),
      reward_(reward),
      action_space_(action_space),
      shape_(evaluator.Shape()),
      config_(InitialConfiguration(shape_)) {
  reward_.Validate();
  if (shape_.num_variables == 0)
    throw std::invalid_argument(
        "AxDseEnvironment: kernel exposes no approximable variables");
  last_measurement_ = evaluator_->Evaluate(config_);
}

std::size_t AxDseEnvironment::NumActions() const noexcept {
  return action_space_ == ActionSpaceKind::kFull ? 4 + shape_.num_variables
                                                 : 3;
}

std::string AxDseEnvironment::ActionName(std::size_t action) const {
  if (action >= NumActions())
    throw std::out_of_range("AxDseEnvironment::ActionName");
  if (action_space_ == ActionSpaceKind::kCompact) {
    switch (action) {
      case 0:
        return "adder+1";
      case 1:
        return "multiplier+1";
      default:
        return "toggle(next)";
    }
  }
  switch (action) {
    case 0:
      return "adder+1";
    case 1:
      return "adder-1";
    case 2:
      return "multiplier+1";
    case 3:
      return "multiplier-1";
    default: {
      const std::size_t var = action - 4;
      return "toggle(" + evaluator_->Kernel().Variables()[var].name + ")";
    }
  }
}

rl::StateId AxDseEnvironment::Reset(std::uint64_t /*seed*/) {
  config_ = InitialConfiguration(shape_);
  round_robin_variable_ = 0;
  return Visit();
}

void AxDseEnvironment::ApplyAction(std::size_t action) {
  if (action_space_ == ActionSpaceKind::kCompact) {
    switch (action) {
      case 0:
        NextAdder(config_, shape_);
        return;
      case 1:
        NextMultiplier(config_, shape_);
        return;
      case 2:
        config_.ToggleVariable(round_robin_variable_);
        round_robin_variable_ =
            (round_robin_variable_ + 1) % shape_.num_variables;
        return;
      default:
        throw std::out_of_range("AxDseEnvironment::Step: action");
    }
  }
  switch (action) {
    case 0:
      NextAdder(config_, shape_);
      return;
    case 1:
      PrevAdder(config_, shape_);
      return;
    case 2:
      NextMultiplier(config_, shape_);
      return;
    case 3:
      PrevMultiplier(config_, shape_);
      return;
    default: {
      const std::size_t var = action - 4;
      if (var >= shape_.num_variables)
        throw std::out_of_range("AxDseEnvironment::Step: action");
      config_.ToggleVariable(var);
      return;
    }
  }
}

rl::StepResult AxDseEnvironment::Step(std::size_t action) {
  ApplyAction(action);
  rl::StepResult result;
  result.next_state = Visit();
  const RewardOutcome outcome =
      ComputeReward(reward_, config_, last_measurement_, shape_);
  result.reward = outcome.reward;
  result.terminated = outcome.saturated;
  result.truncated = false;
  return result;
}

rl::StateId AxDseEnvironment::Visit() {
  const auto [it, fresh] = ids_.try_emplace(config_, states_.size());
  if (fresh) states_.push_back({&it->first});
  Interned& state = states_[static_cast<std::size_t>(it->second)];
  if (state.memo != nullptr)
    last_measurement_ = evaluator_->Recall(state.memo);
  else
    last_measurement_ = evaluator_->Evaluate(config_, &state.memo);
  return it->second;
}

const Configuration& AxDseEnvironment::ConfigOfState(rl::StateId state) const {
  if (state >= states_.size())
    throw std::out_of_range("AxDseEnvironment::ConfigOfState");
  return *states_[static_cast<std::size_t>(state)].config;
}

}  // namespace axdse::dse
