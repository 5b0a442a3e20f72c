#include "dse/environment.hpp"

#include <stdexcept>
#include <unordered_set>
#include <utility>

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
  return NumActionsFor(action_space_, shape_.num_variables);
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

AxDseEnvironment::State AxDseEnvironment::GetState() const {
  State state;
  state.config = config_;
  state.measurement = last_measurement_;
  state.round_robin_variable = round_robin_variable_;
  state.interned.reserve(states_.size());
  for (const Interned& interned : states_)
    state.interned.push_back(*interned.config);
  return state;
}

void AxDseEnvironment::ValidateState(const SpaceShape& shape,
                                     const State& state) {
  if (state.interned.empty())
    throw std::invalid_argument(
        "AxDseEnvironment::ValidateState: no interned configurations");
  if (state.round_robin_variable >= shape.num_variables)
    throw std::invalid_argument(
        "AxDseEnvironment::ValidateState: round-robin variable out of range");
  const auto validate = [&](const Configuration& config) {
    if (!FitsShape(shape, config))
      throw std::invalid_argument(
          "AxDseEnvironment::ValidateState: configuration does not match "
          "the kernel's space");
  };
  validate(state.config);
  std::unordered_set<Configuration, Configuration::Hash> seen;
  seen.reserve(state.interned.size());
  for (const Configuration& config : state.interned) {
    validate(config);
    if (!seen.insert(config).second)
      throw std::invalid_argument(
          "AxDseEnvironment::ValidateState: duplicate interned "
          "configuration");
  }
  if (seen.find(state.config) == seen.end())
    throw std::invalid_argument(
        "AxDseEnvironment::ValidateState: current configuration is not "
        "interned");
}

void AxDseEnvironment::SetState(const State& state) {
  ValidateState(shape_, state);
  std::unordered_map<Configuration, rl::StateId, Configuration::Hash> ids;
  ids.reserve(state.interned.size());
  std::vector<Interned> states;
  states.reserve(state.interned.size());
  for (std::size_t i = 0; i < state.interned.size(); ++i)
    states.push_back(
        {&ids.emplace(state.interned[i], static_cast<rl::StateId>(i))
              .first->first});

  config_ = state.config;
  last_measurement_ = state.measurement;
  round_robin_variable_ = state.round_robin_variable;
  states_ = std::move(states);
  ids_ = std::move(ids);
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
