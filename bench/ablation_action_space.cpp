// Ablation C: action-space and variable-granularity variants on MatMul
// 10x10. The paper enumerates exactly three actions ("change adder, change
// multiplier, add/remove one variable"); we concretize this as either the
// kFull space (adder +-1, multiplier +-1, one toggle action per variable —
// the default) or the literal 3-action kCompact space (next adder, next
// multiplier, round-robin toggle). Orthogonally, variables can be whole
// program arrays (per-matrix, as in the paper's reference [7]) or finer
// row/column slices.
//
// Flags: --steps=N (default 6000), --seed=S (default 1).

#include <cstdio>

#include "dse/explorer.hpp"
#include "util/ascii_table.hpp"
#include "util/cli.hpp"
#include "util/statistics.hpp"
#include "workloads/matmul_kernel.hpp"

int main(int argc, char** argv) {
  using namespace axdse;
  const util::CliArgs args(argc, argv);
  const std::size_t steps = args.GetCountStrict("steps", 6000);
  const std::uint64_t seed = args.GetCountStrict("seed", 1);

  struct Case {
    std::string name;
    workloads::MatMulGranularity granularity;
    dse::ActionSpaceKind action_space;
  };
  const std::vector<Case> cases = {
      {"per-matrix vars, full actions (default)",
       workloads::MatMulGranularity::kPerMatrix, dse::ActionSpaceKind::kFull},
      {"per-matrix vars, compact 3 actions",
       workloads::MatMulGranularity::kPerMatrix,
       dse::ActionSpaceKind::kCompact},
      {"row/col vars, full actions", workloads::MatMulGranularity::kRowCol,
       dse::ActionSpaceKind::kFull},
      {"row/col vars, compact 3 actions",
       workloads::MatMulGranularity::kRowCol, dse::ActionSpaceKind::kCompact},
  };

  util::AsciiTable table(
      "Action-space / granularity ablation — MatMul 10x10");
  table.SetHeader({"variant", "#vars", "#actions", "steps", "late avg reward",
                   "best ΔPower seen (mW)", "solution feasible"});
  for (const Case& c : cases) {
    const workloads::MatMulKernel kernel(10, c.granularity, 2023);
    dse::Evaluator evaluator(kernel);
    const dse::RewardConfig reward = dse::MakePaperRewardConfig(evaluator);
    dse::ExplorerConfig config;
    config.max_steps = steps;
    config.max_cumulative_reward = 1e18;
    config.agent.alpha = 0.15;
    config.agent.gamma = 0.95;
    config.agent.epsilon =
        rl::EpsilonSchedule::Linear(1.0, 0.05, steps * 3 / 4);
    config.seed = seed;
    config.action_space = c.action_space;
    config.record_trace = false;
    dse::Explorer explorer(evaluator, reward, config);
    const dse::ExplorationResult result = explorer.Explore();

    const std::size_t num_actions =
        c.action_space == dse::ActionSpaceKind::kFull
            ? 4 + kernel.NumVariables()
            : 3;
    const auto bins = util::BinnedMeans(result.rewards, 100);
    table.AddRow(
        {c.name, std::to_string(kernel.NumVariables()),
         std::to_string(num_actions), std::to_string(result.steps),
         util::AsciiTable::Num(bins.empty() ? 0.0 : bins.back(), 3),
         util::AsciiTable::Num(result.delta_power.max, 2),
         result.solution_measurement.delta_acc <= reward.acc_threshold
             ? "yes"
             : "no"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: coarse per-matrix variables keep the state space tabular "
      "(6x6x2^3 = 288 states) and\nthe agent learns; row/column granularity "
      "(2^21 masks) defeats tabular Q-learning within the\nstep budget — the "
      "structural reason the paper's FIR exploration struggles. The compact\n"
      "3-action space reaches the same regions but mixes more slowly "
      "(one-directional cycling).\n");
  return 0;
}
