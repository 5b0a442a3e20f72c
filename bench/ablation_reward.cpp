// Ablation B: reward-shaping variants of Algorithm 1 on MatMul 10x10.
// The paper's reward uses hard gain thresholds (p_th, t_th at 50% of the
// precise run) and a hard accuracy wall at 0.4x mean output. This bench
// sweeps those factors to show how the shaping drives where the agent
// settles:
//   * gain thresholds at 0% (any feasible saving is rewarded), 25%, 50%
//     (paper), 75% of the precise cost;
//   * accuracy thresholds at 0.2, 0.4 (paper), 0.6 of the mean output.
//
// Flags: --steps=N (default 6000), --seed=S (default 1).

#include <cstdio>

#include "dse/explorer.hpp"
#include "util/ascii_table.hpp"
#include "util/cli.hpp"
#include "util/statistics.hpp"
#include "workloads/matmul_kernel.hpp"

namespace {

using namespace axdse;

struct Variant {
  std::string name;
  dse::PaperThresholdFactors factors;
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::size_t steps = args.GetCountStrict("steps", 6000);
  const std::uint64_t seed = args.GetCountStrict("seed", 1);

  const workloads::MatMulKernel kernel(
      10, workloads::MatMulGranularity::kPerMatrix, 2023);

  std::vector<Variant> variants;
  for (const double gain : {0.0, 0.25, 0.5, 0.75}) {
    Variant v;
    v.name = "acc=0.4, gain=" + util::AsciiTable::Num(gain, 2);
    v.factors.accuracy_factor = 0.4;
    v.factors.power_factor = gain;
    v.factors.time_factor = gain;
    variants.push_back(v);
  }
  for (const double acc : {0.2, 0.6}) {
    Variant v;
    v.name = "acc=" + util::AsciiTable::Num(acc, 2) + ", gain=0.5";
    v.factors.accuracy_factor = acc;
    v.factors.power_factor = 0.5;
    v.factors.time_factor = 0.5;
    variants.push_back(v);
  }

  util::AsciiTable table(
      "Reward-shaping ablation — MatMul 10x10, Algorithm 1 threshold "
      "factors (paper row: acc=0.4, gain=0.5)");
  table.SetHeader({"variant", "steps", "stop", "solution ΔPower (mW)",
                   "solution ΔTime (ns)", "solution Δacc", "feasible",
                   "late avg reward"});
  for (const Variant& variant : variants) {
    dse::Evaluator evaluator(kernel);
    const dse::RewardConfig reward =
        dse::MakePaperRewardConfig(evaluator, variant.factors);
    dse::ExplorerConfig config;
    config.max_steps = steps;
    config.max_cumulative_reward = 1e18;
    config.agent.alpha = 0.15;
    config.agent.gamma = 0.95;
    config.agent.epsilon =
        rl::EpsilonSchedule::Linear(1.0, 0.05, steps * 3 / 4);
    config.seed = seed;
    config.record_trace = false;
    dse::Explorer explorer(evaluator, reward, config);
    const dse::ExplorationResult result = explorer.Explore();

    const auto bins = util::BinnedMeans(result.rewards, 100);
    const double late_avg = bins.empty() ? 0.0 : bins.back();
    table.AddRow(
        {variant.name, std::to_string(result.steps),
         rl::ToString(result.stop_reason),
         util::AsciiTable::Num(result.solution_measurement.delta_power_mw, 2),
         util::AsciiTable::Num(result.solution_measurement.delta_time_ns, 2),
         util::AsciiTable::Num(result.solution_measurement.delta_acc, 3),
         result.solution_measurement.delta_acc <= reward.acc_threshold
             ? "yes"
             : "no",
         util::AsciiTable::Num(late_avg, 3)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: gain=0 rewards any feasible configuration (+1 everywhere "
      "feasible), so the agent\nsettles for shallow savings; the paper's 50%% "
      "thresholds force it toward deep approximation;\n75%% thresholds "
      "shrink the rewarding region until learning degrades. Tighter accuracy "
      "walls\n(0.2) exclude aggressive multipliers entirely.\n");
  return 0;
}
