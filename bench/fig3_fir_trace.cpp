// Reproduces the paper's Figure 3: "Exploration outcomes evolution for FIR
// (100 samples)" — the same three series as Figure 2. The paper's point is
// the *contrast* with Matrix Multiplication: the FIR exploration struggles
// (flat / erratic trends) because its fine-grained per-tap variable space
// resists tabular learning within the step budget.
//
// Flags: --steps=N (default 10000), --seed=S (default 1), --stride=K
//        (default 250), --csv=PATH.

#include <cstdio>
#include <fstream>

#include "axdse.hpp"

int main(int argc, char** argv) {
  using namespace axdse;
  const util::CliArgs args(argc, argv);

  // 17-tap LPF on 100 white-noise samples, per-tap variables.
  dse::ExplorationRequest request;
  request.kernel = workloads::KernelSpec("fir", 100);
  request.kernel_seed = 2023;
  request.max_steps = args.GetCountStrict("steps", 10000);
  request.max_cumulative_reward = args.GetDouble("reward-cap", 500.0);
  request.alpha = 0.15;
  request.gamma = 0.95;  // epsilon: linear decay over 3/4 of the steps
  request.seed = args.GetCountStrict("seed", 1);
  request.record_trace = true;
  request.Validate();

  std::printf("Exploring %s (%zu steps max)...\n", request.kernel.ToString().c_str(),
              request.max_steps);
  const dse::BatchResult batch = dse::Engine().Run({request});
  const dse::ExplorationResult& result = batch.results.front().runs.front();

  const std::size_t stride = args.GetCountStrict("stride", 250);
  std::printf("%s\n", report::RenderExplorationFigure(
                          "Fig. 3 — Exploration outcomes evolution, FIR "
                          "(100 samples)",
                          result.trace, stride)
                          .c_str());
  std::printf(
      "Paper shape: trends are weaker/flatter than Matrix Multiplication "
      "(Fig. 2) — the agent\nstruggles on FIR's 19-variable space. Steps "
      "executed: %zu, stop: %s.\n",
      result.steps, rl::ToString(result.stop_reason));

  if (args.Has("csv")) {
    const std::string path = args.GetString("csv", "fig3_trace.csv");
    std::ofstream out(path);
    report::WriteTraceCsv(out, result.trace);
    std::printf("Full trace written to %s\n", path.c_str());
  }
  return 0;
}
