// Matrix-multiplication exploration with custom knobs: matrix size, variable
// granularity, threshold factors — plus a Pareto-front summary of every
// trade-off the agent visited (the multi-objective view of the exploration).
// Everything runs through the axdse.hpp facade: CLI flags are folded into
// one ExplorationRequest, which also round-trips to a string you can replay.
//
//   $ ./build/examples/matmul_exploration --n=16 --granularity=row-col
//         --acc-factor=0.3 --steps=8000   (one command line)

#include <cstdio>

#include "axdse.hpp"

int main(int argc, char** argv) {
  using namespace axdse;
  const util::CliArgs args(argc, argv);

  dse::ExplorationRequest request;
  request.kernel =
      workloads::KernelSpec("matmul", args.GetCountStrict("n", 10));
  request.kernel.extra["granularity"] =
      args.GetString("granularity", "per-matrix");
  request.kernel_seed = 42;
  request.max_steps = args.GetCountStrict("steps", 10000);
  request.seed = args.GetCountStrict("seed", 7);
  request.thresholds.accuracy_factor = args.GetDouble("acc-factor", 0.4);
  request.thresholds.power_factor = args.GetDouble("power-factor", 0.5);
  request.thresholds.time_factor = args.GetDouble("time-factor", 0.5);
  request.greedy_rollout_steps = 64;  // extract the learned policy at the end
  request.record_trace = true;  // keep the per-step trace for the Pareto view
  request.Validate();
  std::printf("request: %s\n", request.ToString().c_str());

  // Construct the kernel once and hand the instance to the engine — the
  // report below needs its operator set, and this avoids regenerating the
  // matrices a second time.
  dse::ExplorationRequest pinned = request;
  pinned.kernel_override =
      workloads::KernelRegistry::Global().Create(request.kernel,
                                                 request.kernel_seed);
  const auto& ops = pinned.kernel_override->Operators();

  const dse::BatchResult batch = dse::Engine().Run({pinned});
  const dse::RequestResult& run = batch.results.front();
  const dse::ExplorationResult& result = run.runs.front();

  std::printf("\n%s: precise run %.1f mW / %.1f ns, acc_th=%.2f\n",
              run.kernel_name.c_str(),
              result.solution_measurement.precise_power_mw,
              result.solution_measurement.precise_time_ns,
              run.reward.acc_threshold);
  std::printf("exploration: %zu steps, stop=%s, cumulative reward %.0f\n",
              result.steps, rl::ToString(result.stop_reason),
              result.cumulative_reward);
  std::printf("solution: adder %s, multiplier %s, vars %zu/%zu, "
              "ΔP=%.1f mW ΔT=%.1f ns Δacc=%.2f\n",
              result.solution_adder.c_str(),
              result.solution_multiplier.c_str(),
              result.solution.SelectedCount(),
              result.solution.NumVariables(),
              result.solution_measurement.delta_power_mw,
              result.solution_measurement.delta_time_ns,
              result.solution_measurement.delta_acc);

  if (result.has_best_feasible) {
    const auto& best = result.best_feasible_measurement;
    std::printf("best feasible seen: adder %s, multiplier %s, "
                "ΔP=%.1f mW ΔT=%.1f ns Δacc=%.2f\n",
                ops.adders[result.best_feasible.AdderIndex()]
                    .type_code.c_str(),
                ops.multipliers[result.best_feasible.MultiplierIndex()]
                    .type_code.c_str(),
                best.delta_power_mw, best.delta_time_ns, best.delta_acc);
  }

  // Multi-objective summary: the non-dominated trade-offs seen on the way.
  const auto front = dse::ParetoFrontOfTrace(result.trace);
  util::AsciiTable table("Pareto front of visited configurations "
                         "(maximize ΔPower/ΔTime, minimize Δacc)");
  table.SetHeader({"adder", "multiplier", "vars", "ΔPower (mW)",
                   "ΔTime (ns)", "Δacc", "feasible"});
  for (const dse::ParetoPoint& p : front) {
    table.AddRow({ops.adders[p.config.AdderIndex()].type_code,
                  ops.multipliers[p.config.MultiplierIndex()].type_code,
                  std::to_string(p.config.SelectedCount()),
                  util::AsciiTable::Num(p.measurement.delta_power_mw, 2),
                  util::AsciiTable::Num(p.measurement.delta_time_ns, 2),
                  util::AsciiTable::Num(p.measurement.delta_acc, 3),
                  p.measurement.delta_acc <= run.reward.acc_threshold
                      ? "yes"
                      : "no"});
  }
  std::printf("\n%s", table.Render().c_str());
  std::printf("(%zu non-dominated of %zu visited configurations)\n",
              front.size(), result.kernel_runs);
  return 0;
}
