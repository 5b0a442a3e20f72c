// Quickstart: explore approximate versions of a 10x10 matrix multiplication
// with the paper's Q-learning DSE in ~15 lines of user code, entirely
// through the axdse.hpp facade.
//
//   $ ./build/examples/quickstart
//
// Pipeline: make an Engine -> describe the run as an ExplorationRequest
// (kernel by registry name + paper budget) -> Run() -> read the
// solution. Thresholds are derived from the precise run automatically
// (acc_th = 0.4 x mean output, p_th/t_th = 50% of precise power/time).

#include <cstdio>

#include "axdse.hpp"

int main() {
  using namespace axdse;

  // 1. A batch engine sized to the hardware; it resolves kernels by name
  //    from the global registry ("matmul", "fir", "iir", "conv2d", "dct",
  //    "dot", ...).
  const dse::Engine engine;

  // 2. The run, as one validated value: C = A*B on random 8-bit 10x10
  //    matrices, <= 10,000 Q-learning steps, straight from the paper.
  const dse::ExplorationRequest request{
      .kernel = workloads::KernelSpec("matmul", 10),
      .kernel_seed = 42,
      .max_steps = 10000,
      .seed = 7,
  };

  // 3. Explore: Run() validates the request (a request can carry many
  //    seeds; this one runs a single exploration).
  const dse::BatchResult batch = engine.Run({request});
  const dse::ExplorationResult& result = batch.results.front().runs.front();

  // 4. Use the solution.
  std::printf("explored %zu steps (%s), %zu distinct versions executed\n",
              result.steps, rl::ToString(result.stop_reason),
              result.kernel_runs);
  std::printf("solution: adder %s + multiplier %s, %zu/%zu variables\n",
              result.solution_adder.c_str(),
              result.solution_multiplier.c_str(),
              result.solution.SelectedCount(),
              result.solution.NumVariables());
  std::printf("  power saved: %.1f of %.1f mW (%.1f%%)\n",
              result.solution_measurement.delta_power_mw,
              result.solution_measurement.precise_power_mw,
              100.0 * result.solution_measurement.delta_power_mw /
                  result.solution_measurement.precise_power_mw);
  std::printf("  time saved:  %.1f of %.1f ns (%.1f%%)\n",
              result.solution_measurement.delta_time_ns,
              result.solution_measurement.precise_time_ns,
              100.0 * result.solution_measurement.delta_time_ns /
                  result.solution_measurement.precise_time_ns);
  std::printf("  accuracy cost (MAE on outputs): %.2f\n",
              result.solution_measurement.delta_acc);
  return 0;
}
