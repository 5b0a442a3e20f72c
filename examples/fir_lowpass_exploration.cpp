// FIR low-pass exploration: the paper's second benchmark family, end to end —
// design a 17-tap low-pass, feed it white noise, explore approximate
// adder/multiplier assignments per tap, and verify the surviving filter still
// filters (magnitude response of the approximated datapath vs the precise
// one at a few probe frequencies).
//
// This example drives the facade with a concrete kernel *instance*
// (ExplorationRequest::kernel_override) instead of a registry name — the
// escape hatch for when the caller needs the kernel's own accessors
// afterwards.
//
//   $ ./build/examples/fir_lowpass_exploration --samples=100 --taps=17
//         --cutoff=0.2 --csv=fir_trace.csv   (one command line)

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "axdse.hpp"
#include "signal/fir_design.hpp"
#include "workloads/fir_kernel.hpp"

int main(int argc, char** argv) {
  using namespace axdse;
  const util::CliArgs args(argc, argv);

  const std::size_t samples = args.GetCountStrict("samples", 100);
  const std::size_t taps = args.GetCountStrict("taps", 17);
  const double cutoff = args.GetDouble("cutoff", 0.2);
  const auto kernel = std::make_shared<const workloads::FirKernel>(
      samples, taps, cutoff, workloads::FirGranularity::kPerTap, 42);

  std::printf("%s: %zu-tap low-pass (cutoff %.2f cycles/sample), "
              "%zu approximable variables\n",
              kernel->Name().c_str(), kernel->Taps(), cutoff,
              kernel->NumVariables());

  // Show the designed filter is a real low-pass before approximating it.
  std::vector<double> h(kernel->CoefficientsQ15().size());
  for (std::size_t k = 0; k < h.size(); ++k)
    h[k] = static_cast<double>(kernel->CoefficientsQ15()[k]) / 32768.0;
  std::printf("designed response: |H(0)|=%.3f |H(fc)|=%.3f |H(0.45)|=%.4f\n",
              signal::MagnitudeResponse(h, 0.0),
              signal::MagnitudeResponse(h, cutoff),
              signal::MagnitudeResponse(h, 0.45));

  dse::ExplorationRequest request;
  request.kernel.name = kernel->Name();
  request.kernel_override = kernel;
  request.max_steps = args.GetCountStrict("steps", 10000);
  request.seed = args.GetCountStrict("seed", 7);
  request.record_trace = true;
  const dse::BatchResult batch = dse::Engine().Run({request});
  const dse::RequestResult& run = batch.results.front();
  const dse::ExplorationResult& result = run.runs.front();

  std::printf("\nexploration: %zu steps (%s)\n", result.steps,
              rl::ToString(result.stop_reason));
  std::printf("solution: adder %s + multiplier %s, taps approximated: ",
              result.solution_adder.c_str(),
              result.solution_multiplier.c_str());
  for (std::size_t k = 0; k < kernel->Taps(); ++k)
    std::printf("%c", result.solution.VariableSelected(kernel->VarOfTap(k))
                          ? '1'
                          : '0');
  std::printf("  x:%c acc:%c\n",
              result.solution.VariableSelected(kernel->VarOfInput()) ? '1'
                                                                     : '0',
              result.solution.VariableSelected(kernel->VarOfAccumulator())
                  ? '1'
                  : '0');
  std::printf("  ΔP=%.1f/%.1f mW, ΔT=%.1f/%.1f ns, Δacc=%.0f (Q30 ticks)\n",
              result.solution_measurement.delta_power_mw,
              result.solution_measurement.precise_power_mw,
              result.solution_measurement.delta_time_ns,
              result.solution_measurement.precise_time_ns,
              result.solution_measurement.delta_acc);
  // Δacc in real signal units: Q30 tick = 2^-30.
  std::printf("  output-signal MAE: %.6f (full scale +-1.0)\n",
              result.solution_measurement.delta_acc /
                  std::pow(2.0, 30.0));

  if (args.Has("csv")) {
    const std::string path = args.GetString("csv", "fir_trace.csv");
    std::ofstream out(path);
    report::WriteTraceCsv(out, result.trace);
    std::printf("trace written to %s\n", path.c_str());
  }
  return 0;
}
