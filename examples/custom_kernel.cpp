// Bringing your own application to the DSE: implement workloads::Kernel,
// route arithmetic through the ApproxContext, declare your approximable
// variables, register a factory under a name — everything else (thresholds,
// reward, Q-learning, parallel multi-seed batches, reporting) comes for
// free, and your kernel is addressable like the built-ins ("sad" next to
// "matmul" and "fir").
//
// The example kernel is a sum-of-absolute-differences (SAD) block matcher,
// the inner loop of motion estimation — a classic approximate-computing
// target (video quality tolerates arithmetic noise).
//
//   $ ./build/examples/custom_kernel

#include <cstdio>
#include <memory>
#include <vector>

#include "axdse.hpp"
#include "util/rng.hpp"

namespace {

using namespace axdse;

/// SAD between a reference 8x8 block and each of `positions` candidate
/// blocks from a synthetic frame. Outputs one SAD per candidate.
/// Variables: "ref" (reference block), "frame" (search window pixels),
/// "acc" (the SAD accumulator).
class SadKernel final : public workloads::Kernel {
 public:
  SadKernel(std::size_t positions, std::uint64_t seed)
      : positions_(positions),
        variables_({{"ref"}, {"frame"}, {"acc"}}),
        operators_(axc::EvoApproxCatalog::Instance().MatMulSet()) {
    util::Rng rng(seed);
    reference_.resize(64);
    for (auto& p : reference_)
      p = static_cast<std::uint8_t>(rng.UniformBelow(256));
    window_.resize(64 * positions_);
    for (auto& p : window_)
      p = static_cast<std::uint8_t>(rng.UniformBelow(256));
  }

  const std::string& Name() const noexcept override {
    static const std::string name = "sad-8x8";
    return name;
  }
  const axc::OperatorSet& Operators() const noexcept override {
    return operators_;
  }
  const std::vector<workloads::VariableInfo>& Variables()
      const noexcept override {
    return variables_;
  }

  std::vector<double> Run(instrument::ApproxContext& ctx) const override {
    std::vector<double> out(positions_);
    for (std::size_t pos = 0; pos < positions_; ++pos) {
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < 64; ++i) {
        // |ref - frame| expressed with instrumented ops: the subtraction is
        // a mixed-sign add (exact in hardware); the magnitude accumulation
        // goes through the approximate adder. SAD has no multiplies, so we
        // also square-accumulate every 8th difference to exercise the
        // multiplier datapath (a common SAD+SSD hybrid matcher).
        const std::int64_t diff =
            ctx.Add(static_cast<std::int64_t>(reference_[i]),
                    -static_cast<std::int64_t>(window_[pos * 64 + i]),
                    {kRef, kFrame});
        const std::int64_t mag = diff < 0 ? -diff : diff;
        acc = ctx.Add(acc, mag, {kAcc});
        if (i % 8 == 0) {
          const std::int64_t sq = ctx.Mul(mag, mag, {kRef, kFrame});
          acc = ctx.Add(acc, sq / 64, {kAcc});
        }
      }
      out[pos] = static_cast<double>(acc);
    }
    return out;
  }

 private:
  static constexpr std::size_t kRef = 0;
  static constexpr std::size_t kFrame = 1;
  static constexpr std::size_t kAcc = 2;

  std::size_t positions_;
  std::vector<std::uint8_t> reference_;
  std::vector<std::uint8_t> window_;
  std::vector<workloads::VariableInfo> variables_;
  axc::OperatorSet operators_;
};

}  // namespace

int main() {
  // Register the custom kernel by name: `size` is the number of candidate
  // positions, `seed` drives the synthetic frame.
  workloads::KernelRegistry& registry = workloads::KernelRegistry::Global();
  registry.Register("sad", [](const workloads::KernelParams& p) {
    return std::make_unique<SadKernel>(p.size == 0 ? 32 : p.size, p.seed);
  });
  std::printf("registered kernels:");
  for (const std::string& name : registry.Names())
    std::printf(" %s", name.c_str());
  std::printf("\n");

  // From here on "sad" works exactly like the built-in benchmarks.
  const dse::Engine engine;
  const dse::BatchResult batch = engine.Run({{
      .kernel = workloads::KernelSpec("sad", 32),
      .kernel_seed = 11,
      .max_steps = 6000,
      .seed = 3,
  }});
  const dse::RequestResult& run = batch.results.front();
  const dse::ExplorationResult& result = run.runs.front();

  std::printf("custom kernel '%s': %zu steps (%s)\n",
              run.kernel_name.c_str(), result.steps,
              rl::ToString(result.stop_reason));
  std::printf("solution: adder %s, multiplier %s, vars %zu/%zu\n",
              result.solution_adder.c_str(),
              result.solution_multiplier.c_str(),
              result.solution.SelectedCount(),
              result.solution.NumVariables());
  std::printf("  ΔP=%.2f mW (of %.2f), ΔT=%.2f ns (of %.2f), Δacc=%.2f\n",
              result.solution_measurement.delta_power_mw,
              result.solution_measurement.precise_power_mw,
              result.solution_measurement.delta_time_ns,
              result.solution_measurement.precise_time_ns,
              result.solution_measurement.delta_acc);
  std::printf(
      "Takeaway: any kernel that routes its +/x through ApproxContext gets "
      "the full DSE pipeline.\n");
  return 0;
}
