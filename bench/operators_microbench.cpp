// google-benchmark microbenchmarks of the behavioral operators: throughput
// of every catalog adder/multiplier through its descriptor plus the
// instrumented-context dispatch overhead. These are software-model costs (the *hardware* costs
// come from the published characterization in the catalog) — they bound the
// exploration wall-clock, not the reported Δpower/Δtime.

#include <benchmark/benchmark.h>

#include "axc/catalog.hpp"
#include "axc/execution_plan.hpp"
#include "instrument/approx_context.hpp"
#include "util/rng.hpp"
#include "workloads/matmul_kernel.hpp"

namespace {

using namespace axdse;

std::vector<std::uint64_t> MakeOperands(int bits, std::size_t n,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.UniformBelow(1ULL << bits);
  return v;
}

void BM_Adder(benchmark::State& state, const axc::AdderSpec& spec) {
  const auto a = MakeOperands(spec.bits, 4096, 1);
  const auto b = MakeOperands(spec.bits, 4096, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        axc::DispatchAdd(spec.op, a[i & 4095], b[i & 4095]));
    ++i;
  }
}

void BM_Multiplier(benchmark::State& state, const axc::MultiplierSpec& spec) {
  const auto a = MakeOperands(spec.bits, 4096, 3);
  const auto b = MakeOperands(spec.bits, 4096, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        axc::DispatchMul(spec.op, a[i & 4095], b[i & 4095]));
    ++i;
  }
}

// --- scalar-vs-batched dispatch comparison ----------------------------------
// The same MAC through (a) the descriptor switch per scalar op and (b) the
// batched context primitive, which hoists the switch out of the loop.

void BM_ScalarMacPlan(benchmark::State& state,
                      const axc::MultiplierSpec& mul_spec,
                      const axc::AdderSpec& add_spec) {
  const auto a = MakeOperands(8, 4096, 5);
  const auto b = MakeOperands(8, 4096, 6);
  // Local copies: DoNotOptimize clobbers memory, so references into the
  // specs would be reloaded every iteration.
  const axc::MulOpDescriptor mul = mul_spec.op;
  const axc::AddOpDescriptor add = add_spec.op;
  std::int64_t acc = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    acc = axc::DispatchAddSigned(
        add, acc,
        axc::DispatchMulSigned(mul, static_cast<std::int64_t>(a[i & 4095]),
                               static_cast<std::int64_t>(b[i & 4095])));
    benchmark::DoNotOptimize(acc);
    acc = 0;
    ++i;
  }
}

void BM_BatchedDot(benchmark::State& state, std::uint32_t mul_index,
                   std::uint32_t add_index) {
  const auto set = axc::EvoApproxCatalog::Instance().MatMulSet();
  instrument::ApproxContext ctx(set, 3);
  instrument::ApproxSelection sel(3);
  sel.SetAdderIndex(add_index);
  sel.SetMultiplierIndex(mul_index);
  sel.SetVariable(0, true);  // both mul and add groups approximated
  sel.SetVariable(2, true);
  ctx.Configure(sel);
  util::Rng rng(7);
  std::vector<std::uint8_t> a(4096), b(4096);
  for (auto& v : a) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ctx.DotAccumulate(0, a.data(), 1, b.data(), 1, 4096, {0, 1}, {2}));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_ContextDispatch(benchmark::State& state) {
  const auto set = axc::EvoApproxCatalog::Instance().MatMulSet();
  instrument::ApproxContext ctx(set, 4);
  instrument::ApproxSelection sel(4);
  sel.SetMultiplierIndex(3);
  sel.SetVariable(1, true);
  ctx.Configure(sel);
  std::int64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Mul(123, 45, {0, 1}));
    benchmark::DoNotOptimize(ctx.Add(x, 77, {2}));
    ++x;
  }
}

void BM_MatMulKernelRun(benchmark::State& state) {
  const workloads::MatMulKernel kernel(
      static_cast<std::size_t>(state.range(0)),
      workloads::MatMulGranularity::kPerMatrix, 7);
  auto ctx = kernel.MakeContext();
  instrument::ApproxSelection sel(kernel.NumVariables());
  sel.SetMultiplierIndex(4);
  sel.SetVariable(0, true);
  sel.SetVariable(1, true);
  ctx.Configure(sel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.Run(ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0) * state.range(0));
}

const int kRegistered = [] {
  const auto& catalog = axc::EvoApproxCatalog::Instance();
  for (const auto& spec : catalog.Adders8())
    benchmark::RegisterBenchmark(("adder8/" + spec.type_code).c_str(),
                                 BM_Adder, spec);
  for (const auto& spec : catalog.Adders16())
    benchmark::RegisterBenchmark(("adder16/" + spec.type_code).c_str(),
                                 BM_Adder, spec);
  for (const auto& spec : catalog.Multipliers8())
    benchmark::RegisterBenchmark(("mul8/" + spec.type_code).c_str(),
                                 BM_Multiplier, spec);
  for (const auto& spec : catalog.Multipliers32())
    benchmark::RegisterBenchmark(("mul32/" + spec.type_code).c_str(),
                                 BM_Multiplier, spec);
  benchmark::RegisterBenchmark("instrument/context_dispatch",
                               BM_ContextDispatch);
  // Scalar-vs-batched comparison on a representative approximate pair
  // (GTR multiplier + 6R6 adder) and on the fully exact pair.
  const auto& mul8 = catalog.Multipliers8();
  const auto& add8 = catalog.Adders8();
  benchmark::RegisterBenchmark("dispatch/scalar_mac_plan/GTRx6R6",
                               BM_ScalarMacPlan, mul8[2], add8[2]);
  benchmark::RegisterBenchmark("dispatch/scalar_mac_plan/exact",
                               BM_ScalarMacPlan, mul8[0], add8[0]);
  for (std::uint32_t mi : {0u, 2u, 3u})
    benchmark::RegisterBenchmark(
        ("dispatch/batched_dot/" + mul8[mi].type_code).c_str(), BM_BatchedDot,
        mi, 2u);
  benchmark::RegisterBenchmark("kernel/matmul_run", BM_MatMulKernelRun)
      ->Arg(10)
      ->Arg(25);
  return 0;
}();

}  // namespace
