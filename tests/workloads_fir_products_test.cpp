// FIR memoized tap products: FirKernel::Run adds each tap's products from
// a per-multiplier instrument::ProductMemo plane
// (ApproxContext::AccumulateProducts) instead of multiplying again. Its outputs and OpCounts must equal the
// AxpyAccumulate path bit for bit across every adder x multiplier pair,
// both granularities, none/all/random variable masks, a signal shorter than
// the filter, a kernel above the table memory cap, and a context bound to
// another operator set. The tables are built lazily from engine worker
// threads, so concurrent first use must be race-free (this binary runs
// under TSan) and leave results byte-identical to a one-worker run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "axc/catalog.hpp"
#include "dse/engine.hpp"
#include "instrument/approx_context.hpp"
#include "instrument/product_memo.hpp"
#include "report/export.hpp"
#include "util/rng.hpp"
#include "workloads/fir_kernel.hpp"

namespace axdse::workloads {
namespace {

using instrument::ApproxContext;
using instrument::ApproxSelection;

/// The AxpyAccumulate path: tap-major AXPY chains with no product tables.
std::vector<double> AxpyReference(const FirKernel& k, ApproxContext& ctx) {
  const auto& x = k.SamplesQ15();
  const auto& h = k.CoefficientsQ15();
  std::vector<std::int64_t> acc(x.size(), 0);
  for (std::size_t t = 0; t < h.size() && t < x.size(); ++t)
    ctx.AxpyAccumulate(acc.data() + t, x.data(), x.size() - t,
                       static_cast<std::int64_t>(h[t]),
                       {k.VarOfTap(t), k.VarOfInput()},
                       {k.VarOfAccumulator()});
  return std::vector<double>(acc.begin(), acc.end());
}

/// Runs `kernel` and the reference under `sel` on fresh contexts bound to
/// `operators`, and expects identical outputs and counts.
void ExpectSameAsAxpy(const FirKernel& kernel,
                      const axc::OperatorSet& operators,
                      const ApproxSelection& sel) {
  ApproxContext tabled(operators, kernel.NumVariables());
  ApproxContext reference(operators, kernel.NumVariables());
  tabled.Configure(sel);
  reference.Configure(sel);
  const std::string what = kernel.Name() + " " + sel.ToString();
  ASSERT_EQ(kernel.Run(tabled), AxpyReference(kernel, reference)) << what;
  const energy::OpCounts& got = tabled.Counts();
  const energy::OpCounts& want = reference.Counts();
  EXPECT_EQ(got.precise_adds, want.precise_adds) << what;
  EXPECT_EQ(got.approx_adds, want.approx_adds) << what;
  EXPECT_EQ(got.precise_muls, want.precise_muls) << what;
  EXPECT_EQ(got.approx_muls, want.approx_muls) << what;
}

/// Variable masks: none, all, and `random` random ones.
std::vector<std::vector<bool>> Masks(std::size_t num_vars, int random,
                                     util::Rng& rng) {
  std::vector<std::vector<bool>> masks = {std::vector<bool>(num_vars, false),
                                          std::vector<bool>(num_vars, true)};
  for (int r = 0; r < random; ++r) {
    std::vector<bool> mask(num_vars);
    for (std::size_t v = 0; v < num_vars; ++v)
      mask[v] = rng.UniformBelow(2) == 1;
    masks.push_back(mask);
  }
  return masks;
}

/// Every adder x multiplier pair of `operators` under every mask.
void CheckAllPairs(const FirKernel& kernel, const axc::OperatorSet& operators,
                   std::uint64_t seed, int random_masks = 3) {
  util::Rng rng(seed);
  for (const std::vector<bool>& mask :
       Masks(kernel.NumVariables(), random_masks, rng)) {
    for (std::size_t a = 0; a < operators.adders.size(); ++a) {
      for (std::size_t m = 0; m < operators.multipliers.size(); ++m) {
        ApproxSelection sel(kernel.NumVariables());
        sel.SetAdderIndex(static_cast<std::uint32_t>(a));
        sel.SetMultiplierIndex(static_cast<std::uint32_t>(m));
        for (std::size_t v = 0; v < mask.size(); ++v)
          sel.SetVariable(v, mask[v]);
        ExpectSameAsAxpy(kernel, operators, sel);
      }
    }
  }
}

TEST(FirProducts, AllPairsMatchAxpyPerTap) {
  const FirKernel kernel(100, 17, 0.2, FirGranularity::kPerTap, 2023);
  ASSERT_EQ(kernel.Operators().adders.size() *
                kernel.Operators().multipliers.size(),
            36u);
  CheckAllPairs(kernel, kernel.Operators(), 11);
}

TEST(FirProducts, AllPairsMatchAxpyPerArray) {
  const FirKernel kernel(100, 17, 0.2, FirGranularity::kPerArray, 2023);
  CheckAllPairs(kernel, kernel.Operators(), 13);
}

TEST(FirProducts, ShortSignalMatchesAxpy) {
  // Fewer samples than taps: only the first 8 taps contribute.
  for (const FirGranularity g :
       {FirGranularity::kPerTap, FirGranularity::kPerArray}) {
    const FirKernel kernel(8, 17, 0.2, g, 5);
    CheckAllPairs(kernel, kernel.Operators(), 17);
  }
}

TEST(FirProducts, KernelsAroundTheMemoryCapMatchAxpy) {
  // Just under the cap the kernel keeps planes; one sample more crosses it
  // and every tap falls back to AxpyAccumulate.
  const std::size_t taps = 17;
  const std::size_t at_cap = instrument::ProductMemo::kMaxProducts / taps;
  ASSERT_GT((at_cap + 1) * taps, instrument::ProductMemo::kMaxProducts);
  for (const std::size_t samples : {at_cap, at_cap + 1}) {
    const FirKernel kernel(samples, taps, 0.2, FirGranularity::kPerTap, 3);
    CheckAllPairs(kernel, kernel.Operators(), 19, /*random_masks=*/1);
  }
}

TEST(FirProducts, ContextOnAnotherOperatorSetMatchesAxpy) {
  const FirKernel kernel(64, 17, 0.2, FirGranularity::kPerTap, 7);
  // Build every table first, so the mismatched contexts below meet warm
  // tables whose descriptors differ from their plans.
  CheckAllPairs(kernel, kernel.Operators(), 23, /*random_masks=*/0);
  const axc::EvoApproxCatalog& catalog = axc::EvoApproxCatalog::Instance();
  CheckAllPairs(kernel, catalog.MatMulSet(), 29);
  // Same operators, multipliers in reverse order: index m names another
  // multiplier than the kernel's table m.
  axc::OperatorSet reversed = kernel.Operators();
  std::reverse(reversed.multipliers.begin(), reversed.multipliers.end());
  CheckAllPairs(kernel, reversed, 31);
}

TEST(FirProducts, ConcurrentFirstUseOfOneTableIsRaceFree) {
  // Four threads released together onto each still-untouched multiplier.
  constexpr std::size_t kThreads = 4;
  const FirKernel kernel(100, 2023);
  const std::size_t num_muls = kernel.Operators().multipliers.size();
  for (std::size_t m = 1; m < num_muls; ++m) {
    ApproxSelection sel(kernel.NumVariables());
    sel.SetAdderIndex(static_cast<std::uint32_t>(
        m % kernel.Operators().adders.size()));
    sel.SetMultiplierIndex(static_cast<std::uint32_t>(m));
    for (std::size_t v = 0; v < kernel.NumVariables(); ++v)
      sel.SetVariable(v, v % 2 == 0);
    ApproxContext reference = kernel.MakeContext();
    reference.Configure(sel);
    const std::vector<double> want = AxpyReference(kernel, reference);

    std::vector<std::vector<double>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ApproxContext ctx = kernel.MakeContext();
        ctx.Configure(sel);
        start.arrive_and_wait();
        got[t] = kernel.Run(ctx);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t)
      EXPECT_EQ(got[t], want) << "thread " << t << " multiplier " << m;
  }
}

TEST(FirProducts, SharedKernelAcrossEngineWorkersMatchesOneWorker) {
  // One kernel_override instance, untouched tables, four workers racing
  // through eight seeds; the one-worker run uses a fresh instance.
  const auto run = [](std::size_t workers) {
    const auto kernel = std::make_shared<const FirKernel>(100, 2023);
    const dse::ExplorationRequest request{
        .kernel = workloads::KernelSpec(kernel->Name()),
        .max_steps = 200,
        .max_cumulative_reward = 1e18,
        .num_seeds = 8,
        .seed = 3,
        .cache_mode = dse::CacheMode::kPrivate,
        .epsilon_start = 1.0,
        .epsilon_end = 0.05,
        .epsilon_decay_steps = 150,
        .kernel_override = kernel};
    dse::BatchResult batch;
    batch.results.push_back(dse::Engine(dse::EngineOptions{workers})
                                .Run({request})
                                .results.front());
    return report::BatchJson(batch);
  };
  EXPECT_EQ(run(4), run(1));
}

}  // namespace
}  // namespace axdse::workloads
