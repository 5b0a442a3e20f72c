// Memoized products (instrument::ProductMemo): matmul, conv2d, sobel3x3
// and dot add their products from one plane per multiplier, the exact one
// included, through ApproxContext::SumProducts instead of multiplying
// again. Their outputs and OpCounts must equal the DotAccumulate chains bit
// for bit across every adder x multiplier pair, none/all/random variable
// masks, kernels above the memo's cap, and contexts bound to another
// operator set. The memo itself must build nothing for the all-precise
// golden run, build each plane once, and answer null above its cap without
// its size check overflowing. Planes are built lazily from engine worker
// threads, so concurrent first use must be race-free (this binary runs
// under TSan) and match the chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "axc/catalog.hpp"
#include "instrument/approx_context.hpp"
#include "instrument/product_memo.hpp"
#include "util/rng.hpp"
#include "workloads/conv2d_kernel.hpp"
#include "workloads/dot_product_kernel.hpp"
#include "workloads/matmul_kernel.hpp"
#include "workloads/sobel_kernel.hpp"

namespace axdse::workloads {
namespace {

using instrument::ApproxContext;
using instrument::ApproxSelection;
using instrument::ProductMemo;

/// A kernel's DotAccumulate formulation, with no product planes.
using Reference = std::function<std::vector<double>(ApproxContext&)>;

Reference MatMulChains(const MatMulKernel& k) {
  return [&k](ApproxContext& ctx) {
    const std::size_t n = k.Size();
    std::vector<std::uint8_t> row(n), col(n);
    std::vector<double> out(n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t t = 0; t < n; ++t) {
          row[t] = k.A(i, t);
          col[t] = k.B(t, j);
        }
        out[i * n + j] = static_cast<double>(
            ctx.DotAccumulate(0, row.data(), 1, col.data(), 1, n,
                              {k.VarOfARow(i), k.VarOfBCol(j)},
                              {k.VarOfAccumulator()}));
      }
    }
    return out;
  };
}

Reference Conv2DChains(const Conv2DKernel& k) {
  return [&k](ApproxContext& ctx) {
    const std::size_t rows = k.Height() - 2;
    const std::size_t cols = k.Width() - 2;
    std::vector<double> out(rows * cols);
    for (std::size_t y = 0; y < rows; ++y) {
      for (std::size_t x = 0; x < cols; ++x) {
        std::int64_t acc = 0;
        for (std::size_t dy = 0; dy < 3; ++dy) {
          const std::uint8_t pixels[3] = {k.Pixel(y + dy, x),
                                          k.Pixel(y + dy, x + 1),
                                          k.Pixel(y + dy, x + 2)};
          const std::uint8_t weights[3] = {k.StencilWeight(dy, 0),
                                           k.StencilWeight(dy, 1),
                                           k.StencilWeight(dy, 2)};
          acc = ctx.DotAccumulate(acc, pixels, 1, weights, 1, 3,
                                  {k.VarOfRow(y), k.VarOfStencil()},
                                  {k.VarOfAccumulator()});
        }
        out[y * cols + x] = static_cast<double>(acc);
      }
    }
    return out;
  };
}

Reference SobelChains(const SobelKernel& k) {
  return [&k](ApproxContext& ctx) {
    const std::size_t rows = k.Height() - 2;
    const std::size_t cols = k.Width() - 2;
    const std::uint8_t w[3] = {k.SmoothWeight(0), k.SmoothWeight(1),
                               k.SmoothWeight(2)};
    const std::size_t acc_var = k.VarOfAccumulator();
    std::vector<double> out(rows * cols);
    for (std::size_t y = 0; y < rows; ++y) {
      const std::size_t row_var = k.VarOfRow(y);
      for (std::size_t x = 0; x < cols; ++x) {
        const auto smooth = [&](std::size_t y0, std::size_t x0, bool down,
                                std::size_t kernel_var) {
          std::uint8_t pixels[3];
          for (std::size_t t = 0; t < 3; ++t)
            pixels[t] = down ? k.Pixel(y0 + t, x0) : k.Pixel(y0, x0 + t);
          return ctx.DotAccumulate(0, pixels, 1, w, 1, 3,
                                   {row_var, kernel_var}, {acc_var});
        };
        const std::int64_t gx_pos = smooth(y, x + 2, true, k.VarOfKx());
        const std::int64_t gx_neg = smooth(y, x, true, k.VarOfKx());
        const std::int64_t gx = ctx.Add(gx_pos, -gx_neg, {acc_var});
        const std::int64_t gy_pos = smooth(y + 2, x, false, k.VarOfKy());
        const std::int64_t gy_neg = smooth(y, x, false, k.VarOfKy());
        const std::int64_t gy = ctx.Add(gy_pos, -gy_neg, {acc_var});
        out[y * cols + x] = static_cast<double>(
            ctx.Add(gx < 0 ? -gx : gx, gy < 0 ? -gy : gy, {acc_var}));
      }
    }
    return out;
  };
}

Reference DotChains(const DotProductKernel& k) {
  return [&k](ApproxContext& ctx) {
    std::vector<std::uint8_t> a(k.Length()), b(k.Length());
    for (std::size_t i = 0; i < k.Length(); ++i) {
      a[i] = k.A(i);
      b[i] = k.B(i);
    }
    const std::size_t block_len = k.Length() / k.Blocks();
    std::vector<double> out(k.Blocks());
    for (std::size_t g = 0; g < k.Blocks(); ++g) {
      const std::size_t begin = g * block_len;
      const std::size_t end =
          g + 1 == k.Blocks() ? k.Length() : begin + block_len;
      out[g] = static_cast<double>(ctx.DotAccumulate(
          0, &a[begin], 1, &b[begin], 1, end - begin,
          {k.VarOfA(), k.VarOfB()}, {k.VarOfAccumulator()}));
    }
    return out;
  };
}

/// Runs `kernel` and `reference` under `sel` on fresh contexts bound to
/// `operators`, and expects identical outputs and counts.
void ExpectSameAsChains(const Kernel& kernel, const Reference& reference,
                        const axc::OperatorSet& operators,
                        const ApproxSelection& sel) {
  ApproxContext memo(operators, kernel.NumVariables());
  ApproxContext chains(operators, kernel.NumVariables());
  memo.Configure(sel);
  chains.Configure(sel);
  const std::string what =
      kernel.Name() + " on " + operators.name + " " + sel.ToString();
  ASSERT_EQ(kernel.Run(memo), reference(chains)) << what;
  const energy::OpCounts& got = memo.Counts();
  const energy::OpCounts& want = chains.Counts();
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

ApproxSelection Select(std::size_t num_vars, std::size_t adder,
                       std::size_t multiplier, const std::vector<bool>& mask) {
  ApproxSelection sel(num_vars);
  sel.SetAdderIndex(static_cast<std::uint32_t>(adder));
  sel.SetMultiplierIndex(static_cast<std::uint32_t>(multiplier));
  for (std::size_t v = 0; v < mask.size(); ++v) sel.SetVariable(v, mask[v]);
  return sel;
}

/// Every adder x multiplier pair of `operators` under every mask.
void CheckAllPairs(const Kernel& kernel, const Reference& reference,
                   const axc::OperatorSet& operators, std::uint64_t seed,
                   int random_masks = 3) {
  util::Rng rng(seed);
  for (const std::vector<bool>& mask :
       Masks(kernel.NumVariables(), random_masks, rng))
    for (std::size_t a = 0; a < operators.adders.size(); ++a)
      for (std::size_t m = 0; m < operators.multipliers.size(); ++m)
        ExpectSameAsChains(kernel, reference, operators,
                           Select(kernel.NumVariables(), a, m, mask));
}

TEST(ProductMemo, MatMulPerMatrixAllPairsMatchChains) {
  const MatMulKernel kernel(10, MatMulGranularity::kPerMatrix, 2023);
  ASSERT_EQ(kernel.Operators().adders.size() *
                kernel.Operators().multipliers.size(),
            36u);
  CheckAllPairs(kernel, MatMulChains(kernel), kernel.Operators(), 11);
}

TEST(ProductMemo, MatMulRowColAllPairsMatchChains) {
  const MatMulKernel kernel(10, MatMulGranularity::kRowCol, 2023);
  CheckAllPairs(kernel, MatMulChains(kernel), kernel.Operators(), 13);
}

TEST(ProductMemo, Conv2DAllPairsMatchChains) {
  const Conv2DKernel kernel(16, 16, 4, 2023);
  CheckAllPairs(kernel, Conv2DChains(kernel), kernel.Operators(), 17);
}

TEST(ProductMemo, SobelAllPairsMatchChains) {
  const SobelKernel kernel(16, 16, 4, 2023);
  CheckAllPairs(kernel, SobelChains(kernel), kernel.Operators(), 19);
}

TEST(ProductMemo, DotAllPairsMatchChains) {
  const DotProductKernel kernel(64, 4, 2023);
  CheckAllPairs(kernel, DotChains(kernel), kernel.Operators(), 23);
}

TEST(ProductMemo, KernelsAroundTheCapMatchChains) {
  // Each pair sits just under and just over kMaxProducts; the kernel over
  // it keeps its chains.
  ASSERT_LE(40u * 40 * 40, ProductMemo::kMaxProducts);
  ASSERT_GT(41u * 41 * 41, ProductMemo::kMaxProducts);
  for (const std::size_t n : {40, 41}) {
    const MatMulKernel kernel(n, MatMulGranularity::kRowCol, 3);
    CheckAllPairs(kernel, MatMulChains(kernel), kernel.Operators(), 29, 1);
  }
  // conv2d: 9 products per output; 85 x 85 outputs = 65,025, 86 x 86 over.
  ASSERT_GT(86u * 86 * 9, ProductMemo::kMaxProducts);
  for (const std::size_t side : {87, 88}) {
    const Conv2DKernel kernel(side, side, 3, 5);
    CheckAllPairs(kernel, Conv2DChains(kernel), kernel.Operators(), 31, 1);
  }
  // sobel3x3: 12 products per output; 73 x 73 = 5,329 outputs fit, 74 x 74
  // do not.
  ASSERT_LE(73u * 73 * 12, ProductMemo::kMaxProducts);
  ASSERT_GT(74u * 74 * 12, ProductMemo::kMaxProducts);
  for (const std::size_t side : {75, 76}) {
    const SobelKernel kernel(side, side, 3, 7);
    CheckAllPairs(kernel, SobelChains(kernel), kernel.Operators(), 37, 1);
  }
  for (const std::size_t n :
       {ProductMemo::kMaxProducts, ProductMemo::kMaxProducts + 1}) {
    const DotProductKernel kernel(n, 8, 9);
    CheckAllPairs(kernel, DotChains(kernel), kernel.Operators(), 41, 1);
  }
}

TEST(ProductMemo, ContextOnAnotherOperatorSetMatchesChains) {
  const MatMulKernel matmul(8, MatMulGranularity::kRowCol, 7);
  const SobelKernel sobel(12, 12, 2, 7);
  // Build every plane first, so the mismatched contexts below meet warm
  // planes whose descriptors differ from their plans.
  CheckAllPairs(matmul, MatMulChains(matmul), matmul.Operators(), 43, 0);
  CheckAllPairs(sobel, SobelChains(sobel), sobel.Operators(), 47, 0);
  const axc::OperatorSet fir_set = axc::EvoApproxCatalog::Instance().FirSet();
  CheckAllPairs(matmul, MatMulChains(matmul), fir_set, 53);
  CheckAllPairs(sobel, SobelChains(sobel), fir_set, 59);
  // Same operators, multipliers in reverse order: index m names another
  // multiplier than the kernel's slot m, and index 0 is no longer exact.
  axc::OperatorSet reversed = matmul.Operators();
  std::reverse(reversed.multipliers.begin(), reversed.multipliers.end());
  CheckAllPairs(matmul, MatMulChains(matmul), reversed, 61);
  CheckAllPairs(sobel, SobelChains(sobel), reversed, 67);
}

TEST(ProductMemo, GoldenRunBuildsNothingAndEachPlaneBuildsOnce) {
  const axc::OperatorSet set = axc::EvoApproxCatalog::Instance().MatMulSet();
  const ProductMemo memo(set, {4, 5});
  ASSERT_EQ(memo.Size(), 20u);
  std::vector<int> fills(set.multipliers.size(), 0);
  const auto fill = [&](const axc::MulOpDescriptor& desc,
                        std::int64_t* plane) {
    for (std::size_t m = 0; m < set.multipliers.size(); ++m)
      if (set.multipliers[m].op == desc) ++fills[m];
    for (std::size_t p = 0; p < 20; ++p)
      plane[p] = axc::DispatchMulSigned(desc, static_cast<std::int64_t>(p),
                                        static_cast<std::int64_t>(p + 3));
  };
  ApproxContext ctx(set, 3);
  for (std::size_t m = 0; m < set.multipliers.size(); ++m) {
    ctx.Configure(Select(3, 1, m, {false, false, false}));
    const auto planes = memo.Planes(ctx, fill);
    EXPECT_EQ(planes[0], nullptr) << m;
    EXPECT_EQ(planes[1], nullptr) << m;
  }
  EXPECT_EQ(fills, std::vector<int>(set.multipliers.size(), 0));

  for (int round = 0; round < 2; ++round) {
    for (std::size_t m = 0; m < set.multipliers.size(); ++m) {
      ctx.Configure(Select(3, 0, m, {false, true, false}));
      const auto planes = memo.Planes(ctx, fill);
      ASSERT_NE(planes[0], nullptr);
      ASSERT_NE(planes[1], nullptr);
      for (std::size_t p = 0; p < 20; ++p) {
        const auto a = static_cast<std::int64_t>(p);
        EXPECT_EQ(planes[0][p],
                  axc::DispatchMulSigned(ctx.Plan().mul[0], a, a + 3));
        EXPECT_EQ(planes[1][p],
                  axc::DispatchMulSigned(ctx.Plan().mul[1], a, a + 3));
      }
      if (m == 0) {
        EXPECT_EQ(planes[0], planes[1]);  // one exact plane
      }
    }
  }
  EXPECT_EQ(fills, std::vector<int>(set.multipliers.size(), 1));
}

TEST(ProductMemo, CapCheckDoesNotOverflow) {
  const axc::OperatorSet set = axc::EvoApproxCatalog::Instance().MatMulSet();
  EXPECT_EQ(ProductMemo(set, {ProductMemo::kMaxProducts}).Size(),
            ProductMemo::kMaxProducts);
  EXPECT_EQ(ProductMemo(set, {ProductMemo::kMaxProducts + 1}).Size(), 0u);
  EXPECT_EQ(ProductMemo(set, {256, 256}).Size(), ProductMemo::kMaxProducts);
  EXPECT_EQ(ProductMemo(set, {256, 257}).Size(), 0u);
  // n^3 for n = 2^22 is 2^66: a plain product wraps to 0 (or to a small
  // number for nearby n) and would pass a naive `n * n * n <= cap`.
  const std::size_t n = std::size_t{1} << 22;
  EXPECT_EQ(ProductMemo(set, {n, n, n}).Size(), 0u);
  EXPECT_EQ(ProductMemo(set, {n + 1, n + 1, n + 1}).Size(), 0u);
  const std::size_t half = std::size_t{1} << 32;
  EXPECT_EQ(ProductMemo(set, {half, half}).Size(), 0u);
  // 2 * (2^63 + 1) wraps to 2, whichever extent comes first.
  const std::size_t odd = (std::size_t{1} << 63) + 1;
  EXPECT_EQ(ProductMemo(set, {2, odd}).Size(), 0u);
  EXPECT_EQ(ProductMemo(set, {odd, 2}).Size(), 0u);

  const ProductMemo above(set, {n, n, n});
  ApproxContext ctx(set, 2);
  ctx.Configure(Select(2, 1, 1, {true, true}));
  bool filled = false;
  const auto planes = above.Planes(
      ctx, [&](const axc::MulOpDescriptor&, std::int64_t*) { filled = true; });
  EXPECT_EQ(planes[0], nullptr);
  EXPECT_EQ(planes[1], nullptr);
  EXPECT_FALSE(filled);
}

TEST(ProductMemo, SumProductsMatchesDotAccumulate) {
  // The primitive on its own: memoized products of u8 and signed i32
  // operands against the DotAccumulate chain, every pair of both operator
  // sets, with a nonzero starting accumulator.
  util::Rng rng(71);
  for (const auto& set : {axc::EvoApproxCatalog::Instance().MatMulSet(),
                          axc::EvoApproxCatalog::Instance().FirSet()}) {
    std::vector<std::uint8_t> a8(37), b8(37);
    std::vector<std::int32_t> a32(37), b32(37);
    for (auto& v : a8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
    for (auto& v : b8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
    for (auto& v : a32)
      v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
    for (auto& v : b32)
      v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
    for (std::size_t ai = 0; ai < set.adders.size(); ++ai) {
      for (std::size_t mi = 0; mi < set.multipliers.size(); ++mi) {
        for (const std::vector<bool>& mask :
             {std::vector<bool>{true, false, true},
              std::vector<bool>{false, false, false},
              std::vector<bool>{false, true, false}}) {
          const ApproxSelection sel = Select(3, ai, mi, mask);
          ApproxContext memo(set, 3);
          ApproxContext chains(set, 3);
          memo.Configure(sel);
          chains.Configure(sel);
          const axc::MulOpDescriptor& mul =
              memo.Plan().mul[memo.AnyApproximated({0, 1})];
          std::vector<std::int64_t> p8(a8.size()), p32(a32.size());
          for (std::size_t i = 0; i < a8.size(); ++i) {
            p8[i] = axc::DispatchMulSigned(mul, a8[i], b8[i]);
            p32[i] = axc::DispatchMulSigned(mul, a32[i], b32[i]);
          }
          const std::string what = set.name + " " + sel.ToString();
          for (const std::size_t n : {0, 1, 7, 37}) {
            EXPECT_EQ(memo.SumProducts(1234, p8.data(), n, {0, 1}, {2}),
                      chains.DotAccumulate(1234, a8.data(), 1, b8.data(), 1,
                                           n, {0, 1}, {2}))
                << what << " u8 n=" << n;
            EXPECT_EQ(memo.SumProducts(-99, p32.data(), n, {0, 1}, {2}),
                      chains.DotAccumulate(-99, a32.data(), 1, b32.data(), 1,
                                           n, {0, 1}, {2}))
                << what << " i32 n=" << n;
          }
          EXPECT_EQ(memo.Counts().precise_muls, chains.Counts().precise_muls);
          EXPECT_EQ(memo.Counts().approx_muls, chains.Counts().approx_muls);
          EXPECT_EQ(memo.Counts().precise_adds, chains.Counts().precise_adds);
          EXPECT_EQ(memo.Counts().approx_adds, chains.Counts().approx_adds);
        }
      }
    }
  }
}

/// Eight threads released together onto `kernel`'s untouched planes, one
/// multiplier at a time (the exact multiplier's plane included).
void RaceFirstUse(const Kernel& kernel, const Reference& reference) {
  constexpr std::size_t kThreads = 8;
  const std::size_t num_muls = kernel.Operators().multipliers.size();
  for (std::size_t m = 0; m < num_muls; ++m) {
    std::vector<bool> mask(kernel.NumVariables());
    for (std::size_t v = 0; v < mask.size(); ++v) mask[v] = v % 2 == 0;
    const ApproxSelection sel =
        Select(kernel.NumVariables(), m % kernel.Operators().adders.size(), m,
               mask);
    ApproxContext chains = kernel.MakeContext();
    chains.Configure(sel);
    const std::vector<double> want = reference(chains);

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
      EXPECT_EQ(got[t], want)
          << kernel.Name() << " thread " << t << " multiplier " << m;
  }
}

TEST(ProductMemo, ConcurrentFirstUseIsRaceFree) {
  const MatMulKernel matmul(10, MatMulGranularity::kRowCol, 2023);
  RaceFirstUse(matmul, MatMulChains(matmul));
  const Conv2DKernel conv2d(16, 16, 4, 2023);
  RaceFirstUse(conv2d, Conv2DChains(conv2d));
  const SobelKernel sobel(16, 16, 4, 2023);
  RaceFirstUse(sobel, SobelChains(sobel));
  const DotProductKernel dot(64, 4, 2023);
  RaceFirstUse(dot, DotChains(dot));
}

}  // namespace
}  // namespace axdse::workloads
