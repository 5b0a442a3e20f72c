// Batched-primitive equivalence: DotAccumulate/AxpyAccumulate and the
// *Resolved scalar ops must produce bit-identical outputs AND identical
// OpCounts to the per-op scalar path (Mul/Add with per-op selection scan),
// for every catalog operator pair, and every registry kernel must match a
// scalar mirror of its historical per-op implementation under random
// selections. This is the proof obligation behind rewriting the kernels on
// the batched API: well over 100 randomized cases across both operator
// sets and all six kernels.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "axc/catalog.hpp"
#include "instrument/approx_context.hpp"
#include "util/rng.hpp"
#include "workloads/conv2d_kernel.hpp"
#include "workloads/dct_kernel.hpp"
#include "workloads/dot_product_kernel.hpp"
#include "workloads/fir_kernel.hpp"
#include "workloads/iir_kernel.hpp"
#include "workloads/kmeans_kernel.hpp"
#include "workloads/matmul_kernel.hpp"
#include "workloads/registry.hpp"
#include "workloads/sobel_kernel.hpp"

namespace axdse::instrument {
namespace {

using workloads::Kernel;

/// Random selection over `num_vars` variables and the given operator set.
ApproxSelection RandomSelection(const axc::OperatorSet& set,
                                std::size_t num_vars, util::Rng& rng) {
  ApproxSelection sel(num_vars);
  sel.SetAdderIndex(
      static_cast<std::uint32_t>(rng.UniformBelow(set.adders.size())));
  sel.SetMultiplierIndex(
      static_cast<std::uint32_t>(rng.UniformBelow(set.multipliers.size())));
  for (std::size_t v = 0; v < num_vars; ++v)
    if (rng.UniformBelow(2) == 1) sel.SetVariable(v, true);
  return sel;
}

void ExpectSameCounts(const energy::OpCounts& batched,
                      const energy::OpCounts& scalar,
                      const std::string& what) {
  EXPECT_EQ(batched.precise_adds, scalar.precise_adds) << what;
  EXPECT_EQ(batched.approx_adds, scalar.approx_adds) << what;
  EXPECT_EQ(batched.precise_muls, scalar.precise_muls) << what;
  EXPECT_EQ(batched.approx_muls, scalar.approx_muls) << what;
}

// ---------------------------------------------------------------------------
// Primitive level: batched vs scalar loops over random data and selections.
// ---------------------------------------------------------------------------

TEST(BatchEquivalence, DotAccumulateMatchesScalarLoopForEveryOperatorPair) {
  util::Rng rng(101);
  for (const auto& set : {axc::EvoApproxCatalog::Instance().MatMulSet(),
                          axc::EvoApproxCatalog::Instance().FirSet()}) {
    std::vector<std::uint8_t> a8(64), b8(64);
    std::vector<std::int32_t> a32(64), b32(64);
    for (auto& v : a8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
    for (auto& v : b8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
    for (auto& v : a32)
      v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
    for (auto& v : b32)
      v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;

    // Every adder x multiplier pair, both as the selected (approximate)
    // operators with variables on and off the op's lists.
    for (std::uint32_t ai = 0; ai < set.adders.size(); ++ai) {
      for (std::uint32_t mi = 0; mi < set.multipliers.size(); ++mi) {
        ApproxContext batched(set, 4);
        ApproxContext scalar(set, 4);
        ApproxSelection sel(4);
        sel.SetAdderIndex(ai);
        sel.SetMultiplierIndex(mi);
        sel.SetVariable(rng.UniformBelow(4), true);
        batched.Configure(sel);
        scalar.Configure(sel);

        // Unsigned u8 path (unit and non-unit strides).
        for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
          const std::size_t n = 64 / stride;
          const std::int64_t got = batched.DotAccumulate(
              0, a8.data(), stride, b8.data(), stride, n, {0, 1}, {2});
          std::int64_t want = 0;
          for (std::size_t i = 0; i < n; ++i)
            want = scalar.Add(
                want,
                scalar.Mul(a8[i * stride], b8[i * stride], {0, 1}), {2});
          EXPECT_EQ(got, want) << set.name << " add=" << ai << " mul=" << mi
                               << " stride=" << stride;
        }
        // Signed i32 path.
        const std::int64_t got32 = batched.DotAccumulate(
            0, a32.data(), 1, b32.data(), 1, a32.size(), {0, 3}, {2});
        std::int64_t want32 = 0;
        for (std::size_t i = 0; i < a32.size(); ++i)
          want32 = scalar.Add(want32, scalar.Mul(a32[i], b32[i], {0, 3}), {2});
        EXPECT_EQ(got32, want32) << set.name << " add=" << ai << " mul=" << mi;
        ExpectSameCounts(batched.Counts(), scalar.Counts(),
                         set.name + " dot counts");
      }
    }
  }
}

TEST(BatchEquivalence, AxpyAccumulateMatchesScalarLoop) {
  util::Rng rng(103);
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  std::vector<std::int32_t> x(48);
  for (auto& v : x)
    v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
  for (int c = 0; c < 24; ++c) {
    const ApproxSelection sel = RandomSelection(set, 3, rng);
    ApproxContext batched(set, 3);
    ApproxContext scalar(set, 3);
    batched.Configure(sel);
    scalar.Configure(sel);
    const std::int64_t alpha =
        static_cast<std::int64_t>(rng.UniformBelow(65536)) - 32768;

    std::vector<std::int64_t> y_batched(x.size());
    std::vector<std::int64_t> y_scalar(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      y_batched[i] = y_scalar[i] =
          static_cast<std::int64_t>(rng.UniformBelow(1u << 20)) - (1 << 19);

    batched.AxpyAccumulate(y_batched.data(), x.data(), x.size(), alpha,
                           {0, 1}, {2});
    for (std::size_t i = 0; i < x.size(); ++i)
      y_scalar[i] =
          scalar.Add(y_scalar[i], scalar.Mul(alpha, x[i], {0, 1}), {2});
    EXPECT_EQ(y_batched, y_scalar) << sel.ToString();
    ExpectSameCounts(batched.Counts(), scalar.Counts(), sel.ToString());
  }
}

TEST(BatchEquivalence, ResolvedOpsMatchPerOpSelectionScan) {
  util::Rng rng(107);
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  for (int c = 0; c < 20; ++c) {
    const ApproxSelection sel = RandomSelection(set, 4, rng);
    ApproxContext resolved(set, 4);
    ApproxContext scanned(set, 4);
    resolved.Configure(sel);
    scanned.Configure(sel);
    const bool group = resolved.AnyApproximated({1, 3});
    for (int i = 0; i < 50; ++i) {
      const std::int64_t a =
          static_cast<std::int64_t>(rng.UniformBelow(1u << 30)) - (1 << 29);
      const std::int64_t b =
          static_cast<std::int64_t>(rng.UniformBelow(1u << 15)) - (1 << 14);
      EXPECT_EQ(resolved.AddResolved(group, a, b), scanned.Add(a, b, {1, 3}));
      EXPECT_EQ(resolved.MulResolved(group, b, a), scanned.Mul(b, a, {1, 3}));
    }
    ExpectSameCounts(resolved.Counts(), scanned.Counts(), sel.ToString());
  }
}

// ---------------------------------------------------------------------------
// Lane-hostile shapes: the SIMD/multi-lane rewrite must stay bit-identical
// on exactly the lengths and strides a vectorized loop gets wrong — empty
// chains, chains shorter than one vector lane width, lengths that are not a
// multiple of the lane width (remainder handling), non-unit strides, and
// mixed signed/u8 operand paths. Landed before the rewrite so it gates it.
// ---------------------------------------------------------------------------

TEST(BatchEquivalence, DotAccumulateLaneHostileLengthsAndStrides) {
  util::Rng rng(109);
  // Lengths straddling typical 4/8-wide SIMD lanes, plus the empty chain.
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31};
  for (const auto& set : {axc::EvoApproxCatalog::Instance().MatMulSet(),
                          axc::EvoApproxCatalog::Instance().FirSet()}) {
    std::vector<std::uint8_t> a8(128), b8(128);
    std::vector<std::int32_t> a32(128), b32(128);
    for (auto& v : a8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
    for (auto& v : b8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
    for (auto& v : a32)
      v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
    for (auto& v : b32)
      v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
    for (int c = 0; c < 12; ++c) {
      const ApproxSelection sel = RandomSelection(set, 4, rng);
      ApproxContext batched(set, 4);
      ApproxContext scalar(set, 4);
      batched.Configure(sel);
      scalar.Configure(sel);
      const std::int64_t init =
          static_cast<std::int64_t>(rng.UniformBelow(1u << 16));
      for (const std::size_t n : lengths) {
        for (const std::size_t stride : {std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4}}) {
          if (n * stride > a8.size()) continue;
          // u8 path (table8 or unsigned family loop).
          const std::int64_t got8 = batched.DotAccumulate(
              init, a8.data(), stride, b8.data(), stride, n, {0, 1}, {2});
          std::int64_t want8 = init;
          for (std::size_t i = 0; i < n; ++i)
            want8 = scalar.Add(
                want8, scalar.Mul(a8[i * stride], b8[i * stride], {0, 1}),
                {2});
          EXPECT_EQ(got8, want8) << set.name << " n=" << n
                                 << " stride=" << stride << " "
                                 << sel.ToString();
          // Signed path at the same hostile shapes.
          const std::int64_t got32 = batched.DotAccumulate(
              0, a32.data(), stride, b32.data(), stride, n, {0, 3}, {2});
          std::int64_t want32 = 0;
          for (std::size_t i = 0; i < n; ++i)
            want32 = scalar.Add(
                want32, scalar.Mul(a32[i * stride], b32[i * stride], {0, 3}),
                {2});
          EXPECT_EQ(got32, want32) << set.name << " n=" << n
                                   << " stride=" << stride << " "
                                   << sel.ToString();
        }
      }
      ExpectSameCounts(batched.Counts(), scalar.Counts(),
                       set.name + " hostile-shape counts " + sel.ToString());
    }
  }
}

TEST(BatchEquivalence, DotAccumulateMixedSignedU8Operands) {
  // One unsigned 8-bit operand against one signed 32-bit operand must take
  // the signed sign-magnitude path and match the per-op loop exactly.
  util::Rng rng(113);
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  std::vector<std::uint8_t> a8(64);
  std::vector<std::int32_t> b32(64);
  for (auto& v : a8) v = static_cast<std::uint8_t>(rng.UniformBelow(256));
  for (auto& v : b32)
    v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
  for (int c = 0; c < 16; ++c) {
    const ApproxSelection sel = RandomSelection(set, 4, rng);
    ApproxContext batched(set, 4);
    ApproxContext scalar(set, 4);
    batched.Configure(sel);
    scalar.Configure(sel);
    for (const std::size_t n : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                                std::size_t{9}, std::size_t{64}}) {
      const std::int64_t got = batched.DotAccumulate(
          0, a8.data(), 1, b32.data(), 1, n, {0, 1}, {2});
      std::int64_t want = 0;
      for (std::size_t i = 0; i < n; ++i)
        want = scalar.Add(want, scalar.Mul(a8[i], b32[i], {0, 1}), {2});
      EXPECT_EQ(got, want) << "n=" << n << " " << sel.ToString();
    }
    ExpectSameCounts(batched.Counts(), scalar.Counts(),
                     "mixed-operand counts " + sel.ToString());
  }
}

TEST(BatchEquivalence, AxpyAccumulateLaneHostileLengths) {
  util::Rng rng(127);
  const auto set = axc::EvoApproxCatalog::Instance().FirSet();
  std::vector<std::int32_t> x(48);
  for (auto& v : x)
    v = static_cast<std::int32_t>(rng.UniformBelow(65536)) - 32768;
  for (int c = 0; c < 10; ++c) {
    const ApproxSelection sel = RandomSelection(set, 3, rng);
    ApproxContext batched(set, 3);
    ApproxContext scalar(set, 3);
    batched.Configure(sel);
    scalar.Configure(sel);
    const std::int64_t alpha =
        static_cast<std::int64_t>(rng.UniformBelow(65536)) - 32768;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                                std::size_t{8}, std::size_t{11},
                                std::size_t{33}}) {
      std::vector<std::int64_t> y_batched(n), y_scalar(n);
      for (std::size_t i = 0; i < n; ++i)
        y_batched[i] = y_scalar[i] =
            static_cast<std::int64_t>(rng.UniformBelow(1u << 20)) - (1 << 19);
      batched.AxpyAccumulate(y_batched.data(), x.data(), n, alpha, {0, 1},
                             {2});
      for (std::size_t i = 0; i < n; ++i)
        y_scalar[i] =
            scalar.Add(y_scalar[i], scalar.Mul(alpha, x[i], {0, 1}), {2});
      EXPECT_EQ(y_batched, y_scalar) << "n=" << n << " " << sel.ToString();
    }
    ExpectSameCounts(batched.Counts(), scalar.Counts(),
                     "axpy hostile counts " + sel.ToString());
  }
}

TEST(BatchEquivalence, ExactMultiplierChainsMatchDispatchLoops) {
  // The exact multiplier skips the sign-magnitude wrappers (its signed form
  // is the wrapping product), and so does the exact adder. Checked against
  // loops of scalar DispatchMulSigned/DispatchAddSigned at negative and
  // extreme Q15/Q30 operands and accumulators, for exact x exact and for
  // the exact multiplier under every adder of both operator sets.
  constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax64 = std::numeric_limits<std::int64_t>::max();
  constexpr std::int32_t kMin32 = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax32 = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kQ30 = 1 << 30;
  const std::vector<std::int32_t> x = {-32768, 32767,    -32767,   -1,
                                       0,      1,        -16384,   12345,
                                       -kQ30,  kQ30 - 1, 1 - kQ30, kMin32,
                                       kMax32};
  const std::vector<std::int32_t> x_rev(x.rbegin(), x.rend());
  const std::int64_t alphas[] = {-32768, 32767,    -1,    0,
                                 -kQ30,  kQ30 - 1, kMin32};
  const std::int64_t inits[] = {0,
                                -1,
                                kMin64,
                                kMax64,
                                -(std::int64_t{1} << 60),
                                (std::int64_t{1} << 60) + 12345};
  for (const auto& set : {axc::EvoApproxCatalog::Instance().MatMulSet(),
                          axc::EvoApproxCatalog::Instance().FirSet()}) {
    ASSERT_EQ(set.multipliers.front().op.code, axc::MulOpCode::kExact);
    for (std::uint32_t ai = 0; ai < set.adders.size(); ++ai) {
      // Nothing selected: exact x exact. Everything selected: the exact
      // multiplier (index 0) with adder `ai`.
      for (const bool selected : {false, true}) {
        ApproxSelection sel(3);
        sel.SetAdderIndex(ai);
        sel.SetMultiplierIndex(0);
        for (std::size_t v = 0; v < 3; ++v) sel.SetVariable(v, selected);
        ApproxContext ctx(set, 3);
        ctx.Configure(sel);
        const axc::MulOpDescriptor& mul = ctx.Plan().mul[selected];
        const axc::AddOpDescriptor& add = ctx.Plan().add[selected];
        ASSERT_EQ(mul.code, axc::MulOpCode::kExact);
        const std::string what = set.name + " " + sel.ToString();
        for (const std::int64_t alpha : alphas) {
          for (const std::int64_t init : inits) {
            std::vector<std::int64_t> y(x.size());
            for (std::size_t i = 0; i < y.size(); ++i)
              y[i] = i % 2 == 0 ? init : ~init;  // ~init == -init - 1
            std::vector<std::int64_t> want = y;
            ctx.AxpyAccumulate(y.data(), x.data(), x.size(), alpha, {0, 1},
                               {2});
            for (std::size_t i = 0; i < want.size(); ++i)
              want[i] = axc::DispatchAddSigned(
                  add, want[i], axc::DispatchMulSigned(mul, alpha, x[i]));
            EXPECT_EQ(y, want) << what << " alpha=" << alpha;
          }
        }
        for (const std::int64_t init : inits) {
          std::int64_t want = init;
          for (std::size_t i = 0; i < x.size(); ++i)
            want = axc::DispatchAddSigned(
                add, want, axc::DispatchMulSigned(mul, x[i], x_rev[i]));
          EXPECT_EQ(ctx.DotAccumulate(init, x.data(), 1, x_rev.data(), 1,
                                      x.size(), {0, 1}, {2}),
                    want)
              << what << " init=" << init;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel level: every registry kernel vs a scalar mirror of its historical
// per-op implementation, under random selections.
// ---------------------------------------------------------------------------

/// Scalar mirrors reproduce the pre-batching Run() bodies through the
/// context's per-op API (Mul/Add with per-op selection scans).
std::vector<double> MirrorMatMul(const workloads::MatMulKernel& k,
                                 ApproxContext& ctx) {
  const std::size_t n = k.Size();
  std::vector<double> out(n * n);
  const std::size_t acc_var = k.VarOfAccumulator();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row_var = k.VarOfARow(i);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t col_var = k.VarOfBCol(j);
      std::int64_t acc = 0;
      for (std::size_t kk = 0; kk < n; ++kk) {
        const std::int64_t product =
            ctx.Mul(k.A(i, kk), k.B(kk, j), {row_var, col_var});
        acc = ctx.Add(acc, product, {acc_var});
      }
      out[i * n + j] = static_cast<double>(acc);
    }
  }
  return out;
}

std::vector<double> MirrorFir(const workloads::FirKernel& k,
                              ApproxContext& ctx) {
  const auto& x = k.SamplesQ15();
  const auto& h = k.CoefficientsQ15();
  std::vector<double> out(x.size());
  const std::size_t x_var = k.VarOfInput();
  const std::size_t acc_var = k.VarOfAccumulator();
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::int64_t acc = 0;
    for (std::size_t t = 0; t < h.size(); ++t) {
      if (i < t) break;
      const std::int64_t product =
          ctx.Mul(h[t], x[i - t], {k.VarOfTap(t), x_var});
      acc = ctx.Add(acc, product, {acc_var});
    }
    out[i] = static_cast<double>(acc);
  }
  return out;
}

std::vector<double> MirrorIir(const workloads::IirKernel& k,
                              ApproxContext& ctx) {
  const auto& x = k.SamplesQ15();
  const std::int32_t* b = k.FeedForwardQ15();
  const std::int32_t* a = k.FeedbackQ15();
  std::vector<double> out(x.size());
  const std::size_t vx = k.VarOfInput();
  const std::size_t vb = k.VarOfFeedForward();
  const std::size_t va = k.VarOfFeedback();
  const std::size_t vacc = k.VarOfAccumulator();
  std::int64_t x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  for (std::size_t n = 0; n < x.size(); ++n) {
    const std::int64_t xn = x[n];
    std::int64_t acc = 0;
    acc = ctx.Add(acc, ctx.Mul(b[0], xn, {vb, vx}), {vacc});
    acc = ctx.Add(acc, ctx.Mul(b[1], x1, {vb, vx}), {vacc});
    acc = ctx.Add(acc, ctx.Mul(b[2], x2, {vb, vx}), {vacc});
    const std::int64_t fb1 = ctx.Mul(a[0], y1, {va, vacc});
    acc = ctx.Add(acc, -2 * fb1, {vacc});
    const std::int64_t fb2 = ctx.Mul(a[1], y2, {va, vacc});
    acc = ctx.Add(acc, -fb2, {vacc});
    const std::int64_t yn = acc >> 15;
    out[n] = static_cast<double>(yn);
    x2 = x1;
    x1 = xn;
    y2 = y1;
    y1 = yn;
  }
  return out;
}

std::vector<double> MirrorConv2D(const workloads::Conv2DKernel& k,
                                 ApproxContext& ctx) {
  const std::size_t out_rows = k.Height() - 2;
  const std::size_t out_cols = k.Width() - 2;
  std::vector<double> out(out_rows * out_cols);
  const std::size_t stencil_var = k.VarOfStencil();
  const std::size_t acc_var = k.VarOfAccumulator();
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = k.VarOfRow(y);
    for (std::size_t x = 0; x < out_cols; ++x) {
      std::int64_t acc = 0;
      for (std::size_t dy = 0; dy < 3; ++dy) {
        for (std::size_t dx = 0; dx < 3; ++dx) {
          const std::int64_t product =
              ctx.Mul(k.Pixel(y + dy, x + dx), k.StencilWeight(dy, dx),
                      {row_var, stencil_var});
          acc = ctx.Add(acc, product, {acc_var});
        }
      }
      out[y * out_cols + x] = static_cast<double>(acc);
    }
  }
  return out;
}

std::vector<double> MirrorDct(const workloads::DctKernel& k,
                              ApproxContext& ctx) {
  std::vector<double> out(k.Blocks() * 64);
  const std::size_t px = k.VarOfPixels();
  const std::size_t cf = k.VarOfCoeffs();
  const std::size_t ac = k.VarOfAccumulator();
  std::int64_t temp[64];
  for (std::size_t b = 0; b < k.Blocks(); ++b) {
    for (std::size_t u = 0; u < 8; ++u) {
      for (std::size_t j = 0; j < 8; ++j) {
        std::int64_t acc = 0;
        for (std::size_t kk = 0; kk < 8; ++kk) {
          const std::int64_t product = ctx.Mul(
              k.CoefficientQ14(u, kk), k.Pixel(b, kk, j), {cf, px});
          acc = ctx.Add(acc, product, {ac});
        }
        temp[u * 8 + j] = acc >> 14;
      }
    }
    for (std::size_t u = 0; u < 8; ++u) {
      for (std::size_t v = 0; v < 8; ++v) {
        std::int64_t acc = 0;
        for (std::size_t kk = 0; kk < 8; ++kk) {
          const std::int64_t product =
              ctx.Mul(temp[u * 8 + kk], k.CoefficientQ14(v, kk), {px, cf});
          acc = ctx.Add(acc, product, {ac});
        }
        out[b * 64 + u * 8 + v] = static_cast<double>(acc);
      }
    }
  }
  return out;
}

std::vector<double> MirrorSobel(const workloads::SobelKernel& k,
                                ApproxContext& ctx) {
  const std::size_t out_rows = k.Height() - 2;
  const std::size_t out_cols = k.Width() - 2;
  std::vector<double> out(out_rows * out_cols);
  const std::size_t kx = k.VarOfKx();
  const std::size_t ky = k.VarOfKy();
  const std::size_t acc_var = k.VarOfAccumulator();
  for (std::size_t y = 0; y < out_rows; ++y) {
    const std::size_t row_var = k.VarOfRow(y);
    for (std::size_t x = 0; x < out_cols; ++x) {
      // Same operation order as the batched kernel: the four smoothed
      // 3-MACs, then the two differences, then the magnitude.
      std::int64_t gx_pos = 0, gx_neg = 0, gy_pos = 0, gy_neg = 0;
      for (std::size_t i = 0; i < 3; ++i)
        gx_pos = ctx.Add(gx_pos,
                         ctx.Mul(k.Pixel(y + i, x + 2), k.SmoothWeight(i),
                                 {row_var, kx}),
                         {acc_var});
      for (std::size_t i = 0; i < 3; ++i)
        gx_neg = ctx.Add(
            gx_neg,
            ctx.Mul(k.Pixel(y + i, x), k.SmoothWeight(i), {row_var, kx}),
            {acc_var});
      const std::int64_t gx = ctx.Add(gx_pos, -gx_neg, {acc_var});
      for (std::size_t i = 0; i < 3; ++i)
        gy_pos = ctx.Add(gy_pos,
                         ctx.Mul(k.Pixel(y + 2, x + i), k.SmoothWeight(i),
                                 {row_var, ky}),
                         {acc_var});
      for (std::size_t i = 0; i < 3; ++i)
        gy_neg = ctx.Add(
            gy_neg,
            ctx.Mul(k.Pixel(y, x + i), k.SmoothWeight(i), {row_var, ky}),
            {acc_var});
      const std::int64_t gy = ctx.Add(gy_pos, -gy_neg, {acc_var});
      const std::int64_t mag =
          ctx.Add(gx < 0 ? -gx : gx, gy < 0 ? -gy : gy, {acc_var});
      out[y * out_cols + x] = static_cast<double>(mag);
    }
  }
  return out;
}

std::vector<double> MirrorKMeans(const workloads::KMeans1DKernel& k,
                                 ApproxContext& ctx) {
  const std::size_t n = k.Length();
  const std::size_t clusters = k.Clusters();
  const std::size_t vp = k.VarOfPoints();
  const std::size_t vc = k.VarOfCentroids();
  const std::size_t vd = k.VarOfDistance();
  const std::size_t va = k.VarOfAccumulator();
  std::vector<std::int64_t> best_diff(n);
  std::vector<std::size_t> assign(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t best_d = std::numeric_limits<std::int64_t>::max();
    std::size_t best_j = 0;
    std::int64_t best_diff_i = 0;
    for (std::size_t j = 0; j < clusters; ++j) {
      const std::int64_t diff =
          ctx.Add(k.Point(i), -static_cast<std::int64_t>(k.Centroid(j)),
                  {vp, vc});
      const std::int64_t d = ctx.Mul(diff, diff, {vd});
      if (d < best_d) {
        best_d = d;
        best_j = j;
        best_diff_i = diff;
      }
    }
    assign[i] = best_j;
    best_diff[i] = best_diff_i;
  }
  std::vector<double> out(2 * clusters);
  for (std::size_t j = 0; j < clusters; ++j) {
    std::int64_t inertia = 0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (assign[i] != j) continue;
      inertia =
          ctx.Add(inertia, ctx.Mul(best_diff[i], best_diff[i], {vd}), {va});
      ++count;
    }
    out[2 * j] = static_cast<double>(inertia);
    out[2 * j + 1] = static_cast<double>(count);
  }
  return out;
}

std::vector<double> MirrorDot(const workloads::DotProductKernel& k,
                              ApproxContext& ctx) {
  std::vector<double> out(k.Blocks());
  const std::size_t block_len = k.Length() / k.Blocks();
  for (std::size_t g = 0; g < k.Blocks(); ++g) {
    const std::size_t begin = g * block_len;
    const std::size_t end =
        g + 1 == k.Blocks() ? k.Length() : begin + block_len;
    std::int64_t acc = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::int64_t product =
          ctx.Mul(k.A(i), k.B(i), {k.VarOfA(), k.VarOfB()});
      acc = ctx.Add(acc, product, {k.VarOfAccumulator()});
    }
    out[g] = static_cast<double>(acc);
  }
  return out;
}

template <class ConcreteKernel, class Mirror>
void CheckKernelAgainstMirror(const ConcreteKernel& kernel, Mirror mirror,
                              int cases, std::uint64_t seed) {
  util::Rng rng(seed);
  ApproxContext batched = kernel.MakeContext();
  ApproxContext scalar = kernel.MakeContext();
  for (int c = 0; c < cases; ++c) {
    const ApproxSelection sel =
        RandomSelection(kernel.Operators(), kernel.NumVariables(), rng);
    batched.Configure(sel);
    scalar.Configure(sel);
    const std::vector<double> got = kernel.Run(batched);
    const std::vector<double> want = mirror(kernel, scalar);
    ASSERT_EQ(got, want) << kernel.Name() << " " << sel.ToString();
    ExpectSameCounts(batched.Counts(), scalar.Counts(),
                     kernel.Name() + " " + sel.ToString());
  }
}

TEST(KernelEquivalence, MatMulMatchesScalarMirror) {
  CheckKernelAgainstMirror(
      workloads::MatMulKernel(8, workloads::MatMulGranularity::kRowCol, 5),
      MirrorMatMul, 20, 211);
  CheckKernelAgainstMirror(
      workloads::MatMulKernel(6, workloads::MatMulGranularity::kPerMatrix, 9),
      MirrorMatMul, 10, 223);
}

TEST(KernelEquivalence, FirMatchesScalarMirror) {
  // The batched kernel iterates tap-major (AXPY); the mirror is the
  // historical sample-major loop — same per-output operand sequence.
  CheckKernelAgainstMirror(workloads::FirKernel(60, 5), MirrorFir, 20, 227);
  // Fewer samples than taps: the zero-padded prefix must agree too.
  CheckKernelAgainstMirror(
      workloads::FirKernel(9, 17, 0.2, workloads::FirGranularity::kPerTap, 5),
      MirrorFir, 10, 229);
}

TEST(KernelEquivalence, IirMatchesScalarMirror) {
  CheckKernelAgainstMirror(workloads::IirKernel(64, 0.2, 7), MirrorIir, 20,
                           233);
}

TEST(KernelEquivalence, Conv2DMatchesScalarMirror) {
  CheckKernelAgainstMirror(workloads::Conv2DKernel(10, 12, 3, 11),
                           MirrorConv2D, 20, 239);
}

TEST(KernelEquivalence, DctMatchesScalarMirror) {
  CheckKernelAgainstMirror(workloads::DctKernel(2, 13), MirrorDct, 20, 241);
}

TEST(KernelEquivalence, DotMatchesScalarMirror) {
  CheckKernelAgainstMirror(workloads::DotProductKernel(48, 5, 17), MirrorDot,
                           20, 251);
}

TEST(KernelEquivalence, SobelMatchesScalarMirror) {
  CheckKernelAgainstMirror(workloads::SobelKernel(9, 11, 3, 19), MirrorSobel,
                           20, 257);
}

TEST(KernelEquivalence, KMeansMatchesScalarMirror) {
  CheckKernelAgainstMirror(workloads::KMeans1DKernel(40, 5, 23), MirrorKMeans,
                           20, 263);
}

}  // namespace
}  // namespace axdse::instrument
