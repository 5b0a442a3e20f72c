// Tests for workloads/registry: builtin coverage, lookup and error paths,
// parameterized construction determinism, custom registration.

#include "workloads/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "workloads/dot_product_kernel.hpp"
#include "workloads/fir_kernel.hpp"
#include "workloads/matmul_kernel.hpp"

namespace axdse::workloads {
namespace {

TEST(KernelParams, TypedExtraLookups) {
  KernelParams params;
  params.extra = {{"taps", "33"}, {"cutoff", "0.25"}, {"granularity", "x"}};
  EXPECT_EQ(params.GetInt("taps", 17), 33);
  EXPECT_DOUBLE_EQ(params.GetDouble("cutoff", 0.2), 0.25);
  EXPECT_EQ(params.GetString("granularity", "y"), "x");
  EXPECT_EQ(params.GetInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(params.GetDouble("absent", 0.5), 0.5);
  EXPECT_EQ(params.GetString("absent", "z"), "z");
}

TEST(KernelParams, BadValuesThrowInsteadOfFallingBack) {
  KernelParams params;
  params.extra = {{"taps", "many"}};
  EXPECT_THROW(params.GetInt("taps", 17), std::invalid_argument);
  EXPECT_THROW(params.GetDouble("taps", 0.2), std::invalid_argument);
}

TEST(KernelRegistry, GlobalHasAllBuiltins) {
  const KernelRegistry& registry = KernelRegistry::Global();
  for (const char* name : {"matmul", "fir", "iir", "conv2d", "dct", "dot",
                           "sobel3x3", "kmeans1d"}) {
    EXPECT_TRUE(registry.Has(name)) << name;
  }
  const std::vector<std::string> names = registry.Names();
  EXPECT_GE(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(KernelRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    KernelRegistry::Global().Create("no-such-kernel", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-kernel"), std::string::npos);
    EXPECT_NE(message.find("matmul"), std::string::npos);
  }
}

TEST(KernelRegistry, DefaultsMatchDocumentedSizes) {
  const KernelRegistry& registry = KernelRegistry::Global();
  EXPECT_EQ(registry.Create("matmul", {})->Name(),
            MatMulKernel(10, MatMulGranularity::kPerMatrix, 42).Name());
  EXPECT_EQ(registry.Create("fir", {})->Name(), FirKernel(100, 42).Name());
  EXPECT_EQ(registry.Create("dot", {})->Name(),
            DotProductKernel(64, 4, 42).Name());
}

TEST(KernelRegistry, ParameterizedConstructionIsDeterministic) {
  KernelParams params;
  params.size = 12;
  params.seed = 99;
  params.extra = {{"granularity", "row-col"}};
  const auto a = KernelRegistry::Global().Create("matmul", params);
  const auto b = KernelRegistry::Global().Create("matmul", params);
  EXPECT_EQ(a->Name(), b->Name());
  EXPECT_EQ(a->NumVariables(), b->NumVariables());
  // Same inputs, same precise outputs — construction is pure in (params).
  instrument::ApproxContext ctx_a = a->MakeContext();
  instrument::ApproxContext ctx_b = b->MakeContext();
  EXPECT_EQ(a->Run(ctx_a), b->Run(ctx_b));
  // row-col granularity on n=12: 2n+1 selection variables.
  EXPECT_EQ(a->NumVariables(), 25u);
}

TEST(KernelRegistry, ExtraParametersReachTheKernel) {
  KernelParams params;
  params.extra = {{"taps", "9"}, {"cutoff", "0.3"}};
  const auto kernel = KernelRegistry::Global().Create("fir", params);
  const auto* fir = dynamic_cast<const FirKernel*>(kernel.get());
  ASSERT_NE(fir, nullptr);
  EXPECT_EQ(fir->Taps(), 9u);
}

TEST(KernelRegistry, BadExtraValueThrows) {
  KernelParams params;
  params.extra = {{"granularity", "per-banana"}};
  EXPECT_THROW(KernelRegistry::Global().Create("matmul", params),
               std::invalid_argument);
}

TEST(KernelRegistry, NegativeCountsThrowInvalidArgumentNamingTheKey) {
  // A negative count used to wrap to a huge size_t and escape as
  // std::length_error from a vector allocation.
  const std::pair<const char*, const char*> cases[] = {
      {"fir", "taps"},         {"conv2d", "width"},   {"conv2d", "bands"},
      {"sobel3x3", "width"},   {"sobel3x3", "bands"}, {"dot", "blocks"},
      {"kmeans1d", "clusters"}, {"edge-path", "width"}, {"nn-layer", "width"},
      {"nn-layer", "channels"}};
  for (const auto& [kernel, key] : cases) {
    KernelParams params;
    params.extra = {{key, "-1"}};
    try {
      KernelRegistry::Global().Create(kernel, params);
      ADD_FAILURE() << kernel << " accepted " << key << "=-1";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << kernel << ": " << error.what();
    }
  }
  // The spec-string form reaches the same checks.
  EXPECT_THROW(KernelRegistry::Global().Create(
                   KernelSpec::Parse("fir@100{taps=-1}"), 1),
               std::invalid_argument);
  EXPECT_THROW(KernelRegistry::Global().Create(
                   KernelSpec::Parse("conv2d@16{width=-1}"), 1),
               std::invalid_argument);
  KernelParams params;
  params.extra = {{"taps", "-3"}};
  EXPECT_THROW(params.GetCount("taps", 17), std::invalid_argument);
  params.extra = {{"taps", "0"}};
  EXPECT_EQ(params.GetCount("taps", 17), 0u);
  EXPECT_EQ(params.GetCount("absent", 5), 5u);
}

TEST(KernelRegistry, CustomRegistrationAndDuplicates) {
  KernelRegistry registry;
  RegisterBuiltinKernels(registry);
  registry.Register("tiny-dot", [](const KernelParams& p) {
    return std::make_unique<DotProductKernel>(8, 2, p.seed);
  });
  EXPECT_TRUE(registry.Has("tiny-dot"));
  EXPECT_EQ(registry.Create("tiny-dot", {})->NumVariables(), 3u);
  EXPECT_THROW(registry.Register("tiny-dot", [](const KernelParams&) {
    return std::unique_ptr<Kernel>();
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("", [](const KernelParams& p) {
    return std::make_unique<DotProductKernel>(8, 2, p.seed);
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("null-factory", KernelRegistry::Factory{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace axdse::workloads
