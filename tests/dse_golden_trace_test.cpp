// Golden-trace regression tests: the first 25 StepRecords of fixed, seeded
// explorations are pinned to checked-in fixtures — matmul and FIR (the
// paper's benchmarks, FIR at both granularities), the campaign workloads
// sobel3x3 and kmeans1d, and the three multi-stage pipelines (jpeg-path,
// edge-path, nn-layer). Evaluator / cache / engine refactors are free to
// change HOW configurations are measured, but any change to WHAT the paper
// pipeline observes (actions taken, rewards granted, measurements returned)
// must show up here as an explicit fixture update, never as a silent drift
// of the reproduced results.
//
// To regenerate after an intentional behavior change:
//   AXDSE_UPDATE_GOLDEN=1 ./build/tests/dse_golden_trace_test
// then review the fixture diffs like any other code change.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "dse/engine.hpp"
#include "util/number_format.hpp"

namespace axdse::dse {
namespace {

constexpr std::size_t kPinnedSteps = 25;

/// One pinned exploration: everything about the request is fixed; any field
/// change invalidates the fixture.
struct PinnedCase {
  const char* fixture;  ///< file under tests/golden/
  const char* kernel;
  std::size_t size;
  const char* granularity = nullptr;  ///< kernel param; null = default
};

std::string FixturePath(const PinnedCase& pinned) {
  return std::string(AXDSE_SOURCE_DIR "/tests/golden/") + pinned.fixture;
}

ExplorationRequest PinnedRequest(const PinnedCase& pinned, CacheMode mode) {
  ExplorationRequest request{
      .kernel = workloads::KernelSpec(pinned.kernel, pinned.size),
      .kernel_seed = 2023,
      .max_steps = 60,
      .max_cumulative_reward = 1e18,
      .seed = 1,
      .record_trace = true,
      .cache_mode = mode,
      .alpha = 0.15,
      .gamma = 0.95,
      .epsilon_start = 1.0,
      .epsilon_end = 0.05,
      .epsilon_decay_steps = 45};
  if (pinned.granularity != nullptr)
    request.kernel.extra["granularity"] = pinned.granularity;
  request.Validate();
  return request;
}

std::string RenderTrace(const PinnedCase& pinned,
                        const ExplorationResult& run) {
  std::ostringstream out;
  out << "# first " << kPinnedSteps << " steps of: " << pinned.kernel
      << " size=" << pinned.size;
  if (pinned.granularity != nullptr)
    out << " granularity=" << pinned.granularity;
  out << " kernel-seed=2023 steps=60 alpha=0.15 "
      << "gamma=0.95 eps=1..0.05/45 seed=1\n";
  out << "# step action reward cumulative config delta_acc delta_power_mw "
      << "delta_time_ns\n";
  const std::size_t steps =
      run.trace.size() < kPinnedSteps ? run.trace.size() : kPinnedSteps;
  for (std::size_t i = 0; i < steps; ++i) {
    const StepRecord& record = run.trace[i];
    out << record.step << " " << record.action << " "
        << util::ShortestDouble(record.reward) << " "
        << util::ShortestDouble(record.cumulative_reward) << " "
        << record.config.ToString() << " "
        << util::ShortestDouble(record.measurement.delta_acc) << " "
        << util::ShortestDouble(record.measurement.delta_power_mw) << " "
        << util::ShortestDouble(record.measurement.delta_time_ns) << "\n";
  }
  return out.str();
}

std::string RunPinnedExploration(const PinnedCase& pinned, CacheMode mode) {
  const RequestResult result = Engine(EngineOptions{1})
                                   .Run({PinnedRequest(pinned, mode)})
                                   .results.front();
  const ExplorationResult& run = result.runs.front();
  EXPECT_GE(run.trace.size(), kPinnedSteps);
  return RenderTrace(pinned, run);
}

void CheckPinnedCase(const PinnedCase& pinned) {
  const std::string actual = RunPinnedExploration(pinned, CacheMode::kPrivate);
  const std::string path = FixturePath(pinned);

  if (std::getenv("AXDSE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with AXDSE_UPDATE_GOLDEN=1 "
                         << std::flush;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "paper trace drifted; if intentional, regenerate the fixture with "
         "AXDSE_UPDATE_GOLDEN=1 and review the diff";
}

constexpr PinnedCase kMatmul{"matmul_trace_seed1.txt", "matmul", 5};
constexpr PinnedCase kSobel{"sobel3x3_trace_seed1.txt", "sobel3x3", 8};
constexpr PinnedCase kKMeans{"kmeans1d_trace_seed1.txt", "kmeans1d", 48};
// The multi-stage pipelines: their stage-scoped variable spaces and
// end-to-end quality metrics (PSNR gap, top-error) feed the same RL loop.
constexpr PinnedCase kJpegPath{"jpeg_path_trace_seed1.txt", "jpeg-path", 1};
constexpr PinnedCase kEdgePath{"edge_path_trace_seed1.txt", "edge-path", 8};
constexpr PinnedCase kNnLayer{"nn_layer_trace_seed1.txt", "nn-layer", 7};
// The paper's FIR benchmark at both variable granularities: per-tap (the
// default, taps+2 variables) and per-array (x, h, acc).
constexpr PinnedCase kFir{"fir_trace_seed1.txt", "fir", 100};
constexpr PinnedCase kFirPerArray{"fir_per_array_trace_seed1.txt", "fir", 100,
                                  "per-array"};

TEST(GoldenTrace, First25MatmulStepsMatchCheckedInFixture) {
  CheckPinnedCase(kMatmul);
}

TEST(GoldenTrace, First25SobelStepsMatchCheckedInFixture) {
  CheckPinnedCase(kSobel);
}

TEST(GoldenTrace, First25KMeansStepsMatchCheckedInFixture) {
  CheckPinnedCase(kKMeans);
}

TEST(GoldenTrace, First25JpegPathStepsMatchCheckedInFixture) {
  CheckPinnedCase(kJpegPath);
}

TEST(GoldenTrace, First25EdgePathStepsMatchCheckedInFixture) {
  CheckPinnedCase(kEdgePath);
}

TEST(GoldenTrace, First25NnLayerStepsMatchCheckedInFixture) {
  CheckPinnedCase(kNnLayer);
}

TEST(GoldenTrace, First25FirStepsMatchCheckedInFixture) {
  CheckPinnedCase(kFir);
}

TEST(GoldenTrace, First25FirPerArrayStepsMatchCheckedInFixture) {
  CheckPinnedCase(kFirPerArray);
}

TEST(GoldenTrace, SharedCacheReproducesTheGoldenTracesExactly) {
  // The cache-mode contract applied to the pinned fixtures themselves.
  for (const PinnedCase& pinned : {kMatmul, kSobel, kKMeans, kJpegPath,
                                   kEdgePath, kNnLayer, kFir, kFirPerArray})
    EXPECT_EQ(RunPinnedExploration(pinned, CacheMode::kShared),
              RunPinnedExploration(pinned, CacheMode::kPrivate));
}

}  // namespace
}  // namespace axdse::dse
