// Tests for workloads/pipeline_kernel: the multi-stage kernels behind the
// registry's "jpeg-path", "edge-path", and "nn-layer" entries. The core
// contracts: stage-scoped variables partition one selection across stages;
// per-stage op counts sum exactly to the whole-kernel totals; RunLanes is
// per-lane bit-identical to Run; the end-to-end quality metrics behave like
// metrics; and the exploration stack (Explorer, checkpoint suspend/resume,
// Engine) treats pipelines like any other kernel while surfacing the
// per-stage attribution in ExplorationResult::stage_counts.

#include "workloads/pipeline_kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "dse/explorer.hpp"
#include "instrument/approx_context.hpp"
#include "instrument/multi_approx_context.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace axdse::workloads {
namespace {

using instrument::ApproxContext;
using instrument::ApproxSelection;
using instrument::MultiApproxContext;

/// The three built-in pipelines at fast test sizes, via the same registry
/// path requests and campaigns use.
struct PipelineCase {
  const char* spec;  ///< KernelSpec text fed to the registry
  std::vector<std::string> stages;
};

std::vector<PipelineCase> BuiltinCases() {
  return {
      {"jpeg-path@1", {"dct", "quantize", "idct"}},
      {"edge-path@8{width=9}", {"sobel", "threshold"}},
      {"nn-layer@7{width=8,channels=2}", {"conv", "bias", "relu"}},
  };
}

std::unique_ptr<Kernel> Make(const PipelineCase& c) {
  return KernelRegistry::Global().Create(KernelSpec::Parse(c.spec), 2023);
}

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

std::uint64_t TotalOps(const energy::OpCounts& counts) {
  return counts.precise_adds + counts.approx_adds + counts.precise_muls +
         counts.approx_muls;
}

// ---------------------------------------------------------------------------
// Structure: stage-scoped variables, registry identity.
// ---------------------------------------------------------------------------

TEST(PipelineKernel, VariablesAreStageScopedAndOrdered) {
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> kernel = Make(c);
    const auto* pipeline = dynamic_cast<const PipelineKernel*>(kernel.get());
    ASSERT_NE(pipeline, nullptr) << c.spec;
    ASSERT_EQ(pipeline->NumStages(), c.stages.size()) << c.spec;

    // Every variable is "<stage>.<local>"; stage prefixes appear in stage
    // order as contiguous runs starting at StageVariableBase().
    std::size_t var = 0;
    for (std::size_t s = 0; s < pipeline->NumStages(); ++s) {
      EXPECT_EQ(pipeline->StageAt(s).StageName(), c.stages[s]) << c.spec;
      EXPECT_EQ(pipeline->StageVariableBase(s), var) << c.spec;
      const std::string prefix = c.stages[s] + ".";
      for (const std::string& local :
           pipeline->StageAt(s).LocalVariables()) {
        ASSERT_LT(var, kernel->NumVariables()) << c.spec;
        EXPECT_EQ(kernel->Variables()[var].name, prefix + local) << c.spec;
        ++var;
      }
    }
    EXPECT_EQ(var, kernel->NumVariables()) << c.spec;
  }
}

TEST(PipelineKernel, RegistryConstructionIsDeterministic) {
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> a = Make(c);
    const std::unique_ptr<Kernel> b = Make(c);
    EXPECT_EQ(a->Name(), b->Name()) << c.spec;
    EXPECT_EQ(a->NumVariables(), b->NumVariables()) << c.spec;
    ApproxContext ctx_a = a->MakeContext();
    ApproxContext ctx_b = b->MakeContext();
    EXPECT_EQ(a->Run(ctx_a), b->Run(ctx_b)) << c.spec;
  }
}

// ---------------------------------------------------------------------------
// Stage attribution: per-stage counts sum to the whole-kernel totals.
// ---------------------------------------------------------------------------

TEST(PipelineKernel, StageCountsSumToWholeKernelCounts) {
  util::Rng rng(271828);
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> kernel = Make(c);
    for (int trial = 0; trial < 12; ++trial) {
      const ApproxSelection sel =
          RandomSelection(kernel->Operators(), kernel->NumVariables(), rng);
      ApproxContext ctx = kernel->MakeContext();
      ctx.Configure(sel);
      (void)kernel->Run(ctx);
      const energy::OpCounts& total = ctx.Counts();

      const std::vector<StageOpCounts> stages = kernel->StageCounts(sel);
      ASSERT_EQ(stages.size(), c.stages.size()) << c.spec;
      energy::OpCounts sum;
      for (std::size_t s = 0; s < stages.size(); ++s) {
        EXPECT_EQ(stages[s].stage, c.stages[s]) << c.spec;
        // Every stage does SOME counted arithmetic.
        EXPECT_GT(TotalOps(stages[s].counts), 0u)
            << c.spec << " stage " << stages[s].stage;
        sum.precise_adds += stages[s].counts.precise_adds;
        sum.approx_adds += stages[s].counts.approx_adds;
        sum.precise_muls += stages[s].counts.precise_muls;
        sum.approx_muls += stages[s].counts.approx_muls;
      }
      EXPECT_EQ(sum.precise_adds, total.precise_adds)
          << c.spec << " " << sel.ToString();
      EXPECT_EQ(sum.approx_adds, total.approx_adds)
          << c.spec << " " << sel.ToString();
      EXPECT_EQ(sum.precise_muls, total.precise_muls)
          << c.spec << " " << sel.ToString();
      EXPECT_EQ(sum.approx_muls, total.approx_muls)
          << c.spec << " " << sel.ToString();
    }
  }
}

TEST(PipelineKernel, StageScopedSelectionApproximatesOnlyThatStage) {
  // Turning on exactly one stage's variables leaves every OTHER stage's
  // approximate counts at zero: the scoping is real, not cosmetic.
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> kernel = Make(c);
    const auto* pipeline = dynamic_cast<const PipelineKernel*>(kernel.get());
    ASSERT_NE(pipeline, nullptr);
    for (std::size_t target = 0; target < pipeline->NumStages(); ++target) {
      ApproxSelection sel(kernel->NumVariables());
      sel.SetAdderIndex(1);  // an approximate operator pair
      sel.SetMultiplierIndex(1);
      const std::size_t base = pipeline->StageVariableBase(target);
      const std::size_t count =
          pipeline->StageAt(target).LocalVariables().size();
      for (std::size_t v = base; v < base + count; ++v)
        sel.SetVariable(v, true);

      const std::vector<StageOpCounts> stages = kernel->StageCounts(sel);
      ASSERT_EQ(stages.size(), pipeline->NumStages());
      for (std::size_t s = 0; s < stages.size(); ++s) {
        const std::uint64_t approx =
            stages[s].counts.approx_adds + stages[s].counts.approx_muls;
        if (s == target)
          EXPECT_GT(approx, 0u)
              << c.spec << " target stage " << stages[s].stage;
        else
          EXPECT_EQ(approx, 0u)
              << c.spec << " bystander stage " << stages[s].stage
              << " while approximating " << stages[target].stage;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lane equivalence: RunLanes per-lane bit-identical to Run.
// ---------------------------------------------------------------------------

TEST(PipelineKernel, RunLanesMatchesScalarRunPerLane) {
  util::Rng rng(314159);
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> kernel = Make(c);
    ASSERT_TRUE(kernel->SupportsLanes()) << c.spec;
    MultiApproxContext multi(kernel->Operators(), kernel->NumVariables());
    ApproxContext scalar = kernel->MakeContext();
    for (int trial = 0; trial < 6; ++trial) {
      for (const std::size_t lanes :
           {std::size_t{1}, std::size_t{3}, MultiApproxContext::kMaxLanes}) {
        std::vector<ApproxSelection> selections;
        for (std::size_t l = 0; l < lanes; ++l)
          selections.push_back(RandomSelection(
              kernel->Operators(), kernel->NumVariables(), rng));
        multi.Configure(selections);
        const std::vector<double> got = kernel->RunLanes(multi);
        ASSERT_EQ(got.size() % lanes, 0u) << c.spec;
        const std::size_t out_size = got.size() / lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
          scalar.Configure(selections[l]);
          const std::vector<double> want = kernel->Run(scalar);
          ASSERT_EQ(want.size(), out_size) << c.spec;
          for (std::size_t i = 0; i < out_size; ++i)
            ASSERT_EQ(got[l * out_size + i], want[i])
                << c.spec << " lane=" << l << "/" << lanes << " out=" << i
                << " " << selections[l].ToString();
          const energy::OpCounts& lane_counts = multi.Counts(l);
          const energy::OpCounts& scalar_counts = scalar.Counts();
          EXPECT_EQ(lane_counts.precise_adds, scalar_counts.precise_adds);
          EXPECT_EQ(lane_counts.approx_adds, scalar_counts.approx_adds);
          EXPECT_EQ(lane_counts.precise_muls, scalar_counts.precise_muls);
          EXPECT_EQ(lane_counts.approx_muls, scalar_counts.approx_muls);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end quality metrics.
// ---------------------------------------------------------------------------

TEST(PipelineKernel, AccuracyErrorIsZeroOnIdenticalOutputs) {
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> kernel = Make(c);
    ApproxContext ctx = kernel->MakeContext();
    const std::vector<double> precise = kernel->Run(ctx);
    EXPECT_EQ(kernel->AccuracyError(precise, precise), 0.0) << c.spec;
  }
}

TEST(PipelineKernel, MagnitudeMetricsGrowWithNoise) {
  // The PSNR-gap (jpeg-path) and MAE (edge-path) metrics respond to output
  // noise, monotonically in its amplitude.
  for (const char* spec : {"jpeg-path@1", "edge-path@8{width=9}"}) {
    const std::unique_ptr<Kernel> kernel =
        KernelRegistry::Global().Create(KernelSpec::Parse(spec), 2023);
    ApproxContext ctx = kernel->MakeContext();
    const std::vector<double> precise = kernel->Run(ctx);
    std::vector<double> mild = precise;
    std::vector<double> severe = precise;
    for (std::size_t i = 0; i < precise.size(); ++i) {
      mild[i] += 8.0;
      severe[i] += 800.0;
    }
    const double mild_error = kernel->AccuracyError(precise, mild);
    EXPECT_GT(mild_error, 0.0) << spec;
    EXPECT_LT(mild_error, kernel->AccuracyError(precise, severe)) << spec;
  }
}

TEST(PipelineKernel, TopErrorMetricCountsFlippedWinners) {
  // nn-layer's metric is classification-style: only positions whose winning
  // channel changed count, so uniform shifts score 0 and swapping the two
  // channel planes at a position flips its winner (wherever they differ).
  const std::unique_ptr<Kernel> kernel = KernelRegistry::Global().Create(
      KernelSpec::Parse("nn-layer@7{width=8,channels=2}"), 2023);
  ApproxContext ctx = kernel->MakeContext();
  const std::vector<double> precise = kernel->Run(ctx);
  ASSERT_EQ(precise.size() % 2, 0u);
  const std::size_t spatial = precise.size() / 2;

  std::vector<double> shifted = precise;
  for (double& v : shifted) v += 40.0;
  EXPECT_EQ(kernel->AccuracyError(precise, shifted), 0.0)
      << "uniform shifts keep every argmax";

  std::vector<double> half = precise;
  std::vector<double> full = precise;
  for (std::size_t s = 0; s < spatial; ++s) {
    if (s < spatial / 2) std::swap(half[s], half[spatial + s]);
    std::swap(full[s], full[spatial + s]);
  }
  const double half_error = kernel->AccuracyError(precise, half);
  const double full_error = kernel->AccuracyError(precise, full);
  EXPECT_GT(half_error, 0.0);
  EXPECT_LT(half_error, full_error);
  EXPECT_LE(full_error, 1.0);
}

// ---------------------------------------------------------------------------
// Exploration stack: Explorer, suspend/resume, Engine stage_counts.
// ---------------------------------------------------------------------------

dse::ExplorerConfig FastConfig(std::uint64_t seed) {
  dse::ExplorerConfig config;
  config.max_steps = 40;
  config.seed = seed;
  return config;
}

TEST(PipelineExploration, SuspendResumeMatchesUninterruptedRun) {
  for (const PipelineCase& c : BuiltinCases()) {
    const std::unique_ptr<Kernel> kernel = Make(c);

    dse::Evaluator straight_eval(*kernel);
    const dse::RewardConfig reward = dse::MakePaperRewardConfig(straight_eval);
    dse::Explorer straight(straight_eval, reward, FastConfig(11));
    const dse::ExplorationResult uninterrupted = straight.Explore();

    dse::Evaluator first_eval(*kernel);
    dse::Explorer first(first_eval, reward, FastConfig(11));
    first.RunSteps(13);
    const dse::Checkpoint checkpoint = first.Suspend();

    dse::Evaluator second_eval(*kernel);
    dse::Explorer second(second_eval, reward, FastConfig(11));
    second.ResumeFrom(checkpoint);
    const dse::ExplorationResult resumed = second.Explore();

    EXPECT_EQ(resumed.steps, uninterrupted.steps) << c.spec;
    EXPECT_EQ(resumed.cumulative_reward, uninterrupted.cumulative_reward)
        << c.spec;
    EXPECT_EQ(resumed.solution, uninterrupted.solution) << c.spec;
    ASSERT_EQ(resumed.stage_counts.size(), c.stages.size()) << c.spec;
  }
}

TEST(PipelineExploration, EngineSurfacesPerStageCounts) {
  for (const PipelineCase& c : BuiltinCases()) {
    // The parsed spec keeps the extras (width, channels, ...).
    const dse::ExplorationRequest request{.kernel = KernelSpec::Parse(c.spec),
                                          .kernel_seed = 2023,
                                          .max_steps = 40,
                                          .max_cumulative_reward = 1e18,
                                          .seed = 1};
    const dse::RequestResult result =
        dse::Engine(dse::EngineOptions{1}).Run({request}).results.front();
    ASSERT_EQ(result.runs.size(), 1u) << c.spec;
    const dse::ExplorationResult& run = result.runs.front();
    ASSERT_EQ(run.stage_counts.size(), c.stages.size()) << c.spec;

    // The engine's attribution is exactly the kernel's for that solution.
    const std::unique_ptr<Kernel> kernel = Make(c);
    const std::vector<StageOpCounts> expected =
        kernel->StageCounts(run.solution);
    for (std::size_t s = 0; s < expected.size(); ++s) {
      EXPECT_EQ(run.stage_counts[s].stage, expected[s].stage) << c.spec;
      EXPECT_EQ(run.stage_counts[s].counts.precise_adds,
                expected[s].counts.precise_adds)
          << c.spec;
      EXPECT_EQ(run.stage_counts[s].counts.approx_adds,
                expected[s].counts.approx_adds)
          << c.spec;
      EXPECT_EQ(run.stage_counts[s].counts.precise_muls,
                expected[s].counts.precise_muls)
          << c.spec;
      EXPECT_EQ(run.stage_counts[s].counts.approx_muls,
                expected[s].counts.approx_muls)
          << c.spec;
    }
  }
}

TEST(PipelineExploration, SingleStageKernelsReportNoStages) {
  const dse::ExplorationRequest request{.kernel = KernelSpec("matmul", 5),
                                        .kernel_seed = 2023,
                                        .max_steps = 30,
                                        .max_cumulative_reward = 1e18,
                                        .seed = 1};
  const dse::RequestResult result =
      dse::Engine(dse::EngineOptions{1}).Run({request}).results.front();
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_TRUE(result.runs.front().stage_counts.empty());
}

}  // namespace
}  // namespace axdse::workloads
