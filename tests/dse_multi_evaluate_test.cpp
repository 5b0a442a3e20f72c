// Lane-parallel evaluation at the dse layer: Evaluator::MultiEvaluate and
// Evaluator::GroundTruthMany must be drop-in replacements for the
// sequential Evaluate()/GroundTruth() loops — byte-identical measurements,
// identical private/shared cache contents and counters, identical surrogate
// bookkeeping. Plus the typed batch-job failure contract (BatchJobError).

#include <gtest/gtest.h>

#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "axdse.hpp"
#include "common/test_support.hpp"
#include "util/rng.hpp"

namespace axdse::dse {
namespace {

using testsupport::MakeExplorerHarness;
using testsupport::QuickMatmulRequest;
using testsupport::WriteMeasurement;
using Harness = testsupport::ExplorerHarness;

std::string MeasurementBytes(const instrument::Measurement& m) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  WriteMeasurement(out, m);
  return out.str();
}

/// Deterministic random-walk stream of sibling configurations with repeat
/// visits — the revisit-heavy access pattern the RL explorer produces.
std::vector<Configuration> WalkStream(const SpaceShape& shape,
                                      std::size_t length,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Configuration> stream;
  stream.reserve(length);
  Configuration config = RandomConfiguration(shape, rng);
  for (std::size_t i = 0; i < length; ++i) {
    stream.push_back(config);
    if (rng.UniformBelow(5) == 0 && !stream.empty()) {
      // Revisit: jump back to an earlier point of the walk.
      config = stream[rng.UniformBelow(stream.size())];
    } else {
      RandomNeighborMove(config, shape, rng);
    }
  }
  return stream;
}

void ExpectSameEvaluatorCounters(const Evaluator& a, const Evaluator& b) {
  EXPECT_EQ(a.KernelRuns(), b.KernelRuns());
  EXPECT_EQ(a.CacheHits(), b.CacheHits());
  EXPECT_EQ(a.SharedHits(), b.SharedHits());
  EXPECT_EQ(a.DistinctEvaluations(), b.DistinctEvaluations());
  EXPECT_EQ(a.SurrogateHits(), b.SurrogateHits());
  EXPECT_EQ(a.KernelRunsDeferred(), b.KernelRunsDeferred());
}

TEST(MultiEvaluate, MatchesSequentialEvaluateBytesAndCounters) {
  for (const char* kernel : {"matmul", "fir", "dct"}) {
    Harness sequential = MakeExplorerHarness(kernel, 6);
    Harness batched = MakeExplorerHarness(kernel, 6);
    const std::vector<Configuration> stream =
        WalkStream(sequential.evaluator->Shape(), 120, 401);
    std::vector<instrument::Measurement> want;
    want.reserve(stream.size());
    for (const Configuration& config : stream)
      want.push_back(sequential.evaluator->Evaluate(config));
    const std::vector<instrument::Measurement> got =
        batched.evaluator->MultiEvaluate(stream);
    ASSERT_EQ(got.size(), want.size()) << kernel;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(MeasurementBytes(got[i]), MeasurementBytes(want[i]))
          << kernel << " #" << i;
    ExpectSameEvaluatorCounters(*batched.evaluator, *sequential.evaluator);
    // The private memo must end up identical too: replaying the stream is
    // all hits on both sides.
    for (const Configuration& config : stream)
      EXPECT_EQ(MeasurementBytes(batched.evaluator->Evaluate(config)),
                MeasurementBytes(sequential.evaluator->Evaluate(config)));
  }
}

TEST(MultiEvaluate, SurrogateTierFallsBackToSequentialSemantics) {
  Harness sequential = MakeExplorerHarness("matmul", 6);
  Harness batched = MakeExplorerHarness("matmul", 6);
  sequential.evaluator->EnableSurrogate(sequential.reward.acc_threshold);
  batched.evaluator->EnableSurrogate(batched.reward.acc_threshold);
  const std::vector<Configuration> stream =
      WalkStream(sequential.evaluator->Shape(), 200, 409);
  std::vector<instrument::Measurement> want;
  for (const Configuration& config : stream)
    want.push_back(sequential.evaluator->Evaluate(config));
  const std::vector<instrument::Measurement> got =
      batched.evaluator->MultiEvaluate(stream);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(MeasurementBytes(got[i]), MeasurementBytes(want[i])) << i;
  ExpectSameEvaluatorCounters(*batched.evaluator, *sequential.evaluator);
}

TEST(MultiEvaluate, SharedCacheValuesMatchPrivateEvaluation) {
  Harness reference = MakeExplorerHarness("matmul", 6);
  Harness warm = MakeExplorerHarness("matmul", 6);
  Harness cold = MakeExplorerHarness("matmul", 6);
  const auto shared =
      std::make_shared<instrument::SharedEvaluationCache>();
  Evaluator warmer(*warm.kernel, shared);
  Evaluator reader(*cold.kernel, shared);
  const std::vector<Configuration> stream =
      WalkStream(reference.evaluator->Shape(), 60, 419);
  // Warm the shared tier through the lane path, then read it back through
  // another evaluator's lane path; values must equal private evaluation.
  const std::vector<instrument::Measurement> warmed =
      warmer.MultiEvaluate(stream);
  const std::vector<instrument::Measurement> read =
      reader.MultiEvaluate(stream);
  ASSERT_EQ(warmed.size(), stream.size());
  EXPECT_GT(reader.SharedHits(), 0u);
  EXPECT_EQ(reader.DistinctEvaluations(), warmer.DistinctEvaluations());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::string want =
        MeasurementBytes(reference.evaluator->Evaluate(stream[i]));
    EXPECT_EQ(MeasurementBytes(warmed[i]), want) << i;
    EXPECT_EQ(MeasurementBytes(read[i]), want) << i;
  }
}

TEST(MultiEvaluate, RejectsMisshapenConfiguration) {
  Harness h = MakeExplorerHarness("matmul", 6);
  Configuration wrong(h.evaluator->Shape().num_variables + 1);
  EXPECT_THROW(h.evaluator->MultiEvaluate({wrong}), std::invalid_argument);
}

TEST(GroundTruthMany, MatchesSequentialGroundTruth) {
  Harness sequential = MakeExplorerHarness("matmul", 6);
  Harness batched = MakeExplorerHarness("matmul", 6);
  sequential.evaluator->EnableSurrogate(sequential.reward.acc_threshold);
  batched.evaluator->EnableSurrogate(batched.reward.acc_threshold);
  // Identical training walk on both sides -> identical surrogate state.
  const std::vector<Configuration> stream =
      WalkStream(sequential.evaluator->Shape(), 300, 421);
  for (const Configuration& config : stream) {
    sequential.evaluator->Evaluate(config);
    batched.evaluator->Evaluate(config);
  }
  ASSERT_EQ(sequential.evaluator->KernelRunsDeferred(),
            batched.evaluator->KernelRunsDeferred());
  // Ground-truth every currently predicted configuration, including one
  // duplicate, batched vs sequential.
  std::vector<Configuration> predicted;
  for (const Configuration& config : stream)
    if (sequential.evaluator->IsPredicted(config) &&
        predicted.size() < 7)
      predicted.push_back(config);
  if (predicted.empty()) GTEST_SKIP() << "surrogate never skipped";
  predicted.push_back(predicted.front());
  std::vector<instrument::Measurement> want;
  for (const Configuration& config : predicted)
    want.push_back(sequential.evaluator->GroundTruth(config));
  const std::vector<instrument::Measurement> got =
      batched.evaluator->GroundTruthMany(predicted);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(MeasurementBytes(got[i]), MeasurementBytes(want[i])) << i;
  ExpectSameEvaluatorCounters(*batched.evaluator, *sequential.evaluator);
  for (const Configuration& config : predicted) {
    EXPECT_FALSE(batched.evaluator->IsPredicted(config));
    EXPECT_FALSE(sequential.evaluator->IsPredicted(config));
  }
}

// ---------------------------------------------------------------------------
// Typed batch-job failures
// ---------------------------------------------------------------------------

/// Kernel whose precise run explodes — the engine worker must wrap the
/// error with the job identity instead of swallowing or bare-rethrowing it.
class ExplodingKernel final : public workloads::Kernel {
 public:
  ExplodingKernel()
      : name_("exploding"),
        variables_({{"x"}}),
        operators_(axc::EvoApproxCatalog::Instance().FirSet()) {}
  const std::string& Name() const noexcept override { return name_; }
  const axc::OperatorSet& Operators() const noexcept override {
    return operators_;
  }
  const std::vector<workloads::VariableInfo>& Variables()
      const noexcept override {
    return variables_;
  }
  std::vector<double> Run(instrument::ApproxContext&) const override {
    throw std::runtime_error("kernel exploded");
  }

 private:
  std::string name_;
  std::vector<workloads::VariableInfo> variables_;
  axc::OperatorSet operators_;
};

TEST(BatchJobErrors, WrapsJobIdentityAndNestsRootCause) {
  ExplorationRequest request = QuickMatmulRequest(50, 1, 31);
  request.kernel_override = std::make_shared<const ExplodingKernel>();
  try {
    Engine(EngineOptions{2}).Run({QuickMatmulRequest(50), request});
    FAIL() << "expected BatchJobError";
  } catch (const BatchJobError& error) {
    EXPECT_EQ(error.RequestIndex(), 1u);
    EXPECT_EQ(error.Seed(), 31u);
    EXPECT_EQ(error.Kernel(), "<override>");
    EXPECT_NE(std::string(error.what()).find("kernel exploded"),
              std::string::npos);
    // The root cause rides along nested.
    try {
      std::rethrow_if_nested(error);
      FAIL() << "expected a nested exception";
    } catch (const std::runtime_error& nested) {
      EXPECT_STREQ(nested.what(), "kernel exploded");
    }
  }
}

}  // namespace
}  // namespace axdse::dse
