#include "common/test_support.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "util/number_format.hpp"
#include "workloads/registry.hpp"

namespace axdse::testsupport {

namespace fs = std::filesystem;

std::string FreshTempPath(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("axdse-" + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

ScopedTempDir::ScopedTempDir(const std::string& tag)
    : path_(FreshTempPath(tag)) {}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

ExplorerHarness MakeExplorerHarness(
    const std::string& name, std::size_t size,
    const std::map<std::string, std::string>& extra,
    std::uint64_t kernel_seed) {
  ExplorerHarness h;
  workloads::KernelParams params;
  params.size = size;
  params.seed = kernel_seed;
  params.extra = extra;
  h.kernel = workloads::KernelRegistry::Global().Create(name, params);
  h.evaluator = std::make_unique<dse::Evaluator>(*h.kernel);
  h.reward = dse::MakePaperRewardConfig(*h.evaluator);
  return h;
}

dse::ExplorerConfig SmallExplorerConfig(dse::AgentKind kind,
                                        std::uint64_t seed,
                                        std::size_t max_steps,
                                        std::size_t episodes) {
  dse::ExplorerConfig config;
  config.max_steps = max_steps;
  config.max_cumulative_reward = 1e18;
  config.episodes = episodes;
  config.agent_kind = kind;
  config.agent.alpha = 0.2;
  config.agent.gamma = 0.9;
  config.agent.epsilon = rl::EpsilonSchedule::Linear(1.0, 0.05, 40);
  config.seed = seed;
  config.record_trace = true;
  return config;
}

void WriteMeasurement(std::ostream& out, const instrument::Measurement& m) {
  using util::ShortestDouble;
  out << ShortestDouble(m.delta_acc) << "," << ShortestDouble(m.delta_power_mw)
      << "," << ShortestDouble(m.delta_time_ns) << ","
      << ShortestDouble(m.approx_power_mw) << ","
      << ShortestDouble(m.approx_time_ns) << "," << m.counts.precise_adds
      << "," << m.counts.approx_adds << "," << m.counts.precise_muls << ","
      << m.counts.approx_muls;
}

dse::ExplorationRequest QuickMatmulRequest(std::size_t steps,
                                           std::size_t seeds,
                                           std::uint64_t seed) {
  dse::ExplorationRequest request{.kernel = workloads::KernelSpec("matmul", 5),
                                  .max_steps = steps,
                                  .num_seeds = seeds,
                                  .seed = seed};
  request.Validate();
  return request;
}

std::string PayloadField(const std::string& payload, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = payload.find(" " + needle);
  if (pos == std::string::npos) return {};
  pos += 1 + needle.size();
  const std::size_t end = payload.find(' ', pos);
  return payload.substr(pos, end == std::string::npos ? std::string::npos
                                                      : end - pos);
}

void ExpectMatchesGolden(const std::string& path, const std::string& actual) {
  if (std::getenv("AXDSE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "fixture regenerated at " << path;
  }
  EXPECT_EQ(actual, ReadGolden(path))
      << "on-disk format drifted from " << path
      << "; if intentional, bump the format version or regenerate with "
         "AXDSE_UPDATE_GOLDEN=1 and review the diff";
}

std::string ReadGolden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " — regenerate with AXDSE_UPDATE_GOLDEN=1";
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

}  // namespace axdse::testsupport
