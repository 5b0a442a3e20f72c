#pragma once
// tests/common — shared test-support library, linked into every test
// binary (see the axdse_test_support target in CMakeLists.txt). Hosts the
// fixtures several suites had grown independently:
//
//   * temp-dir plumbing: FreshTempPath + the ScopedTempDir RAII wrapper
//   * the Explorer harness (kernel + evaluator + paper reward) and the
//     small deterministic ExplorerConfig the resume tests are built on
//   * canonical Measurement serialization for byte-identity payloads
//   * quick request helpers for daemon/engine jobs
//   * "key=value" field extraction for serve protocol payloads
//
// Everything here is test-only: the library links gtest and must never be
// referenced from src/.

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "dse/request.hpp"
#include "dse/reward.hpp"
#include "instrument/measurement.hpp"
#include "workloads/kernel.hpp"

namespace axdse::testsupport {

/// Fresh scratch path under the system temp directory ("<temp>/axdse-<tag>"),
/// wiped of any leftovers from a crashed earlier run but NOT created — the
/// code under test owns directory creation. The caller owns cleanup; prefer
/// ScopedTempDir unless the path must outlive the current scope.
std::string FreshTempPath(const std::string& tag);

/// RAII scratch directory: a FreshTempPath that removes itself (and
/// everything beneath it) on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag);
  ~ScopedTempDir();
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& Str() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Kernel + evaluator + paper reward bundle for explorer-level tests.
struct ExplorerHarness {
  std::unique_ptr<workloads::Kernel> kernel;
  std::unique_ptr<dse::Evaluator> evaluator;
  dse::RewardConfig reward;
};

/// Builds the harness for a registry kernel. `kernel_seed` defaults to the
/// historical fixture seed so payload goldens stay stable.
ExplorerHarness MakeExplorerHarness(
    const std::string& name, std::size_t size,
    const std::map<std::string, std::string>& extra = {},
    std::uint64_t kernel_seed = 7);

/// Small deterministic exploration config (50 steps, linear epsilon decay)
/// used by the checkpoint/resume byte-identity suites.
dse::ExplorerConfig SmallExplorerConfig(dse::AgentKind kind,
                                        std::uint64_t seed,
                                        std::size_t max_steps = 50,
                                        std::size_t episodes = 1);

/// Canonical comma-separated serialization of one Measurement (deltas,
/// approx costs, operation counts) for byte-identity payload strings.
void WriteMeasurement(std::ostream& out, const instrument::Measurement& m);

/// Small matmul exploration request for daemon/engine smoke jobs: finishes
/// in milliseconds, deterministic across worker counts.
dse::ExplorationRequest QuickMatmulRequest(std::size_t steps = 200,
                                           std::size_t seeds = 1,
                                           std::uint64_t seed = 7);

/// The "key=value" field of a STATUS/STATS-style payload, or "" when absent.
std::string PayloadField(const std::string& payload, const std::string& key);

/// Byte-compares `actual` with the checked-in fixture at `path`. With
/// AXDSE_UPDATE_GOLDEN=1 in the environment it rewrites the fixture instead
/// and marks the test skipped; review the diff before committing it.
void ExpectMatchesGolden(const std::string& path, const std::string& actual);

/// Whole content of a checked-in fixture; fails the test when it is missing.
std::string ReadGolden(const std::string& path);

}  // namespace axdse::testsupport
