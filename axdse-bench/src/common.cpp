// Statistics, the metric report, and the workload definitions.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <regex>
#include <stdexcept>

#include "bench.hpp"

namespace axbench {

namespace fs = std::filesystem;
using namespace axdse;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Quartiles(std::vector<double> values, double* q1, double* q3) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  const long n = 4;
  double out[2] = {0.0, 0.0};
  for (long i = 1, slot = 0; i < n; i += 2, ++slot) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[slot] = (values[j - 1] * static_cast<double>(n - delta) +
                 values[j] * static_cast<double>(delta)) /
                static_cast<double>(n);
  }
  *q1 = out[0];
  *q3 = out[1];
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double TailPercentile(const std::vector<double>& values, double* chosen) {
  const double n = static_cast<double>(values.size());
  for (double p : {95.0, 90.0, 75.0}) {
    if (n - std::ceil(p / 100.0 * n) >= 10.0) {
      *chosen = p;
      return Percentile(values, p);
    }
  }
  *chosen = 50.0;
  return Percentile(values, 50.0);
}

// --- Report -------------------------------------------------------------------

void Report::AddSamples(const std::string& name, const std::string& unit,
                        std::vector<double> samples) {
  Metric metric{name, unit, std::move(samples), 0.0, 0};
  metric.value = Median(metric.samples);
  metric.n = metric.samples.size();
  metrics_.push_back(std::move(metric));
}

void Report::AddValue(const std::string& name, const std::string& unit,
                      double value, std::size_t n) {
  metrics_.push_back(Metric{name, unit, {}, value, n});
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (!what.empty() && failures_.size() < 32) failures_.push_back(what);
}

// --- workloads -----------------------------------------------------------------

namespace {

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<workloads::KernelSpec> Specs(
    std::initializer_list<const char*> texts) {
  std::vector<workloads::KernelSpec> specs;
  for (const char* text : texts)
    specs.push_back(workloads::KernelSpec::Parse(text));
  return specs;
}

const std::vector<dse::AgentKind> kAllAgents = {
    dse::AgentKind::kQLearning, dse::AgentKind::kSarsa,
    dse::AgentKind::kExpectedSarsa, dse::AgentKind::kDoubleQ,
    dse::AgentKind::kQLambda};

dse::ExplorationRequest BaseRequest(const Mix& mix, std::size_t steps) {
  dse::ExplorationRequest request;
  request.kernel_seed = mix.kernel_seed;
  request.max_steps = steps;
  request.max_cumulative_reward = mix.reward_cap;
  request.num_seeds = mix.seeds;
  request.seed = mix.agent_seed;
  request.cache_mode = mix.cache;
  return request;
}

}  // namespace

Mix MakeMix(const std::string& name, std::uint64_t seed, bool smoke) {
  Mix mix;
  mix.name = name;
  mix.kernel_seed = 1 + SplitMix(seed * 3 + 1) % 100000;
  mix.agent_seed = 1 + SplitMix(seed * 3 + 2) % 100000;
  mix.stream_seed = SplitMix(seed * 3 + 3);
  if (name == "explore-kernel-bound") {
    // Table-3 identities whose steps are almost all fresh kernel runs.
    mix.kernels = Specs({"matmul@10{granularity=row-col}", "fir@100"});
    mix.agents = {dse::AgentKind::kQLearning};
    mix.steps = 10000;
    mix.seeds = 2;
    mix.search_budget = 3000;
    mix.chunk_cells = 2;
    mix.serve_steps = 600;
  } else if (name == "explore-cache-bound") {
    // Small spaces revisited over and over: private-cache hits dominate.
    mix.kernels = Specs({"matmul@10{granularity=per-matrix}", "iir@128",
                         "conv2d@16", "dot@64", "kmeans1d@96"});
    mix.agents = kAllAgents;
    mix.steps = 20000;
    mix.reward_cap = 1e12;  // out of reach: runs end on the step limit
    mix.seeds = 1;
    mix.search_budget = 10000;
    // One chunk: the grid computes fast, so a few fsync'd lease and result
    // writes per chunk would make the shard path's time follow the disk.
    mix.chunk_cells = 25;
    mix.serve_steps = 3000;
  } else if (name == "campaign-grid") {
    // The Table-3 campaign with one shared cache per kernel identity.
    mix.kernels = Specs({"matmul@10", "fir@100", "iir@128", "conv2d@16",
                         "dct@4", "dot@64", "sobel3x3@12", "kmeans1d@96"});
    mix.agents = kAllAgents;
    // One seed of 6000 steps per cell rather than two of 3000 (half the
    // jobs), and chunks of 10 cells rather than 5 (half the fsync'd lease
    // and result writes): the same compute with less of the shard path's
    // I/O, whose cost follows the disk's contention from other tenants.
    mix.steps = 6000;
    mix.seeds = 1;
    mix.cache = dse::CacheMode::kShared;
    mix.search_budget = 2000;
    mix.chunk_cells = 10;
    mix.serve_steps = 300;
  } else if (name == "serve-tenants") {
    // Small kernel-bound and cache-bound requests plus a small campaign.
    mix.kernels = Specs({"matmul@6{granularity=row-col}", "fir@32",
                         "matmul@8{granularity=per-matrix}", "dot@32"});
    mix.agents = {dse::AgentKind::kQLearning, dse::AgentKind::kSarsa};
    mix.steps = 3000;
    mix.seeds = 2;
    mix.search_budget = 5000;
    mix.chunk_cells = 8;  // one chunk, as on explore-cache-bound
    mix.serve_steps = 800;
    mix.serve_campaign_every = 8;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    mix.steps = std::max<std::size_t>(100, mix.steps / 20);
    mix.search_budget = std::max<std::size_t>(50, mix.search_budget / 20);
    mix.serve_steps = std::max<std::size_t>(50, mix.serve_steps / 10);
  }
  return mix;
}

Mix ForRound(const Mix& mix, std::size_t round) {
  Mix out = mix;
  const std::uint64_t base = mix.stream_seed + 0x100000 * (round + 1);
  out.kernel_seed = 1 + SplitMix(base + 1) % 100000;
  out.agent_seed = 1 + SplitMix(base + 2) % 100000;
  out.stream_seed = SplitMix(base + 3);
  return out;
}

std::vector<dse::ExplorationRequest> ExploreRequests(
    const Mix& mix,
    const std::vector<std::shared_ptr<const workloads::Kernel>>& kernels) {
  std::vector<dse::ExplorationRequest> requests;
  for (std::size_t k = 0; k < mix.kernels.size(); ++k) {
    for (dse::AgentKind agent : mix.agents) {
      dse::ExplorationRequest request = BaseRequest(mix, mix.steps);
      request.kernel = mix.kernels[k];
      if (!kernels.empty()) request.kernel_override = kernels.at(k);
      request.agent_kind = agent;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

dse::CampaignSpec CampaignGrid(const Mix& mix) {
  dse::CampaignSpec spec;
  spec.kernels = mix.kernels;
  spec.agents = mix.agents;
  spec.base = BaseRequest(mix, mix.steps);
  return spec;
}

std::vector<dse::ExplorationRequest> ServeRequests(const Mix& mix) {
  std::vector<dse::ExplorationRequest> requests;
  for (const workloads::KernelSpec& kernel : mix.kernels) {
    for (dse::AgentKind agent : mix.agents) {
      dse::ExplorationRequest request = BaseRequest(mix, mix.serve_steps);
      request.kernel = kernel;
      request.agent_kind = agent;
      request.num_seeds = 1;
      request.cache_mode = dse::CacheMode::kPrivate;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

dse::CampaignSpec ServeCampaign(const Mix& mix) {
  dse::CampaignSpec spec;
  spec.kernels = {mix.kernels.front(), mix.kernels.back()};
  spec.agents = mix.agents;
  spec.base = BaseRequest(mix, std::max<std::size_t>(50, mix.serve_steps / 4));
  spec.base.num_seeds = 1;
  spec.base.cache_mode = dse::CacheMode::kPrivate;
  return spec;
}

std::string CostMasked(const Mix& mix, const std::string& json) {
  if (mix.cache != dse::CacheMode::kShared) return json;
  static const std::regex kScheduled(
      "\"(executed_runs|saved_runs|shared_hits|kernel_runs_executed|"
      "shared_cache_hits)\":[0-9]+");
  return std::regex_replace(json, kScheduled, "\"$1\":-");
}

std::string FreshDir(const RunOptions& options, const std::string& name) {
  const fs::path path = fs::path(options.out_dir) / name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path.string();
}

}  // namespace axbench
