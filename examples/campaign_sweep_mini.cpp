// Minimal campaign walkthrough: one spec string -> expanded grid ->
// streaming Pareto fronts and a best-per-kernel table. The full Table-3
// sweep lives in bench/campaign_sweep; this example keeps the grid small
// enough to finish in about a second.

#include <cstdio>

#include "axdse.hpp"

int main() {
  using namespace axdse;

  // 2 kernels x 2 agents x 2 accuracy thresholds, 2 seeds each = 16 runs.
  const dse::CampaignSpec spec = dse::CampaignSpec::Parse(
      "kernels=dot@48{blocks=6},kmeans1d@64"
      " agents=q-learning,sarsa acc-factors=0.4,0.2"
      " steps=400 seeds=2 seed=1 kernel-seed=2023 reward-cap=500");
  std::printf("spec: %s\n", spec.ToString().c_str());
  std::printf("grid: %zu cells, %zu explorations\n\n", spec.NumCells(),
              spec.NumJobs());

  const dse::Engine engine;
  const dse::CampaignResult result = dse::Campaign(engine).Run(spec);

  std::printf("%s\n", report::RenderCampaignSummary(result).c_str());

  // The front of one kernel, point by point (provenance label, objectives).
  for (const dse::CampaignFront& front : result.fronts) {
    std::printf("%s front (%zu of %zu points):\n", front.kernel.c_str(),
                front.front.Size(), front.front.SeenCount());
    for (const dse::ParetoPoint& point : front.front.Points())
      std::printf("  %-28s dP=%8.1f dT=%8.1f dAcc=%10.2f  %s\n",
                  point.label.c_str(), point.measurement.delta_power_mw,
                  point.measurement.delta_time_ns,
                  point.measurement.delta_acc,
                  point.config.ToString().c_str());
  }
  return 0;
}
