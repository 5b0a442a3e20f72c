// Declarative campaign sweep: expands ONE spec string into the full
// Table-3 grid — every registry benchmark x every agent x N seeds — runs it
// through the Engine in checkpointable chunks, and reports the cross-run
// view (per-kernel Pareto fronts, best feasible points, per-cell
// aggregates) plus JSON/CSV campaign exports.
//
// The default spec is the paper's extended Table-3 grid: 6 kernels x
// 5 agents x 4 seeds (120 explorations). --all-kernels widens it with the
// image/clustering workloads sobel3x3 and kmeans1d (8 kernels, 160
// explorations).
//
// Flags: --spec=STR      full spec override (see README "Campaigns")
//        --all-kernels   include sobel3x3@12 and kmeans1d@96 in the grid
//        --steps=N       per-exploration step budget (default 10000)
//        --seeds=N       seeds per cell (default 4)
//        --cache=MODE    private|shared base cache mode (default private)
//        --quick         CI smoke mode: 120 steps, 2 seeds
//        --workers=W     engine workers (default 0 = hardware)
//        --chunk=N       grid cells per engine batch (default 10)
//        --checkpoint=DIR        resume/suspend state directory; rerunning
//                                the same command continues a killed sweep
//                                with byte-identical final reports
//        --checkpoint-interval=N engine autosave period (default 1000)
//        --budget=N      suspend every job after N new steps (needs
//                        --checkpoint; rerun to continue)
//        --max-chunks=N  run at most N chunks this invocation
//        --json=PATH / --csv=PATH campaign exports

#include <cstdio>
#include <fstream>
#include <string>

#include "axdse.hpp"

int main(int argc, char** argv) {
  using namespace axdse;
  const util::CliArgs args(argc, argv);
  const bool quick = args.Has("quick");
  const std::size_t steps = args.GetCountStrict("steps", quick ? 120 : 10000);
  const std::size_t seeds = args.GetCountStrict("seeds", quick ? 2 : 4);

  std::string spec_text = args.GetString("spec", "");
  if (spec_text.empty()) {
    std::string kernels =
        "kernels=matmul@10,fir@100,iir@128,conv2d@16,dct@4,dot@64";
    if (args.Has("all-kernels")) kernels += ",sobel3x3@12,kmeans1d@96";
    spec_text = kernels + " agents=all steps=" + std::to_string(steps) +
                " seeds=" + std::to_string(seeds) +
                " seed=1 kernel-seed=2023 alpha=0.15 gamma=0.95"
                " reward-cap=500 cache=" +
                args.GetString("cache", "private");
  }
  const dse::CampaignSpec spec = dse::CampaignSpec::Parse(spec_text);
  std::printf("Campaign spec: %s\n", spec.ToString().c_str());
  std::printf("Grid: %zu cells, %zu explorations\n", spec.NumCells(),
              spec.NumJobs());

  const dse::Engine engine(
      dse::EngineOptions{args.GetCountStrict("workers", 0)});
  dse::CampaignOptions options;
  options.chunk_cells = args.GetCountStrict("chunk", 10);
  if (args.Has("checkpoint")) {
    options.checkpoint_directory =
        args.GetString("checkpoint", "campaign-checkpoints");
    options.checkpoint_interval =
        args.GetCountStrict("checkpoint-interval", 1000);
    options.step_budget = args.GetCountStrict("budget", 0);
    std::printf("Checkpointing to %s (chunked resume%s).\n",
                options.checkpoint_directory.c_str(),
                options.step_budget > 0 ? ", budget-limited" : "");
  }
  options.max_chunks = args.GetCountStrict("max-chunks", 0);

  const dse::CampaignResult result = dse::Campaign(engine).Run(spec, options);

  if (!result.Complete()) {
    std::printf(
        "Suspended: %zu cell(s) pending, %zu job(s) mid-flight; state saved "
        "under %s.\nRe-run the same command (without --budget/--max-chunks, "
        "or with larger ones) to continue.\n\n",
        result.pending_cells, result.unfinished_jobs,
        options.checkpoint_directory.c_str());
  } else if (result.resumed_cells > 0) {
    std::printf("Resumed %zu cell(s) from campaign snapshots.\n\n",
                result.resumed_cells);
  }

  std::printf("%s\n", report::RenderCampaignSummary(result).c_str());
  std::printf("Completed %zu/%zu cells, %zu runs, %zu total steps.\n",
              result.cells.size(), result.num_cells, result.TotalRuns(),
              result.TotalSteps());

  if (args.Has("json")) {
    const std::string path = args.GetString("json", "campaign.json");
    std::ofstream out(path);
    report::WriteCampaignJson(out, result);
    std::printf("campaign JSON written to %s\n", path.c_str());
  }
  if (args.Has("csv")) {
    const std::string path = args.GetString("csv", "campaign.csv");
    std::ofstream out(path);
    report::WriteCampaignCsv(out, result);
    std::printf("campaign CSV written to %s\n", path.c_str());
  }
  return 0;
}
