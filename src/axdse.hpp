#pragma once
// axdse — the public facade. Include this one header to use the library:
//
//   const axdse::dse::Engine engine;                  // worker pool
//   axdse::dse::ExplorationRequest request;           // plain fields
//   request.kernel = axdse::workloads::KernelSpec("fir", 100);
//   request.num_seeds = 8;
//   const auto batch = engine.Run({request});  // validates, multi-seed
//   axdse::report::WriteBatchJson(std::cout, batch);  // machine-readable out
//
// Layering underneath, all reachable through this header:
//   workloads::KernelRegistry  — kernels by name ("matmul", "fir", ...);
//                                Global().Register() adds custom ones
//   dse::ExplorationRequest    — one serializable run description (plain
//                                fields + Validate(); ToString/Parse)
//   dse::Engine                — batch execution on a worker pool; its one
//                                Run() also resumes and preempts batches
//   dse::Checkpoint            — suspend/resume snapshots (byte-identical)
//   dse::CampaignSpec/Campaign — a declarative sweep grid over requests
//   dse::ShardWorker           — one process's share of a sharded campaign,
//                                folded by dse::MergeShardedCampaign
//   dse::Explorer / Evaluator  — the single-run core from the paper
//   report::*                  — Tables I-III / Figures 2-4 / JSON / CSV

#include "axc/catalog.hpp"
#include "axc/characterization.hpp"
#include "dse/baselines.hpp"
#include "dse/campaign.hpp"
#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "dse/request.hpp"
#include "dse/shard.hpp"
#include "report/campaign.hpp"
#include "report/export.hpp"
#include "report/figures.hpp"
#include "report/tables.hpp"
#include "util/ascii_table.hpp"
#include "util/cli.hpp"
#include "workloads/kernel.hpp"
#include "workloads/registry.hpp"
