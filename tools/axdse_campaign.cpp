// axdse-campaign — campaign execution from the command line: single-process
// runs, crash-safe multi-process shard workers, and the deterministic merge
// of a sharded state directory.
//
// Usage:
//   axdse-campaign run   [options] <spec tokens...>
//   axdse-campaign shard --shard-dir D --worker-id W [options] <spec...>
//   axdse-campaign shard status --shard-dir D [--probe-ms N]
//   axdse-campaign merge --shard-dir D [options]
//
// Common options:
//   --json FILE   write the axdse-campaign-v1 JSON document ("-" = stdout)
//   --csv FILE    write the per-(cell,seed) CSV ("-" = stdout)
//   --summary     print the human-readable summary to stdout
//
// run options:
//   --chunk-cells N        grid cells per engine chunk (default 8)
//   --checkpoint-dir D     resumable state directory, the same layout as
//                          --shard-dir (shard, shard status and merge
//                          accept an incomplete one)
//   --checkpoint-interval N  engine autosave period in steps
//   --workers N            engine worker threads (0 = hardware)
//
// shard options (see dse/shard.hpp for the lease protocol):
//   --shard-dir D          shared state directory (required)
//   --worker-id W          this worker's lease identity (required)
//   --chunk-cells N        part of the campaign identity; all workers and
//                          the single-process reference must agree
//   --checkpoint-interval N  engine autosave period in steps
//   --max-chunks N         execute at most N chunks, then exit
//   --lease-ttl-ms N       stale-lease reclaim threshold (default 10000)
//   --heartbeat-ms N       lease refresh period (default 2000)
//   --poll-ms N            idle scan period (default 250)
//   --no-wait              return when nothing is claimable instead of
//                          polling until every chunk is done
//
// shard status options:
//   --shard-dir D          state directory to inspect (required)
//   --probe-ms N           sample claimed leases twice, N ms apart, and
//                          report ones whose heartbeat did not advance as
//                          stale (default 3000; 0 = single instant scan).
//                          Read-only: never claims, writes, or reclaims.
//
// A shard worker exits 0 when the campaign is complete, 3 when it returned
// with work still pending (--no-wait / --max-chunks); `shard status` uses
// the same convention (0 complete, 3 pending). merge exits non-zero until
// every chunk has a result document.
//
// Spec tokens are the CampaignSpec grammar, e.g.:
//   axdse-campaign run --json - kernels=matmul@10,fir@100 agents=all
//       steps=120 seeds=2 cache=private        (one command line)

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dse/campaign.hpp"
#include "dse/engine.hpp"
#include "dse/shard.hpp"
#include "report/campaign.hpp"
#include "util/cli.hpp"

namespace {

std::string JoinTokens(const std::vector<std::string>& positional,
                       std::size_t begin) {
  std::string joined;
  for (std::size_t i = begin; i < positional.size(); ++i) {
    if (!joined.empty()) joined += " ";
    joined += positional[i];
  }
  return joined;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "axdse-campaign: %s\n", message.c_str());
  return 2;
}

void WriteDocument(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw std::runtime_error("cannot open output file " + path);
  out << content;
  if (!out) throw std::runtime_error("write failed for " + path);
}

/// Shared by run and merge: emit whatever the flags asked for.
void EmitReports(const axdse::util::CliArgs& args,
                 const axdse::dse::CampaignResult& result) {
  if (const std::string json = args.GetString("json", ""); !json.empty())
    WriteDocument(json, axdse::report::CampaignJson(result));
  if (const std::string csv = args.GetString("csv", ""); !csv.empty())
    WriteDocument(csv, axdse::report::CampaignCsv(result));
  if (args.Has("summary"))
    std::cout << axdse::report::RenderCampaignSummary(result);
}

}  // namespace

int main(int argc, char** argv) {
  const axdse::util::CliArgs args(argc, argv);
  const auto& positional = args.Positional();
  if (args.Has("help") || positional.empty()) {
    std::puts(
        "axdse-campaign run   [--json F] [--csv F] [--summary]\n"
        "                     [--chunk-cells N] [--checkpoint-dir D]\n"
        "                     [--checkpoint-interval N] [--workers N]\n"
        "                     <spec tokens...>\n"
        "axdse-campaign shard --shard-dir D --worker-id W [--chunk-cells N]\n"
        "                     [--checkpoint-interval N] [--max-chunks N]\n"
        "                     [--lease-ttl-ms N] [--heartbeat-ms N]\n"
        "                     [--poll-ms N] [--no-wait] <spec tokens...>\n"
        "axdse-campaign shard status --shard-dir D [--probe-ms N]\n"
        "axdse-campaign merge --shard-dir D [--json F] [--csv F] "
        "[--summary]");
    return positional.empty() && !args.Has("help") ? 2 : 0;
  }
  try {
    const std::string& command = positional[0];
    if (command == "run") {
      if (positional.size() < 2) return Fail("run needs a campaign spec");
      const auto spec =
          axdse::dse::CampaignSpec::Parse(JoinTokens(positional, 1));
      axdse::dse::EngineOptions engine;
      engine.num_workers = args.GetCountStrict("workers", 0);
      axdse::dse::CampaignOptions options;
      options.chunk_cells = args.GetCountStrict("chunk-cells", 8);
      options.checkpoint_directory = args.GetString("checkpoint-dir", "");
      options.checkpoint_interval =
          args.GetCountStrict("checkpoint-interval", 0);
      const axdse::dse::Engine runner(engine);
      const auto result = axdse::dse::Campaign(runner).Run(spec, options);
      EmitReports(args, result);
      return result.Complete() ? 0 : 3;
    }
    if (command == "shard" && positional.size() >= 2 &&
        positional[1] == "status") {
      if (positional.size() != 2)
        return Fail("shard status takes only flags");
      const std::string directory = args.GetString("shard-dir", "");
      if (directory.empty()) return Fail("shard status needs --shard-dir");
      const auto probe =
          std::chrono::milliseconds(args.GetIntStrict("probe-ms", 3000));
      const auto status = axdse::dse::ShardStatus(directory, probe);
      std::printf(
          "chunks total=%zu done=%zu claimed=%zu stale=%zu unclaimed=%zu "
          "complete=%s\n",
          status.num_chunks, status.done, status.claimed, status.stale,
          status.unclaimed, status.Complete() ? "true" : "false");
      return status.Complete() ? 0 : 3;
    }
    if (command == "shard") {
      if (positional.size() < 2) return Fail("shard needs a campaign spec");
      const auto spec =
          axdse::dse::CampaignSpec::Parse(JoinTokens(positional, 1));
      axdse::dse::EngineOptions engine;
      engine.num_workers = args.GetCountStrict("workers", 0);
      axdse::dse::ShardOptions options;
      options.state_directory = args.GetString("shard-dir", "");
      options.worker_id = args.GetString("worker-id", "");
      options.chunk_cells = args.GetCountStrict("chunk-cells", 8);
      options.checkpoint_interval =
          args.GetCountStrict("checkpoint-interval", 0);
      options.max_chunks = args.GetCountStrict("max-chunks", 0);
      options.lease_ttl = std::chrono::milliseconds(
          args.GetIntStrict("lease-ttl-ms", 10000));
      options.heartbeat_period = std::chrono::milliseconds(
          args.GetIntStrict("heartbeat-ms", 2000));
      options.poll_period =
          std::chrono::milliseconds(args.GetIntStrict("poll-ms", 250));
      options.wait_for_completion = !args.Has("no-wait");
      const axdse::dse::Engine runner(engine);
      const auto report = axdse::dse::ShardWorker(runner).Run(spec, options);
      std::printf(
          "worker %s: executed=%zu reclaimed=%zu skipped=%zu yielded=%zu "
          "complete=%s\n",
          options.worker_id.c_str(), report.chunks_executed,
          report.chunks_reclaimed, report.chunks_skipped,
          report.chunks_yielded, report.complete ? "true" : "false");
      return report.complete ? 0 : 3;
    }
    if (command == "merge") {
      if (positional.size() != 1) return Fail("merge takes only flags");
      const std::string directory = args.GetString("shard-dir", "");
      if (directory.empty()) return Fail("merge needs --shard-dir");
      const auto result = axdse::dse::MergeShardedCampaign(directory);
      EmitReports(args, result);
      return 0;
    }
    return Fail("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axdse-campaign: %s\n", e.what());
    return 1;
  }
}
