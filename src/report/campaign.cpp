#include "report/campaign.hpp"

#include <locale>
#include <sstream>

#include "report/export.hpp"
#include "util/ascii_table.hpp"
#include "util/csv.hpp"
#include "util/number_format.hpp"

namespace axdse::report {

namespace {

using util::ShortestDouble;

void WritePoint(std::ostream& out, const dse::ParetoPoint& point) {
  out << "{\"label\":\"" << JsonEscape(point.label) << "\",\"config\":\""
      << JsonEscape(point.config.ToString())
      << "\",\"delta_power_mw\":" << JsonNum(point.measurement.delta_power_mw)
      << ",\"delta_time_ns\":" << JsonNum(point.measurement.delta_time_ns)
      << ",\"delta_acc\":" << JsonNum(point.measurement.delta_acc) << "}";
}

void WriteCell(std::ostream& out, const dse::CampaignCell& cell) {
  out << "{\"request\":\"" << JsonEscape(cell.request.ToString())
      << "\",\"label\":\"" << JsonEscape(cell.request.DisplayName())
      << "\",\"kernel\":\"" << JsonEscape(cell.kernel_name)
      << "\",\"agent\":\"" << dse::ToString(cell.request.agent_kind)
      << "\",\"action_space\":\"" << dse::ToString(cell.request.action_space)
      << "\",\"cache_mode\":\"" << dse::ToString(cell.request.cache_mode)
      << "\",\"acc_threshold\":" << JsonNum(cell.reward.acc_threshold)
      << ",\"power_threshold\":" << JsonNum(cell.reward.power_threshold)
      << ",\"time_threshold\":" << JsonNum(cell.reward.time_threshold)
      << ",\"feasible_fraction\":" << JsonNum(cell.feasible_fraction)
      << ",\"modal_adder\":\"" << JsonEscape(cell.modal_adder)
      << "\",\"modal_multiplier\":\"" << JsonEscape(cell.modal_multiplier)
      << "\",\"solution_delta_power\":";
  WriteSummaryJson(out, cell.solution_delta_power);
  out << ",\"solution_delta_time\":";
  WriteSummaryJson(out, cell.solution_delta_time);
  out << ",\"solution_delta_acc\":";
  WriteSummaryJson(out, cell.solution_delta_acc);
  out << ",\"steps\":";
  WriteSummaryJson(out, cell.steps);
  out << ",\"cache\":{\"mode\":\"" << dse::ToString(cell.cache.mode)
      << "\",\"distinct_evaluations\":" << cell.cache.distinct_evaluations
      << ",\"executed_runs\":" << cell.cache.executed_runs
      << ",\"saved_runs\":" << cell.cache.saved_runs
      << ",\"local_hits\":" << cell.cache.local_hits
      << ",\"shared_hits\":" << cell.cache.shared_hits
      << ",\"surrogate_hits\":" << cell.cache.surrogate_hits
      << ",\"deferred_runs\":" << cell.cache.deferred_runs << "}";
  out << ",\"runs\":[";
  for (std::size_t s = 0; s < cell.runs.size(); ++s) {
    const dse::CampaignSeedRun& run = cell.runs[s];
    if (s > 0) out << ",";
    out << "{\"seed\":" << run.seed << ",\"steps\":" << run.steps
        << ",\"stop\":\"" << JsonEscape(run.stop)
        << "\",\"cumulative_reward\":" << JsonNum(run.cumulative_reward)
        << ",\"delta_power_mw\":"
        << JsonNum(run.solution_measurement.delta_power_mw)
        << ",\"delta_time_ns\":"
        << JsonNum(run.solution_measurement.delta_time_ns)
        << ",\"delta_acc\":" << JsonNum(run.solution_measurement.delta_acc)
        << ",\"adder\":\"" << JsonEscape(run.adder) << "\",\"multiplier\":\""
        << JsonEscape(run.multiplier)
        << "\",\"vars_selected\":" << run.solution.SelectedCount()
        << ",\"num_vars\":" << run.solution.NumVariables()
        << ",\"feasible\":" << (run.feasible ? "true" : "false")
        << ",\"objective\":" << JsonNum(run.objective)
        << ",\"kernel_runs\":" << run.kernel_runs
        << ",\"cache_hits\":" << run.cache_hits
        << ",\"surrogate_hits\":" << run.surrogate_hits
        << ",\"kernel_runs_deferred\":" << run.kernel_runs_deferred
        << ",\"stages\":";
    WriteStages(out, run.stage_counts);
    out << "}";
  }
  out << "]}";
}

}  // namespace

void WriteCampaignJson(std::ostream& out, const dse::CampaignResult& result) {
  out.imbue(std::locale::classic());  // locale-independent numbers
  out << "{\"schema\":\"axdse-campaign-v1\",\"spec\":\""
      << JsonEscape(result.spec.ToString())
      << "\",\"num_cells\":" << result.num_cells
      << ",\"cells_completed\":" << result.cells.size()
      << ",\"pending_cells\":" << result.pending_cells
      << ",\"unfinished_jobs\":" << result.unfinished_jobs
      << ",\"complete\":" << (result.Complete() ? "true" : "false")
      << ",\"total_runs\":" << result.TotalRuns()
      << ",\"total_steps\":" << result.TotalSteps() << ",\"best\":[";
  for (std::size_t b = 0; b < result.best.size(); ++b) {
    const dse::CampaignBest& best = result.best[b];
    if (b > 0) out << ",";
    out << "{\"kernel\":\"" << JsonEscape(best.kernel) << "\",\"cell\":\""
        << JsonEscape(best.cell) << "\",\"agent\":\"" << JsonEscape(best.agent)
        << "\",\"seed\":" << best.seed
        << ",\"feasible\":" << (best.feasible ? "true" : "false")
        << ",\"objective\":" << JsonNum(best.objective) << ",\"config\":\""
        << JsonEscape(best.config.ToString())
        << "\",\"delta_power_mw\":" << JsonNum(best.measurement.delta_power_mw)
        << ",\"delta_time_ns\":" << JsonNum(best.measurement.delta_time_ns)
        << ",\"delta_acc\":" << JsonNum(best.measurement.delta_acc) << "}";
  }
  out << "],\"pareto\":[";
  for (std::size_t f = 0; f < result.fronts.size(); ++f) {
    const dse::CampaignFront& front = result.fronts[f];
    if (f > 0) out << ",";
    out << "{\"kernel\":\"" << JsonEscape(front.kernel)
        << "\",\"seen\":" << front.front.SeenCount() << ",\"points\":[";
    const auto& points = front.front.Points();
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (p > 0) out << ",";
      WritePoint(out, points[p]);
    }
    out << "]}";
  }
  out << "],\"cells\":[";
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    if (c > 0) out << ",";
    WriteCell(out, result.cells[c]);
  }
  out << "]}\n";
}

void WriteCampaignCsv(std::ostream& out, const dse::CampaignResult& result) {
  out.imbue(std::locale::classic());  // locale-independent numbers
  util::CsvWriter csv(out);
  csv.WriteRow({"cell", "label", "kernel", "agent", "action_space",
                "cache_mode", "acc_factor", "seed", "steps", "stop",
                "cumulative_reward", "delta_power_mw", "delta_time_ns",
                "delta_acc", "adder", "multiplier", "vars_selected",
                "num_vars", "feasible", "objective", "kernel_runs",
                "cache_hits", "surrogate_hits", "kernel_runs_deferred",
                "stage_counts"});
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const dse::CampaignCell& cell = result.cells[c];
    for (const dse::CampaignSeedRun& run : cell.runs) {
      csv.WriteRow(
          {std::to_string(c), cell.request.DisplayName(), cell.kernel_name,
           dse::ToString(cell.request.agent_kind),
           dse::ToString(cell.request.action_space),
           dse::ToString(cell.request.cache_mode),
           ShortestDouble(cell.request.thresholds.accuracy_factor),
           std::to_string(run.seed), std::to_string(run.steps), run.stop,
           ShortestDouble(run.cumulative_reward),
           ShortestDouble(run.solution_measurement.delta_power_mw),
           ShortestDouble(run.solution_measurement.delta_time_ns),
           ShortestDouble(run.solution_measurement.delta_acc), run.adder,
           run.multiplier, std::to_string(run.solution.SelectedCount()),
           std::to_string(run.solution.NumVariables()),
           run.feasible ? "1" : "0", ShortestDouble(run.objective),
           std::to_string(run.kernel_runs),
           std::to_string(run.cache_hits),
           std::to_string(run.surrogate_hits),
           std::to_string(run.kernel_runs_deferred),
           StageCountsCell(run.stage_counts)});
    }
  }
}

std::string RenderCampaignSummary(const dse::CampaignResult& result) {
  std::ostringstream out;
  {
    util::AsciiTable table("Campaign fronts — per-kernel Pareto and best "
                           "feasible point");
    table.SetHeader({"Kernel", "front", "seen", "best cell", "seed",
                     "objective", "ΔPower (mW)", "ΔTime (ns)", "Δacc"});
    for (std::size_t f = 0; f < result.fronts.size(); ++f) {
      const dse::CampaignFront& front = result.fronts[f];
      const dse::CampaignBest& best = result.best[f];
      table.AddRow({front.kernel, std::to_string(front.front.Size()),
                    std::to_string(front.front.SeenCount()),
                    best.cell + (best.feasible ? "" : " (infeasible)"),
                    std::to_string(best.seed),
                    util::AsciiTable::Num(best.objective),
                    util::AsciiTable::Num(best.measurement.delta_power_mw, 1),
                    util::AsciiTable::Num(best.measurement.delta_time_ns, 1),
                    util::AsciiTable::Num(best.measurement.delta_acc, 2)});
    }
    out << table.Render();
  }
  {
    util::AsciiTable table("Campaign cells (" +
                           std::to_string(result.cells.size()) + " of " +
                           std::to_string(result.num_cells) + ")");
    table.SetHeader({"Cell", "seeds", "ΔPower mean", "ΔTime mean",
                     "Δacc mean", "feasible", "adder", "multiplier"});
    for (const dse::CampaignCell& cell : result.cells)
      table.AddRow(
          {cell.request.DisplayName(), std::to_string(cell.runs.size()),
           util::AsciiTable::Num(cell.solution_delta_power.mean, 1),
           util::AsciiTable::Num(cell.solution_delta_time.mean, 1),
           util::AsciiTable::Num(cell.solution_delta_acc.mean, 2),
           util::AsciiTable::Num(cell.feasible_fraction * 100.0, 0) + "%",
           cell.modal_adder, cell.modal_multiplier});
    out << table.Render();
  }
  return out.str();
}

std::string CampaignJson(const dse::CampaignResult& result) {
  std::ostringstream out;
  WriteCampaignJson(out, result);
  return out.str();
}

std::string CampaignCsv(const dse::CampaignResult& result) {
  std::ostringstream out;
  WriteCampaignCsv(out, result);
  return out.str();
}

}  // namespace axdse::report
