#include "report/export.hpp"

#include <cmath>
#include <cstdio>
#include <locale>
#include <sstream>

#include "rl/trainer.hpp"
#include "util/csv.hpp"
#include "util/number_format.hpp"

namespace axdse::report {

namespace {
using util::ShortestDouble;
}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// JSON numbers cannot be inf/nan; emit those as strings.
std::string JsonNum(double value) {
  if (std::isfinite(value)) return ShortestDouble(value);
  std::string quoted("\"");
  quoted += ShortestDouble(value);
  quoted += '"';
  return quoted;
}

void WriteSummaryJson(std::ostream& out, const util::Summary& summary) {
  out << "{\"count\":" << summary.count << ",\"mean\":" << JsonNum(summary.mean)
      << ",\"stddev\":" << JsonNum(summary.stddev)
      << ",\"min\":" << JsonNum(summary.min)
      << ",\"max\":" << JsonNum(summary.max) << "}";
}

void WriteStages(std::ostream& out,
                 const std::vector<workloads::StageOpCounts>& stages) {
  out << "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"stage\":\"" << JsonEscape(stages[i].stage)
        << "\",\"precise_adds\":" << stages[i].counts.precise_adds
        << ",\"approx_adds\":" << stages[i].counts.approx_adds
        << ",\"precise_muls\":" << stages[i].counts.precise_muls
        << ",\"approx_muls\":" << stages[i].counts.approx_muls << "}";
  }
  out << "]";
}

std::string StageCountsCell(
    const std::vector<workloads::StageOpCounts>& stages) {
  std::string cell;
  for (const workloads::StageOpCounts& stage : stages) {
    if (!cell.empty()) cell.push_back('|');
    cell += stage.stage;
    cell.push_back('=');
    cell += std::to_string(stage.counts.precise_adds) + ":" +
            std::to_string(stage.counts.approx_adds) + ":" +
            std::to_string(stage.counts.precise_muls) + ":" +
            std::to_string(stage.counts.approx_muls);
  }
  return cell;
}

namespace {

void WriteVotes(std::ostream& out,
                const std::map<std::string, std::size_t>& votes) {
  out << "{";
  bool first = true;
  for (const auto& [code, count] : votes) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(code) << "\":" << count;
  }
  out << "}";
}

void WriteRun(std::ostream& out, const dse::ExplorationResult& run,
              std::uint64_t seed) {
  const instrument::Measurement& m = run.solution_measurement;
  out << "{\"seed\":" << seed << ",\"steps\":" << run.steps << ",\"stop\":\""
      << rl::ToString(run.stop_reason) << "\",\"cumulative_reward\":"
      << JsonNum(run.cumulative_reward)
      << ",\"episodes\":" << run.episodes
      << ",\"delta_power_mw\":" << JsonNum(m.delta_power_mw)
      << ",\"delta_time_ns\":" << JsonNum(m.delta_time_ns)
      << ",\"delta_acc\":" << JsonNum(m.delta_acc) << ",\"adder\":\""
      << JsonEscape(run.solution_adder) << "\",\"multiplier\":\""
      << JsonEscape(run.solution_multiplier)
      << "\",\"vars_selected\":" << run.solution.SelectedCount()
      << ",\"num_vars\":" << run.solution.NumVariables()
      << ",\"kernel_runs\":" << run.kernel_runs
      << ",\"cache_hits\":" << run.cache_hits
      << ",\"surrogate_hits\":" << run.surrogate_hits
      << ",\"kernel_runs_deferred\":" << run.kernel_runs_deferred
      << ",\"stages\":";
  WriteStages(out, run.stage_counts);
  out << "}";
}

void WriteCacheUsage(std::ostream& out, const dse::CacheUsage& cache) {
  out << "{\"mode\":\"" << dse::ToString(cache.mode)
      << "\",\"distinct_evaluations\":" << cache.distinct_evaluations
      << ",\"executed_runs\":" << cache.executed_runs
      << ",\"saved_runs\":" << cache.saved_runs
      << ",\"local_hits\":" << cache.local_hits
      << ",\"shared_hits\":" << cache.shared_hits
      << ",\"surrogate_hits\":" << cache.surrogate_hits
      << ",\"deferred_runs\":" << cache.deferred_runs << "}";
}

}  // namespace

void WriteBatchCsv(std::ostream& out, const dse::BatchResult& batch) {
  // Numeric output must not vary with the global locale (no digit
  // grouping, '.' decimal point): these are machine-readable documents.
  out.imbue(std::locale::classic());
  util::CsvWriter csv(out);
  csv.WriteRow({"request", "label", "kernel", "seed", "steps", "stop",
                "cumulative_reward", "episodes", "delta_power_mw",
                "delta_time_ns", "delta_acc", "adder", "multiplier",
                "vars_selected", "num_vars", "feasible", "kernel_runs",
                "cache_hits", "surrogate_hits", "kernel_runs_deferred",
                "cache_mode", "request_executed_runs", "request_saved_runs",
                "stage_counts"});
  for (std::size_t r = 0; r < batch.results.size(); ++r) {
    const dse::RequestResult& result = batch.results[r];
    for (std::size_t s = 0; s < result.runs.size(); ++s) {
      const dse::ExplorationResult& run = result.runs[s];
      const instrument::Measurement& m = run.solution_measurement;
      csv.WriteRow({std::to_string(r), result.request.DisplayName(),
                    result.kernel_name,
                    std::to_string(result.request.seed + s),
                    std::to_string(run.steps), rl::ToString(run.stop_reason),
                    ShortestDouble(run.cumulative_reward),
                    std::to_string(run.episodes),
                    ShortestDouble(m.delta_power_mw),
                    ShortestDouble(m.delta_time_ns),
                    ShortestDouble(m.delta_acc), run.solution_adder,
                    run.solution_multiplier,
                    std::to_string(run.solution.SelectedCount()),
                    std::to_string(run.solution.NumVariables()),
                    m.delta_acc <= result.reward.acc_threshold ? "1" : "0",
                    std::to_string(run.kernel_runs),
                    std::to_string(run.cache_hits),
                    std::to_string(run.surrogate_hits),
                    std::to_string(run.kernel_runs_deferred),
                    dse::ToString(result.cache.mode),
                    std::to_string(result.cache.executed_runs),
                    std::to_string(result.cache.saved_runs),
                    StageCountsCell(run.stage_counts)});
    }
  }
}

void WriteBatchJson(std::ostream& out, const dse::BatchResult& batch) {
  // Numeric output must not vary with the global locale (no digit
  // grouping, '.' decimal point): these are machine-readable documents.
  out.imbue(std::locale::classic());
  out << "{\"total_runs\":" << batch.TotalRuns()
      << ",\"total_steps\":" << batch.TotalSteps()
      << ",\"total_distinct_evaluations\":"
      << batch.TotalDistinctEvaluations()
      << ",\"total_executed_runs\":" << batch.TotalExecutedRuns()
      << ",\"total_saved_runs\":" << batch.TotalSavedRuns()
      << ",\"shared_caches\":[";
  for (std::size_t c = 0; c < batch.shared_caches.size(); ++c) {
    const dse::SharedCacheReport& report = batch.shared_caches[c];
    if (c > 0) out << ",";
    out << "{\"signature\":\"" << JsonEscape(report.signature)
        << "\",\"jobs\":" << report.jobs
        << ",\"hits\":" << report.stats.hits
        << ",\"misses\":" << report.stats.misses
        << ",\"inserts\":" << report.stats.inserts
        << ",\"rejected\":" << report.stats.rejected
        << ",\"size\":" << report.stats.size << "}";
  }
  out << "],\"requests\":[";
  for (std::size_t r = 0; r < batch.results.size(); ++r) {
    const dse::RequestResult& result = batch.results[r];
    if (r > 0) out << ",";
    out << "{\"request\":\"" << JsonEscape(result.request.ToString())
        << "\",\"label\":\"" << JsonEscape(result.request.DisplayName())
        << "\",\"kernel\":\"" << JsonEscape(result.kernel_name)
        << "\",\"acc_threshold\":" << JsonNum(result.reward.acc_threshold)
        << ",\"power_threshold\":" << JsonNum(result.reward.power_threshold)
        << ",\"time_threshold\":" << JsonNum(result.reward.time_threshold)
        << ",\"feasible_fraction\":" << JsonNum(result.feasible_fraction)
        << ",\"modal_adder\":\"" << JsonEscape(result.ModalAdder())
        << "\",\"modal_multiplier\":\""
        << JsonEscape(result.ModalMultiplier()) << "\",";
    out << "\"solution_delta_power\":";
    WriteSummaryJson(out, result.solution_delta_power);
    out << ",\"solution_delta_time\":";
    WriteSummaryJson(out, result.solution_delta_time);
    out << ",\"solution_delta_acc\":";
    WriteSummaryJson(out, result.solution_delta_acc);
    out << ",\"steps\":";
    WriteSummaryJson(out, result.steps);
    out << ",\"cache\":";
    WriteCacheUsage(out, result.cache);
    out << ",\"adder_votes\":";
    WriteVotes(out, result.adder_votes);
    out << ",\"multiplier_votes\":";
    WriteVotes(out, result.multiplier_votes);
    out << ",\"runs\":[";
    for (std::size_t s = 0; s < result.runs.size(); ++s) {
      if (s > 0) out << ",";
      WriteRun(out, result.runs[s], result.request.seed + s);
    }
    out << "]}";
  }
  out << "]}\n";
}

std::string BatchCsv(const dse::BatchResult& batch) {
  std::ostringstream out;
  WriteBatchCsv(out, batch);
  return out.str();
}

std::string BatchJson(const dse::BatchResult& batch) {
  std::ostringstream out;
  WriteBatchJson(out, batch);
  return out.str();
}

}  // namespace axdse::report
