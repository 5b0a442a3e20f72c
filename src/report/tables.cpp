#include "report/tables.hpp"

#include <functional>
#include <stdexcept>

#include "rl/trainer.hpp"
#include "util/ascii_table.hpp"

namespace axdse::report {

namespace {
using util::AsciiTable;

void CheckMeasured(std::size_t specs, std::size_t measured) {
  if (measured != 0 && measured != specs)
    throw std::invalid_argument(
        "render table: measured characterizations must match spec count");
}
}  // namespace

std::string RenderAdderTable(
    const std::string& title, const std::vector<axc::AdderSpec>& specs,
    const std::vector<axc::Characterization>& measured) {
  CheckMeasured(specs.size(), measured.size());
  AsciiTable table(title);
  if (measured.empty()) {
    table.SetHeader({"operator", "Type", "MRED", "Power (mW)",
                     "Computation time (ns)"});
  } else {
    table.SetHeader({"operator", "Type", "MRED", "Power (mW)",
                     "Computation time (ns)", "measured MRED",
                     "behavioral model"});
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const axc::AdderSpec& s = specs[i];
    std::vector<std::string> row = {
        std::to_string(s.bits) + "-bit adder", s.type_code,
        AsciiTable::Num(s.published_mred_pct, 3), AsciiTable::Num(s.power_mw, 4),
        AsciiTable::Num(s.time_ns, 2)};
    if (!measured.empty()) {
      row.push_back(AsciiTable::Num(measured[i].mred * 100.0, 3));
      row.push_back(axc::Describe(s.op));
    }
    table.AddRow(std::move(row));
  }
  return table.Render();
}

std::string RenderMultiplierTable(
    const std::string& title, const std::vector<axc::MultiplierSpec>& specs,
    const std::vector<axc::Characterization>& measured) {
  CheckMeasured(specs.size(), measured.size());
  AsciiTable table(title);
  if (measured.empty()) {
    table.SetHeader({"operator", "Type", "MRED", "Power (mW)",
                     "Computation time (ns)"});
  } else {
    table.SetHeader({"operator", "Type", "MRED", "Power (mW)",
                     "Computation time (ns)", "measured MRED",
                     "behavioral model"});
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const axc::MultiplierSpec& s = specs[i];
    std::vector<std::string> row = {
        std::to_string(s.bits) + "-bit multiplier", s.type_code,
        AsciiTable::Num(s.published_mred_pct, 3), AsciiTable::Num(s.power_mw, 4),
        AsciiTable::Num(s.time_ns, 3)};
    if (!measured.empty()) {
      row.push_back(AsciiTable::Num(measured[i].mred * 100.0, 3));
      row.push_back(axc::Describe(s.op));
    }
    table.AddRow(std::move(row));
  }
  return table.Render();
}

std::string RenderTable3(const std::vector<Table3Column>& columns) {
  AsciiTable table(
      "TABLE III — EXPLORATION RESULTS FOR POWER, COMPUTATION TIME, AND "
      "ACCURACY");
  std::vector<std::string> header = {"Benchmarks"};
  for (const Table3Column& c : columns) header.push_back(c.benchmark);
  table.SetHeader(std::move(header));

  const auto add_metric_rows =
      [&](const std::string& metric,
          const std::function<double(const dse::ExplorationResult&)>& min_of,
          const std::function<double(const dse::ExplorationResult&)>& sol_of,
          const std::function<double(const dse::ExplorationResult&)>& max_of,
          int precision) {
        table.AddSeparator();
        std::vector<std::string> banner = {metric};
        banner.resize(columns.size() + 1);
        table.AddRow(std::move(banner));
        const auto row = [&](const std::string& label, const auto& getter) {
          std::vector<std::string> cells = {label};
          for (const Table3Column& c : columns)
            cells.push_back(AsciiTable::Num(getter(c.result), precision));
          table.AddRow(std::move(cells));
        };
        row("min", min_of);
        row("solution", sol_of);
        row("max", max_of);
      };

  add_metric_rows(
      "Δ Power Consumption (mW)",
      [](const dse::ExplorationResult& r) { return r.delta_power.min; },
      [](const dse::ExplorationResult& r) {
        return r.solution_measurement.delta_power_mw;
      },
      [](const dse::ExplorationResult& r) { return r.delta_power.max; }, 3);
  add_metric_rows(
      "Δ Computation time (ns)",
      [](const dse::ExplorationResult& r) { return r.delta_time.min; },
      [](const dse::ExplorationResult& r) {
        return r.solution_measurement.delta_time_ns;
      },
      [](const dse::ExplorationResult& r) { return r.delta_time.max; }, 3);
  add_metric_rows(
      "Accuracy degradation",
      [](const dse::ExplorationResult& r) { return r.delta_acc.min; },
      [](const dse::ExplorationResult& r) {
        return r.solution_measurement.delta_acc;
      },
      [](const dse::ExplorationResult& r) { return r.delta_acc.max; }, 4);

  table.AddSeparator();
  std::vector<std::string> config_banner = {"Configuration"};
  config_banner.resize(columns.size() + 1);
  table.AddRow(std::move(config_banner));
  std::vector<std::string> adder_row = {"Adder Type"};
  std::vector<std::string> mul_row = {"Multiplier Type"};
  for (const Table3Column& c : columns) {
    adder_row.push_back(c.result.solution_adder);
    mul_row.push_back(c.result.solution_multiplier);
  }
  table.AddRow(std::move(adder_row));
  table.AddRow(std::move(mul_row));
  return table.Render();
}

std::string RenderExplorationSummary(
    const std::vector<Table3Column>& columns) {
  AsciiTable table("Exploration diagnostics");
  table.SetHeader({"Benchmark", "steps", "stop", "cumulative reward",
                   "kernel runs", "cache hits", "selected vars"});
  for (const Table3Column& c : columns) {
    table.AddRow({c.benchmark, std::to_string(c.result.steps),
                  rl::ToString(c.result.stop_reason),
                  AsciiTable::Num(c.result.cumulative_reward, 1),
                  std::to_string(c.result.kernel_runs),
                  std::to_string(c.result.cache_hits),
                  std::to_string(c.result.solution.SelectedCount()) + "/" +
                      std::to_string(c.result.solution.NumVariables())});
  }
  return table.Render();
}

}  // namespace axdse::report
