#pragma once
// Machine-readable exports of Engine batch results: a flat CSV (one row per
// seed-run, for spreadsheets and plotting) and a structured JSON document
// (requests, per-seed runs, aggregates, operator votes). Both emitters are
// fully deterministic — fixed field order, shortest-round-trip double
// formatting — so batches run with different worker counts export
// byte-identical documents (the Engine determinism tests rely on this).

#include <ostream>
#include <string>
#include <vector>

#include "dse/engine.hpp"

namespace axdse::report {

/// JSON string escaping shared by every exporter in this library.
std::string JsonEscape(const std::string& text);

/// Writes per-stage operation counts as a JSON array of
/// {"stage":..,"precise_adds":..,"approx_adds":..,"precise_muls":..,
/// "approx_muls":..} objects ("[]" for single-stage kernels).
void WriteStages(std::ostream& out,
                 const std::vector<workloads::StageOpCounts>& stages);

/// Compact one-cell CSV form of the per-stage counts:
/// "dct=pa:aa:pm:am|quantize=..." — empty for single-stage kernels.
std::string StageCountsCell(
    const std::vector<workloads::StageOpCounts>& stages);

/// Deterministic JSON number: shortest-round-trip formatting; inf/NaN are
/// emitted as quoted strings (JSON has no non-finite numbers).
std::string JsonNum(double value);

/// Writes a util::Summary as a JSON object
/// {"count":..,"mean":..,"stddev":..,"min":..,"max":..}.
void WriteSummaryJson(std::ostream& out, const util::Summary& summary);

/// Writes one CSV row per seed-run, prefixed by a header row. Columns:
/// request, label, kernel, seed, steps, stop, cumulative_reward, episodes,
/// delta_power_mw, delta_time_ns, delta_acc, adder, multiplier,
/// vars_selected, num_vars, feasible, kernel_runs, cache_hits, cache_mode,
/// request_executed_runs, request_saved_runs. The per-run kernel_runs /
/// cache_hits columns are the deterministic logical view (identical across
/// cache modes); the request_* columns aggregate the request's actual cache
/// economics and repeat on each of its rows.
void WriteBatchCsv(std::ostream& out, const dse::BatchResult& batch);

/// Writes the batch as a JSON document: batch totals (including
/// total_executed_runs / total_saved_runs and per-group shared_caches
/// stats), then an array of request objects, each with the serialized
/// request string, resolved kernel name, thresholds, per-metric summaries,
/// a "cache" usage object, operator votes, and the per-seed run array.
void WriteBatchJson(std::ostream& out, const dse::BatchResult& batch);

/// Convenience string forms of the writers above.
std::string BatchCsv(const dse::BatchResult& batch);
std::string BatchJson(const dse::BatchResult& batch);

}  // namespace axdse::report
