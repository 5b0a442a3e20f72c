#include "dse/campaign.hpp"

#include <filesystem>
#include <limits>
#include <locale>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "dse/baselines.hpp"
#include "dse/checkpoint.hpp"
#include "dse/chunk_loop.hpp"
#include "rl/trainer.hpp"
#include "util/number_format.hpp"

namespace axdse::dse {

namespace {

using util::ParseDoubleToken;
using util::ShortestDouble;

[[noreturn]] void SpecError(const std::string& message) {
  throw std::invalid_argument("CampaignSpec: " + message);
}

// --- chunk document schema --------------------------------------------------
// Summary min/max of an empty sample are +-inf sentinels, so every double
// here reads with NonNan().

void WriteSummary(util::RecordWriter& out, const char* tag,
                  const util::Summary& summary) {
  out.Line(tag)
      .U64(summary.count)
      .Double(summary.mean)
      .Double(summary.stddev)
      .Double(summary.min)
      .Double(summary.max)
      .Double(summary.sum);
}

util::Summary ReadSummary(util::RecordReader& reader, const char* tag) {
  util::RecordCursor cursor = reader.Expect(tag, 6);
  util::Summary summary;
  summary.count = cursor.Size("summary count");
  summary.mean = cursor.NonNan("summary mean");
  summary.stddev = cursor.NonNan("summary stddev");
  summary.min = cursor.NonNan("summary min");
  summary.max = cursor.NonNan("summary max");
  summary.sum = cursor.NonNan("summary sum");
  return summary;
}

/// The five measurement fields campaign reports read (see CampaignSeedRun).
void WriteMeasurement(util::RecordWriter& out,
                      const instrument::Measurement& m) {
  out.Double(m.delta_acc)
      .Double(m.delta_power_mw)
      .Double(m.delta_time_ns)
      .Double(m.precise_power_mw)
      .Double(m.precise_time_ns);
}

instrument::Measurement ReadMeasurement(util::RecordCursor& cursor) {
  instrument::Measurement m;
  m.delta_acc = cursor.NonNan("delta_acc");
  m.delta_power_mw = cursor.NonNan("delta_power_mw");
  m.delta_time_ns = cursor.NonNan("delta_time_ns");
  m.precise_power_mw = cursor.NonNan("precise_power_mw");
  m.precise_time_ns = cursor.NonNan("precise_time_ns");
  return m;
}

void WriteCell(util::RecordWriter& out, const CampaignCell& cell) {
  out.Line("request").Word(cell.request.ToString());
  out.Line("kernel-name").Text(cell.kernel_name);
  out.Line("reward")
      .Double(cell.reward.acc_threshold)
      .Double(cell.reward.power_threshold)
      .Double(cell.reward.time_threshold)
      .Double(cell.reward.max_reward)
      .Double(cell.reward.step_reward)
      .Double(cell.reward.step_penalty);
  WriteSummary(out, "summary-dpower", cell.solution_delta_power);
  WriteSummary(out, "summary-dtime", cell.solution_delta_time);
  WriteSummary(out, "summary-dacc", cell.solution_delta_acc);
  WriteSummary(out, "summary-steps", cell.steps);
  out.Line("aggregate")
      .Double(cell.feasible_fraction)
      .Text(cell.modal_adder)
      .Text(cell.modal_multiplier);
  out.Line("cache")
      .Word(dse::ToString(cell.cache.mode))
      .U64(cell.cache.distinct_evaluations)
      .U64(cell.cache.executed_runs)
      .U64(cell.cache.saved_runs)
      .U64(cell.cache.local_hits)
      .U64(cell.cache.shared_hits)
      .U64(cell.cache.surrogate_hits)
      .U64(cell.cache.deferred_runs);
  out.Line("runs").U64(cell.runs.size());
  for (const CampaignSeedRun& run : cell.runs) {
    out.Line("run")
        .U64(run.seed)
        .U64(run.steps)
        .Text(run.stop)
        .Double(run.cumulative_reward)
        .U64(run.episodes)
        .U64(run.kernel_runs)
        .U64(run.cache_hits)
        .U64(run.kernel_runs_executed)
        .U64(run.shared_cache_hits)
        .U64(run.surrogate_hits)
        .U64(run.kernel_runs_deferred)
        .Flag(run.feasible)
        .Double(run.objective);
    out.Line("solution").Text(run.adder).Text(run.multiplier);
    WriteMeasurement(out, run.solution_measurement);
    WriteConfigRecord(out, run.solution);
    out.Line("best").Flag(run.has_best_feasible);
    if (run.has_best_feasible) {
      WriteMeasurement(out, run.best_feasible_measurement);
      WriteConfigRecord(out, run.best_feasible);
    }
    out.Line("stages").U64(run.stage_counts.size());
    for (const workloads::StageOpCounts& stage : run.stage_counts)
      out.Line("stage")
          .Text(stage.stage)
          .U64(stage.counts.precise_adds)
          .U64(stage.counts.approx_adds)
          .U64(stage.counts.precise_muls)
          .U64(stage.counts.approx_muls);
  }
}

CampaignCell ReadCell(util::RecordReader& reader) {
  CampaignCell cell;
  cell.request =
      ExplorationRequest::Parse(std::string(reader.ExpectRest("request")));
  cell.kernel_name = reader.Expect("kernel-name", 1).Text("kernel name");
  {
    util::RecordCursor cursor = reader.Expect("reward", 6);
    cell.reward.acc_threshold = cursor.NonNan("acc_threshold");
    cell.reward.power_threshold = cursor.NonNan("power_threshold");
    cell.reward.time_threshold = cursor.NonNan("time_threshold");
    cell.reward.max_reward = cursor.NonNan("max_reward");
    cell.reward.step_reward = cursor.NonNan("step_reward");
    cell.reward.step_penalty = cursor.NonNan("step_penalty");
  }
  cell.solution_delta_power = ReadSummary(reader, "summary-dpower");
  cell.solution_delta_time = ReadSummary(reader, "summary-dtime");
  cell.solution_delta_acc = ReadSummary(reader, "summary-dacc");
  cell.steps = ReadSummary(reader, "summary-steps");
  {
    util::RecordCursor cursor = reader.Expect("aggregate", 3);
    cell.feasible_fraction = cursor.NonNan("feasible_fraction");
    cell.modal_adder = cursor.Text("modal adder");
    cell.modal_multiplier = cursor.Text("modal multiplier");
  }
  {
    util::RecordCursor cursor = reader.Expect("cache", 8);
    cell.cache.mode = CacheModeFromName(std::string(cursor.Word("cache mode")));
    cell.cache.distinct_evaluations = cursor.Size("cache distinct");
    cell.cache.executed_runs = cursor.Size("cache executed");
    cell.cache.saved_runs = cursor.Size("cache saved");
    cell.cache.local_hits = cursor.Size("cache local");
    cell.cache.shared_hits = cursor.Size("cache shared");
    cell.cache.surrogate_hits = cursor.Size("cache surrogate");
    cell.cache.deferred_runs = cursor.Size("cache deferred");
  }
  const std::size_t num_runs = reader.Expect("runs", 1).Count("runs count");
  cell.runs.reserve(num_runs);
  for (std::size_t i = 0; i < num_runs; ++i) {
    CampaignSeedRun run;
    {
      util::RecordCursor cursor = reader.Expect("run", 13);
      run.seed = cursor.U64("run seed");
      run.steps = cursor.Size("run steps");
      run.stop = cursor.Text("run stop");
      run.cumulative_reward = cursor.NonNan("run reward");
      run.episodes = cursor.Size("run episodes");
      run.kernel_runs = cursor.Size("run kernel_runs");
      run.cache_hits = cursor.Size("run cache_hits");
      run.kernel_runs_executed = cursor.Size("run kernel_runs_executed");
      run.shared_cache_hits = cursor.Size("run shared_cache_hits");
      run.surrogate_hits = cursor.Size("run surrogate_hits");
      run.kernel_runs_deferred = cursor.Size("run kernel_runs_deferred");
      run.feasible = cursor.Flag("run feasible");
      run.objective = cursor.NonNan("run objective");
    }
    {
      util::RecordCursor cursor = reader.Expect("solution");
      run.adder = cursor.Text("solution adder");
      run.multiplier = cursor.Text("solution multiplier");
      run.solution_measurement = ReadMeasurement(cursor);
      run.solution = ReadConfigRecord(cursor);
      cursor.Done("solution");
    }
    {
      util::RecordCursor cursor = reader.Expect("best");
      run.has_best_feasible = cursor.Flag("best flag");
      if (run.has_best_feasible) {
        run.best_feasible_measurement = ReadMeasurement(cursor);
        run.best_feasible = ReadConfigRecord(cursor);
      }
      cursor.Done("best");
    }
    const std::size_t num_stages =
        reader.Expect("stages", 1).Count("stages count");
    run.stage_counts.reserve(num_stages);
    for (std::size_t s = 0; s < num_stages; ++s) {
      util::RecordCursor cursor = reader.Expect("stage", 5);
      workloads::StageOpCounts stage;
      stage.stage = cursor.Text("stage name");
      stage.counts.precise_adds = cursor.U64("stage precise_adds");
      stage.counts.approx_adds = cursor.U64("stage approx_adds");
      stage.counts.precise_muls = cursor.U64("stage precise_muls");
      stage.counts.approx_muls = cursor.U64("stage approx_muls");
      run.stage_counts.push_back(std::move(stage));
    }
    cell.runs.push_back(std::move(run));
  }
  return cell;
}

}  // namespace

// --- CampaignSpec -----------------------------------------------------------

namespace {

/// a * b, or SIZE_MAX when the product overflows.
std::size_t SaturatingProduct(std::size_t a, std::size_t b) noexcept {
  std::size_t product = 0;
  if (__builtin_mul_overflow(a, b, &product))
    return std::numeric_limits<std::size_t>::max();
  return product;
}

}  // namespace

std::size_t CampaignSpec::NumCells() const noexcept {
  std::size_t cells = kernels.size();
  for (const std::size_t n :
       {agents.size(), action_spaces.size(), acc_factors.size(),
        power_factors.size(), time_factors.size(), cache_modes.size()})
    if (n != 0) cells = SaturatingProduct(cells, n);
  return cells;
}

std::size_t CampaignSpec::NumJobs() const noexcept {
  return SaturatingProduct(NumCells(), base.num_seeds);
}

std::vector<ExplorationRequest> CampaignSpec::Expand() const {
  const std::vector<AgentKind> agent_axis =
      agents.empty() ? std::vector<AgentKind>{base.agent_kind} : agents;
  const std::vector<ActionSpaceKind> space_axis =
      action_spaces.empty() ? std::vector<ActionSpaceKind>{base.action_space}
                            : action_spaces;
  const std::vector<double> acc_axis =
      acc_factors.empty() ? std::vector<double>{base.thresholds.accuracy_factor}
                          : acc_factors;
  const std::vector<double> power_axis =
      power_factors.empty() ? std::vector<double>{base.thresholds.power_factor}
                            : power_factors;
  const std::vector<double> time_axis =
      time_factors.empty() ? std::vector<double>{base.thresholds.time_factor}
                           : time_factors;
  const std::vector<CacheMode> cache_axis =
      cache_modes.empty() ? std::vector<CacheMode>{base.cache_mode}
                          : cache_modes;

  std::vector<ExplorationRequest> grid;
  grid.reserve(NumCells());
  for (const workloads::KernelSpec& kernel : kernels) {
    for (const AgentKind agent : agent_axis) {
      for (const ActionSpaceKind space : space_axis) {
        for (const double acc : acc_axis) {
          for (const double power : power_axis) {
            for (const double time : time_axis) {
              for (const CacheMode cache : cache_axis) {
                ExplorationRequest request = base;
                request.kernel_override.reset();
                request.kernel = kernel;
                // Extras in base.kernel.extra apply campaign-wide; the
                // entry's own extras win on key collisions.
                for (const auto& [key, value] : base.kernel.extra)
                  request.kernel.extra.try_emplace(key, value);
                request.agent_kind = agent;
                request.action_space = space;
                request.thresholds.accuracy_factor = acc;
                request.thresholds.power_factor = power;
                request.thresholds.time_factor = time;
                request.cache_mode = cache;
                std::string label =
                    kernel.ToString() + "/" + dse::ToString(agent);
                if (space_axis.size() > 1)
                  label += std::string("/") + dse::ToString(space);
                if (acc_axis.size() > 1) label += "/acc=" + ShortestDouble(acc);
                if (power_axis.size() > 1)
                  label += "/pow=" + ShortestDouble(power);
                if (time_axis.size() > 1)
                  label += "/time=" + ShortestDouble(time);
                if (cache_axis.size() > 1)
                  label += std::string("/") + dse::ToString(cache);
                request.label = std::move(label);
                grid.push_back(std::move(request));
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

void CampaignSpec::Validate() const {
  if (kernels.empty()) SpecError("the kernel axis is empty");
  for (const workloads::KernelSpec& kernel : kernels)
    if (kernel.name.empty()) SpecError("kernel entry has an empty name");
  // KernelSpec::ToString() is canonical: equal specs, equal strings.
  std::unordered_set<std::string> distinct_kernels;
  for (const workloads::KernelSpec& kernel : kernels)
    if (!distinct_kernels.insert(kernel.ToString()).second)
      SpecError("duplicate kernel entry '" + kernel.ToString() + "'");
  if (NumJobs() > kMaxCampaignJobs)
    SpecError("the grid holds more than " + std::to_string(kMaxCampaignJobs) +
              " explorations (cells x seeds)");
  const std::vector<ExplorationRequest> grid = Expand();
  std::unordered_set<std::string> seen;
  seen.reserve(grid.size());
  for (const ExplorationRequest& request : grid) {
    request.Validate();
    if (!seen.insert(request.ToString()).second)
      SpecError("expansion produces duplicate cell '" + request.label + "'");
  }
}

std::string CampaignSpec::ToString() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());  // locale-independent numbers
  // KernelSpec::ToString escapes everything but its own '@'/'{'/'}'/','
  // structure, so entries embed raw; the commas SplitSpecList splits on are
  // exactly the top-level entry separators written here.
  out << "kernels=";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    if (i != 0) out << ",";
    out << kernels[i].ToString();
  }
  auto write_list = [&out](const char* key, const auto& values,
                           const auto& format) {
    if (values.empty()) return;
    out << " " << key << "=";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out << ",";
      out << format(values[i]);
    }
  };
  write_list("agents", agents,
             [](AgentKind kind) { return std::string(dse::ToString(kind)); });
  write_list("action-spaces", action_spaces, [](ActionSpaceKind kind) {
    return std::string(dse::ToString(kind));
  });
  write_list("acc-factors", acc_factors, ShortestDouble);
  write_list("power-factors", power_factors, ShortestDouble);
  write_list("time-factors", time_factors, ShortestDouble);
  write_list("cache-modes", cache_modes,
             [](CacheMode mode) { return std::string(dse::ToString(mode)); });
  out << " " << base.ToString();
  return out.str();
}

CampaignSpec CampaignSpec::Parse(const std::string& text) {
  CampaignSpec spec;
  std::string base_text;
  bool saw_kernels = false;
  for (const auto& [key, value] : SplitRequestTokens(text, "CampaignSpec")) {
    const bool axis = key == "kernels" || key == "agents" ||
                      key == "action-spaces" || key == "acc-factors" ||
                      key == "power-factors" || key == "time-factors" ||
                      key == "cache-modes";
    if (!axis) {
      base_text += (base_text.empty() ? "" : " ") + key + "=" + value;
      continue;
    }
    if (value.empty()) SpecError(key + "= list is empty");
    if (key == "agents" && value == "all") {
      spec.agents = {AgentKind::kQLearning, AgentKind::kSarsa,
                     AgentKind::kExpectedSarsa, AgentKind::kDoubleQ,
                     AgentKind::kQLambda};
      continue;
    }
    for (const std::string& entry : workloads::SplitSpecList(value)) {
      if (key == "kernels") {
        workloads::KernelSpec kernel = workloads::KernelSpec::Parse(entry);
        if (kernel.name.empty())
          SpecError("kernel entry '" + entry + "' has an empty name");
        spec.kernels.push_back(std::move(kernel));
        saw_kernels = true;
      } else if (key == "agents") {
        spec.agents.push_back(AgentKindFromName(entry));
      } else if (key == "action-spaces") {
        spec.action_spaces.push_back(ActionSpaceFromName(entry));
      } else if (key == "cache-modes") {
        spec.cache_modes.push_back(CacheModeFromName(entry));
      } else {
        std::vector<double>& factors = key == "acc-factors" ? spec.acc_factors
                                       : key == "power-factors"
                                           ? spec.power_factors
                                           : spec.time_factors;
        factors.push_back(ParseDoubleToken(entry, "CampaignSpec factor"));
      }
    }
  }
  if (!saw_kernels) SpecError("missing required kernels= axis");
  spec.base = ExplorationRequest::Parse(base_text);
  return spec;
}

bool operator==(const CampaignSpec& a, const CampaignSpec& b) {
  return a.ToString() == b.ToString();
}

bool operator!=(const CampaignSpec& a, const CampaignSpec& b) {
  return !(a == b);
}

// --- CampaignAggregator -----------------------------------------------------

CampaignCell CampaignAggregator::Reduce(const RequestResult& result) {
  CampaignCell cell;
  cell.request = result.request;
  // The kernel instance is not serializable; campaigns never set it.
  cell.request.kernel_override.reset();
  cell.kernel_name = result.kernel_name;
  cell.reward = result.reward;
  cell.solution_delta_power = result.solution_delta_power;
  cell.solution_delta_time = result.solution_delta_time;
  cell.solution_delta_acc = result.solution_delta_acc;
  cell.steps = result.steps;
  cell.feasible_fraction = result.feasible_fraction;
  cell.modal_adder = result.ModalAdder();
  cell.modal_multiplier = result.ModalMultiplier();
  cell.cache = result.cache;
  cell.runs.reserve(result.runs.size());
  for (std::size_t s = 0; s < result.runs.size(); ++s) {
    const ExplorationResult& run = result.runs[s];
    CampaignSeedRun reduced;
    reduced.seed = result.request.seed + s;
    reduced.steps = run.steps;
    reduced.stop = rl::ToString(run.stop_reason);
    reduced.cumulative_reward = run.cumulative_reward;
    reduced.episodes = run.episodes;
    reduced.kernel_runs = run.kernel_runs;
    reduced.cache_hits = run.cache_hits;
    reduced.kernel_runs_executed = run.kernel_runs_executed;
    reduced.shared_cache_hits = run.shared_cache_hits;
    reduced.surrogate_hits = run.surrogate_hits;
    reduced.kernel_runs_deferred = run.kernel_runs_deferred;
    reduced.solution = run.solution;
    reduced.solution_measurement = run.solution_measurement;
    reduced.adder = run.solution_adder;
    reduced.multiplier = run.solution_multiplier;
    reduced.feasible =
        run.solution_measurement.delta_acc <= result.reward.acc_threshold;
    reduced.has_best_feasible = run.has_best_feasible;
    if (run.has_best_feasible) {
      reduced.best_feasible = run.best_feasible;
      reduced.best_feasible_measurement = run.best_feasible_measurement;
    }
    reduced.stage_counts = run.stage_counts;
    reduced.objective = BaselineObjective(
        result.reward, run.has_best_feasible ? run.best_feasible_measurement
                                             : run.solution_measurement);
    cell.runs.push_back(std::move(reduced));
  }
  return cell;
}

void CampaignAggregator::Add(const RequestResult& result) {
  Add(Reduce(result));
}

void CampaignAggregator::Add(CampaignCell cell) {
  const auto [front_it, front_new] =
      front_index_.try_emplace(cell.kernel_name, fronts_.size());
  if (front_new) fronts_.push_back({cell.kernel_name, {}});
  IncrementalParetoFront& front = fronts_[front_it->second].front;

  const auto [best_it, best_new] =
      best_index_.try_emplace(cell.kernel_name, best_.size());
  if (best_new) {
    CampaignBest initial;
    initial.kernel = cell.kernel_name;
    initial.objective = -std::numeric_limits<double>::infinity();
    best_.push_back(std::move(initial));
  }
  CampaignBest& best = best_[best_it->second];

  const std::string cell_label = cell.request.DisplayName();
  for (const CampaignSeedRun& run : cell.runs) {
    const std::string tag = cell_label + "#" + std::to_string(run.seed);
    front.Insert({run.solution, run.solution_measurement, tag});
    if (run.has_best_feasible)
      front.Insert(
          {run.best_feasible, run.best_feasible_measurement, tag + "/best"});

    const bool candidate_feasible = run.has_best_feasible;
    if ((candidate_feasible && !best.feasible) ||
        (candidate_feasible == best.feasible &&
         run.objective > best.objective)) {
      best.cell = cell_label;
      best.agent = dse::ToString(cell.request.agent_kind);
      best.seed = run.seed;
      best.objective = run.objective;
      best.feasible = candidate_feasible;
      best.config = candidate_feasible ? run.best_feasible : run.solution;
      best.measurement = candidate_feasible ? run.best_feasible_measurement
                                            : run.solution_measurement;
    }
  }
  cells_.push_back(std::move(cell));
}

// --- CampaignResult ---------------------------------------------------------

std::size_t CampaignResult::TotalRuns() const noexcept {
  std::size_t total = 0;
  for (const CampaignCell& cell : cells) total += cell.runs.size();
  return total;
}

std::size_t CampaignResult::TotalSteps() const noexcept {
  std::size_t total = 0;
  for (const CampaignCell& cell : cells)
    for (const CampaignSeedRun& run : cell.runs) total += run.steps;
  return total;
}

// --- CampaignChunkCheckpoint ------------------------------------------------

std::string CampaignChunkCheckpoint::Serialize() const {
  util::RecordWriter out("campaign-chunk", kFormatVersion);
  out.Line("spec-hash").Hex64(spec_hash);
  out.Line("chunk").U64(chunk_index).U64(first_cell).U64(cells.size());
  for (const CampaignCell& cell : cells) WriteCell(out, cell);
  return out.End();
}

CampaignChunkCheckpoint CampaignChunkCheckpoint::Deserialize(
    const std::string& text) {
  return util::ParseRecords<CheckpointError>(
      text, "CampaignChunkCheckpoint", [](util::RecordReader& reader) {
        reader.ExpectHeader("campaign-chunk", kFormatVersion);
        CampaignChunkCheckpoint checkpoint;
        checkpoint.spec_hash = reader.Expect("spec-hash", 1).Hex64("spec hash");
        util::RecordCursor chunk = reader.Expect("chunk", 3);
        checkpoint.chunk_index = chunk.Size("chunk index");
        checkpoint.first_cell = chunk.Size("chunk first cell");
        const std::size_t num_cells = chunk.Count("chunk cell count");
        checkpoint.cells.reserve(num_cells);
        for (std::size_t i = 0; i < num_cells; ++i)
          checkpoint.cells.push_back(ReadCell(reader));
        reader.ExpectEnd();
        return checkpoint;
      });
}

void CampaignChunkCheckpoint::Save(const std::string& path) const {
  AtomicWriteCheckpointFile(path, Serialize(), "CampaignChunkCheckpoint::Save");
}

CampaignSlice RunCampaignSlice(const Engine& engine,
                               const std::vector<ExplorationRequest>& slice,
                               const CheckpointOptions& checkpoint,
                               const RunHooks& hooks) {
  const BatchResult batch = engine.Run(slice, checkpoint, hooks);
  CampaignSlice run;
  run.unfinished_jobs = batch.unfinished_jobs;
  if (!batch.Complete()) return run;
  run.cells.reserve(batch.results.size());
  for (const RequestResult& result : batch.results)
    run.cells.push_back(CampaignAggregator::Reduce(result));
  return run;
}

// --- Campaign ---------------------------------------------------------------

CampaignResult Campaign::Run(const CampaignSpec& spec,
                             const CampaignOptions& options,
                             const CampaignObserver& observer) const {
  const ChunkPlan plan(spec, options.chunk_cells);
  const std::string& directory = options.checkpoint_directory;
  if (directory.empty() && options.step_budget != 0)
    throw std::invalid_argument(
        "Campaign: step_budget requires a checkpoint_directory (a "
        "suspended campaign must have somewhere to resume from)");

  CampaignResult result;
  result.spec = spec;
  result.num_cells = plan.grid.size();
  CampaignAggregator aggregator;
  std::size_t folded = 0;  // chunks folded so far, in grid order
  const auto fold = [&](std::vector<CampaignCell> cells, bool resumed) {
    if (resumed) result.resumed_cells += cells.size();
    for (CampaignCell& cell : cells) aggregator.Add(std::move(cell));
    if (observer.on_chunk)
      observer.on_chunk(CampaignChunkProgress{
          folded, aggregator.Cells().size(), plan.grid.size(), resumed,
          aggregator.Fronts(), aggregator.Best()});
    ++folded;
  };

  if (directory.empty()) {
    // In memory: nothing persists, so nothing resumes.
    for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
      if (options.max_chunks != 0 && chunk >= options.max_chunks) break;
      CampaignSlice run = RunCampaignSlice(*engine_, plan.Slice(chunk),
                                           CheckpointOptions{},
                                           observer.engine);
      result.unfinished_jobs = run.unfinished_jobs;
      if (run.unfinished_jobs != 0) break;
      fold(std::move(run.cells), false);
    }
  } else {
    // The directory is a shard state directory worked by one in-process
    // worker. Its chunks arrive in grid order unless a peer worker shares
    // the directory; those are held back until the gap before them fills.
    ShardOptions shard;
    shard.state_directory = directory;
    shard.worker_id = "campaign";
    shard.checkpoint_interval = options.checkpoint_interval;
    shard.max_chunks = options.max_chunks;
    ChunkLoopControl control;
    control.hooks = observer.engine;
    control.step_budget = options.step_budget;
    std::map<std::size_t, std::pair<std::vector<CampaignCell>, bool>> early;
    control.on_result = [&](CampaignChunkCheckpoint done, bool resumed) {
      early.emplace(done.chunk_index,
                    std::make_pair(std::move(done.cells), resumed));
      for (auto it = early.find(folded); it != early.end();
           it = early.find(folded)) {
        fold(std::move(it->second.first), it->second.second);
        early.erase(it);
      }
    };
    result.unfinished_jobs =
        RunChunkLoop(*engine_, plan, shard, control).unfinished_jobs;
  }
  result.cells = aggregator.Cells();
  result.pending_cells = plan.grid.size() - result.cells.size();
  result.fronts = aggregator.Fronts();
  result.best = aggregator.Best();

  if (!directory.empty() && result.Complete()) {
    // Best-effort: a leftover file only costs a check on the next run. The
    // manifest goes first: a peer worker that then finds a result gone
    // also finds the manifest gone and stops instead of recomputing.
    namespace fs = std::filesystem;
    const fs::path dir(directory);
    std::error_code ec;
    fs::remove(dir / ShardManifestFileName(), ec);
    for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
      fs::remove(dir / ShardChunkResultFileName(chunk), ec);
      fs::remove(dir / ShardLeaseFileName(chunk), ec);
    }
  }
  return result;
}

}  // namespace axdse::dse
