// The traced run: per-layer numbers, timed from outside the library.
//
// Layers are timed in two ways, both through public interfaces only:
//  * decorators over the virtual interfaces — TimedKernel (a
//    workloads::Kernel handed to the engine through kernel_override or to an
//    Evaluator), TimedAgent (rl::Agent) and TimedEnv (rl::Env over an
//    AxDseEnvironment, driven by rl::RunEpisode) — which record spans;
//  * direct calls into the instrument, energy, dse and serve APIs, replaying
//    the configuration streams the traced episodes recorded.
// Spans stay in memory and are written by WriteTrace() when the run ends.
// trace.overhead_frac times the same decorators against undecorated runs.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "dse/shard.hpp"
#include "instrument/evaluation_cache.hpp"
#include "rl/trainer.hpp"

namespace axbench {

namespace fs = std::filesystem;
using namespace axdse;

namespace {

std::int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// --- spans ---------------------------------------------------------------------

/// In-memory span store: name, start, end, the span that caused it, and the
/// trace (one traced episode) it belongs to. Single-threaded by design —
/// only the RL probe records spans; multi-threaded engine runs use the
/// decorators' atomic totals instead. Spans past the cap are counted, not
/// stored, so a long probe cannot exhaust memory.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  struct Span {
    std::uint32_t layer = 0;
    std::uint32_t parent = 0;  ///< span id + 1; 0 = root
    std::uint32_t trace = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::uint32_t Layer(const std::string& name) {
    const auto it = layer_ids_.find(name);
    if (it != layer_ids_.end()) return it->second;
    layers_.push_back(name);
    return layer_ids_[name] = static_cast<std::uint32_t>(layers_.size() - 1);
  }

  void BeginTrace() { ++trace_; }

  /// Drops every span; layer names stay registered.
  void Clear() {
    spans_.clear();
    current_ = 0;
    trace_ = 0;
    dropped_ = 0;
  }

  /// Opens a span under the currently open one; returns its handle (0 when
  /// the store is full).
  std::uint32_t Open(std::uint32_t layer) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(
        Span{layer, current_, trace_, NsBetween(epoch_, Clock::now()), 0});
    current_ = static_cast<std::uint32_t>(spans_.size());
    return current_;
  }

  void Close(std::uint32_t handle) {
    if (handle == 0) return;
    Span& span = spans_[handle - 1];
    span.end_ns = NsBetween(epoch_, Clock::now());
    current_ = span.parent;
  }

  void Write(std::ostream& out) const {
    out << "\"spans_dropped\":" << dropped_ << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"id\":" << i + 1 << ",\"name\":\""
          << layers_[s.layer] << "\",\"parent\":" << s.parent
          << ",\"trace\":" << s.trace << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "]";
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> layers_;
  std::map<std::string, std::uint32_t> layer_ids_;
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
  std::uint32_t trace_ = 0;
  std::size_t dropped_ = 0;
};

SpanLog g_spans;

/// Keeps timed loops from being optimized away.
std::atomic<std::uint64_t> g_sink{0};

// --- decorators ------------------------------------------------------------------

/// Times Run() of any kernel. Totals are atomic, so one
/// instance may serve every engine worker; spans are recorded only when
/// `spans` is set (single-threaded callers).
class TimedKernel final : public workloads::Kernel {
 public:
  TimedKernel(std::shared_ptr<const workloads::Kernel> inner, bool spans)
      : inner_(std::move(inner)),
        span_layer_(spans ? g_spans.Layer("kernel.run") : kNoSpans) {}

  const std::string& Name() const noexcept override { return inner_->Name(); }
  const axc::OperatorSet& Operators() const noexcept override {
    return inner_->Operators();
  }
  const std::vector<workloads::VariableInfo>& Variables()
      const noexcept override {
    return inner_->Variables();
  }
  std::vector<double> Run(instrument::ApproxContext& ctx) const override {
    const std::uint32_t span =
        span_layer_ == kNoSpans ? 0 : g_spans.Open(span_layer_);
    const auto start = Clock::now();
    std::vector<double> out = inner_->Run(ctx);
    run_ns_ += static_cast<std::uint64_t>(NsBetween(start, Clock::now()));
    ++runs_;
    g_spans.Close(span);
    return out;
  }
  bool SupportsLanes() const noexcept override {
    return inner_->SupportsLanes();
  }
  std::vector<double> RunLanes(
      instrument::MultiApproxContext& ctx) const override {
    return inner_->RunLanes(ctx);
  }
  // Forwarded untimed: pipelines score with their own metric, and the
  // stream probe times this call directly.
  double AccuracyError(std::span<const double> precise,
                       std::span<const double> approx) const override {
    return inner_->AccuracyError(precise, approx);
  }
  std::vector<workloads::StageOpCounts> StageCounts(
      const instrument::ApproxSelection& selection) const override {
    return inner_->StageCounts(selection);
  }

  double RunNs() const { return static_cast<double>(run_ns_.load()); }
  double Runs() const { return static_cast<double>(runs_.load()); }

 private:
  static constexpr std::uint32_t kNoSpans = ~0u;
  std::shared_ptr<const workloads::Kernel> inner_;
  std::uint32_t span_layer_;
  mutable std::atomic<std::uint64_t> run_ns_{0};
  mutable std::atomic<std::uint64_t> runs_{0};
};

/// Times SelectAction() and Observe() of any agent.
class TimedAgent final : public rl::Agent {
 public:
  explicit TimedAgent(std::unique_ptr<rl::Agent> inner)
      : inner_(std::move(inner)),
        select_layer_(g_spans.Layer("agent.select")),
        observe_layer_(g_spans.Layer("agent.observe")) {}

  std::size_t SelectAction(rl::StateId state) override {
    const std::uint32_t span = g_spans.Open(select_layer_);
    const auto start = Clock::now();
    const std::size_t action = inner_->SelectAction(state);
    select_ns += static_cast<double>(NsBetween(start, Clock::now()));
    g_spans.Close(span);
    ++selects;
    return action;
  }
  void Observe(rl::StateId state, std::size_t action, double reward,
               rl::StateId next_state, bool terminated) override {
    const std::uint32_t span = g_spans.Open(observe_layer_);
    const auto start = Clock::now();
    inner_->Observe(state, action, reward, next_state, terminated);
    observe_ns += static_cast<double>(NsBetween(start, Clock::now()));
    g_spans.Close(span);
    ++observes;
  }
  const rl::QTable& Table() const noexcept override { return inner_->Table(); }
  std::string Name() const override { return inner_->Name(); }
  void BeginEpisode() override { inner_->BeginEpisode(); }
  void SaveState(std::ostream& out) const override { inner_->SaveState(out); }
  void LoadState(std::istream& in) override { inner_->LoadState(in); }

  double select_ns = 0.0;
  double observe_ns = 0.0;
  double selects = 0.0;
  double observes = 0.0;

 private:
  std::unique_ptr<rl::Agent> inner_;
  std::uint32_t select_layer_;
  std::uint32_t observe_layer_;
};

/// Times Step() of an AxDseEnvironment and records the configuration
/// stream it evaluates (outside the timed window).
class TimedEnv final : public rl::Env {
 public:
  explicit TimedEnv(dse::AxDseEnvironment& inner)
      : inner_(inner), step_layer_(g_spans.Layer("env.step")) {}

  rl::StateId Reset(std::uint64_t seed) override {
    const rl::StateId state = inner_.Reset(seed);
    stream.push_back(inner_.CurrentConfig());
    return state;
  }
  rl::StepResult Step(std::size_t action) override {
    const std::uint32_t span = g_spans.Open(step_layer_);
    const auto start = Clock::now();
    const rl::StepResult result = inner_.Step(action);
    step_ns += static_cast<double>(NsBetween(start, Clock::now()));
    g_spans.Close(span);
    stream.push_back(inner_.CurrentConfig());
    return result;
  }
  std::size_t NumActions() const noexcept override {
    return inner_.NumActions();
  }

  double step_ns = 0.0;
  /// Every configuration the evaluator saw after construction: the reset
  /// configuration, then one per step.
  std::vector<dse::Configuration> stream;

 private:
  dse::AxDseEnvironment& inner_;
  std::uint32_t step_layer_;
};

// --- helpers -----------------------------------------------------------------------

bool SameMeasurement(const instrument::Measurement& a,
                     const instrument::Measurement& b) {
  return a.delta_acc == b.delta_acc && a.delta_power_mw == b.delta_power_mw &&
         a.delta_time_ns == b.delta_time_ns &&
         a.approx_power_mw == b.approx_power_mw &&
         a.approx_time_ns == b.approx_time_ns && a.counts == b.counts;
}

/// Median over `reps` of the per-item time of one pass of `pass`, which
/// processes `items` items.
template <typename Pass>
double NsPerItem(std::size_t items, int reps, Pass pass) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    pass();
    samples.push_back(static_cast<double>(NsBetween(start, Clock::now())) /
                      static_cast<double>(std::max<std::size_t>(1, items)));
  }
  return Median(samples);
}

std::vector<dse::Configuration> Distinct(
    const std::vector<dse::Configuration>& stream) {
  std::vector<dse::Configuration> distinct;
  std::unordered_map<dse::Configuration, bool, dse::Configuration::Hash> seen;
  for (const dse::Configuration& config : stream)
    if (seen.emplace(config, true).second) distinct.push_back(config);
  return distinct;
}

/// Base configuration plus its single-coordinate neighbours, then a few
/// random moves — the sibling streams the lane tier is designed for.
std::vector<dse::Configuration> FanStream(const dse::SpaceShape& shape,
                                          std::size_t size,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dse::Configuration> stream;
  dse::Configuration base = dse::RandomConfiguration(shape, rng);
  const std::size_t coords = 2 + shape.num_variables;
  while (stream.size() < size) {
    stream.push_back(base);
    for (std::size_t k = 0; k + 1 < instrument::MultiApproxContext::kMaxLanes &&
                            stream.size() < size;
         ++k) {
      dse::Configuration neighbour = base;
      const std::size_t coord = rng.UniformBelow(coords);
      if (coord == 0) {
        neighbour.SetAdderIndex((neighbour.AdderIndex() + 1) %
                                shape.num_adders);
      } else if (coord == 1) {
        neighbour.SetMultiplierIndex((neighbour.MultiplierIndex() + 1) %
                                     shape.num_multipliers);
      } else {
        neighbour.ToggleVariable(coord - 2);
      }
      stream.push_back(neighbour);
    }
    for (int move = 0; move < 3; ++move)
      dse::RandomNeighborMove(base, shape, rng);
  }
  return stream;
}

std::vector<dse::Configuration> RandomStream(const dse::SpaceShape& shape,
                                             std::size_t size,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<dse::Configuration> stream;
  for (std::size_t i = 0; i < size; ++i)
    stream.push_back(dse::RandomConfiguration(shape, rng));
  return stream;
}

// --- probes -------------------------------------------------------------------------

/// The explore batch through the engine with TimedKernel (atomic totals, no
/// spans) handed in through kernel_override: the kernel's share of a step.
/// One undecorated run checks that the decorator changes no result.
void ExploreProbe(const Mix& mix, const Prepared& prepared, double budget,
                  Report& report) {
  std::vector<std::shared_ptr<const TimedKernel>> timed;
  std::vector<std::shared_ptr<const workloads::Kernel>> timed_base;
  for (const auto& kernel : prepared.kernels) {
    timed.push_back(std::make_shared<TimedKernel>(kernel, false));
    timed_base.push_back(timed.back());
  }
  const auto traced_requests = ExploreRequests(mix, timed_base);
  const dse::Engine engine(dse::EngineOptions{1});
  const dse::BatchResult plain =
      engine.Run(ExploreRequests(mix, prepared.kernels));
  report.Attempt(plain.TotalRuns());
  const std::string expected = CostMasked(mix, report::BatchJson(plain));
  double traced_wall_ns = 0.0;
  std::size_t runs = 0;
  const auto start = Clock::now();
  while (runs < 2 || SecondsSince(start) < budget) {
    const auto t0 = Clock::now();
    const dse::BatchResult traced = engine.Run(traced_requests);
    traced_wall_ns += SecondsSince(t0) * 1e9;
    ++runs;
    report.Attempt(traced.TotalRuns() - 1);
    report.Check(CostMasked(mix, report::BatchJson(traced)) == expected,
                 "trace: a traced explore run changed its results");
  }
  double kernel_ns = 0.0;
  for (const auto& kernel : timed) kernel_ns += kernel->RunNs();
  report.AddValue("explore.kernel_share", "frac", kernel_ns / traced_wall_ns,
                  runs);
}

/// One Q-learning episode on mix kernel `k` through rl::RunEpisode, either
/// undecorated or with the RL probe's decorators recording spans. Adds the
/// episode's wall time to *seconds.
rl::TrainResult QEpisode(const Mix& mix, const Prepared& prepared,
                         std::size_t k, bool traced, double* seconds) {
  dse::ExplorationRequest request;
  request.agent_kind = dse::AgentKind::kQLearning;
  request.max_steps = mix.steps;
  request.seed = mix.agent_seed;
  const dse::ExplorerConfig config = request.ToExplorerConfig();
  const std::shared_ptr<const workloads::Kernel> kernel =
      traced ? std::make_shared<TimedKernel>(prepared.kernels[k], true)
             : prepared.kernels[k];
  dse::Evaluator evaluator(*kernel);
  dse::AxDseEnvironment env(evaluator, dse::MakePaperRewardConfig(evaluator));
  std::unique_ptr<rl::Agent> agent =
      dse::MakeAgent(request.agent_kind, env.NumActions(), config.agent,
                     config.lambda, mix.agent_seed + k);
  rl::TrainOptions train;
  train.max_steps = mix.steps;
  train.stop_at_cumulative_reward = mix.reward_cap;
  rl::TrainResult result;
  const auto start = Clock::now();
  if (traced) {
    TimedEnv timed_env(env);
    TimedAgent timed_agent(std::move(agent));
    g_spans.BeginTrace();
    result = rl::RunEpisode(timed_env, timed_agent, train, mix.agent_seed);
  } else {
    result = rl::RunEpisode(env, *agent, train, mix.agent_seed);
  }
  *seconds += SecondsSince(start);
  return result;
}

/// The traced run's overhead: Q-learning episodes on every mix kernel,
/// undecorated and with the decorators and span recording of the RL probe,
/// alternated (which arm goes first flips every pass). Each pass gives
/// 1 - traced/untraced steps/s; both arms must end the same way. The spans
/// recorded here are dropped after each episode.
void OverheadProbe(const Mix& mix, const Prepared& prepared, double budget,
                   Report& report) {
  std::vector<double> overhead;
  const auto start = Clock::now();
  while (overhead.size() < 3 || SecondsSince(start) < budget) {
    double seconds[2] = {0.0, 0.0};
    const bool traced_first = overhead.size() % 2 == 1;
    for (std::size_t k = 0; k < prepared.kernels.size(); ++k) {
      rl::TrainResult results[2];
      for (const bool traced : {traced_first, !traced_first}) {
        results[traced] = QEpisode(mix, prepared, k, traced, &seconds[traced]);
        g_spans.Clear();
      }
      report.Attempt(results[0].steps + results[1].steps - 1);
      report.Check(results[0].steps == results[1].steps &&
                       results[0].cumulative_reward ==
                           results[1].cumulative_reward,
                   "trace: a traced episode changed its result");
    }
    overhead.push_back(1.0 - seconds[0] / seconds[1]);
  }
  report.AddSamples("trace.overhead_frac", "frac", std::move(overhead));
}

/// What the RL probe leaves for the stream probes: per mix kernel, the
/// Q-learning episode's configuration stream and its measurements.
struct Recorded {
  std::shared_ptr<const workloads::Kernel> kernel;
  dse::RewardConfig reward;
  std::vector<dse::Configuration> stream;
  std::vector<instrument::Measurement> measurements;
};

/// Every agent on every mix kernel through rl::RunEpisode with the agent,
/// environment and kernel decorators; the Q-learning streams are replayed
/// through a fresh Evaluator to split a step into evaluator and the rest.
std::vector<Recorded> RlProbe(const Mix& mix, const Prepared& prepared,
                              Report& report) {
  static const dse::AgentKind kAgents[] = {
      dse::AgentKind::kQLearning, dse::AgentKind::kSarsa,
      dse::AgentKind::kExpectedSarsa, dse::AgentKind::kDoubleQ,
      dse::AgentKind::kQLambda};
  std::vector<Recorded> recorded;
  double hits = 0.0;
  double evaluations = 0.0;
  double step_ns = 0.0;
  double replay_ns = 0.0;
  double replayed_steps = 0.0;
  double miss_ns = 0.0;
  double misses = 0.0;
  for (dse::AgentKind kind : kAgents) {
    double select_ns = 0.0, selects = 0.0, observe_ns = 0.0, observes = 0.0;
    for (std::size_t k = 0; k < prepared.kernels.size(); ++k) {
      dse::ExplorationRequest request;
      request.agent_kind = kind;
      request.max_steps = mix.steps;
      request.seed = mix.agent_seed;
      const dse::ExplorerConfig config = request.ToExplorerConfig();
      const auto kernel =
          std::make_shared<TimedKernel>(prepared.kernels[k], true);
      dse::Evaluator evaluator(*kernel);
      const dse::RewardConfig reward = dse::MakePaperRewardConfig(evaluator);
      dse::AxDseEnvironment env(evaluator, reward);
      TimedEnv timed_env(env);
      TimedAgent agent(dse::MakeAgent(kind, env.NumActions(), config.agent,
                                      config.lambda, mix.agent_seed + k));
      rl::TrainOptions train;
      train.max_steps = mix.steps;
      train.stop_at_cumulative_reward = mix.reward_cap;
      g_spans.BeginTrace();
      const rl::TrainResult result =
          rl::RunEpisode(timed_env, agent, train, mix.agent_seed);
      report.Attempt(result.steps);
      select_ns += agent.select_ns;
      selects += agent.selects;
      observe_ns += agent.observe_ns;
      observes += agent.observes;
      hits += static_cast<double>(evaluator.CacheHits());
      evaluations += static_cast<double>(timed_env.stream.size() + 1);
      if (kind != dse::AgentKind::kQLearning) continue;

      // Replay: the same Evaluate() sequence on a fresh evaluator, through
      // the same span-recording kernel decorator so its cost cancels. The
      // constructor and reset evaluations are not steps.
      Recorded rec{prepared.kernels[k], reward, timed_env.stream, {}};
      {
        g_spans.BeginTrace();
        dse::Evaluator replay(*kernel);
        replay.Evaluate(rec.stream.front());
        const auto start = Clock::now();
        for (std::size_t i = 1; i < rec.stream.size(); ++i)
          g_sink += static_cast<std::uint64_t>(
              replay.Evaluate(rec.stream[i]).counts.TotalAdds());
        replay_ns += static_cast<double>(NsBetween(start, Clock::now()));
      }
      {
        dse::Evaluator replay(*prepared.kernels[k]);
        for (const dse::Configuration& config : rec.stream) {
          const std::size_t runs = replay.KernelRuns();
          const auto start = Clock::now();
          rec.measurements.push_back(replay.Evaluate(config));
          const double ns = static_cast<double>(NsBetween(start, Clock::now()));
          if (replay.KernelRuns() != runs) {
            miss_ns += ns;
            ++misses;
          }
        }
      }
      step_ns += timed_env.step_ns;
      replayed_steps += static_cast<double>(result.steps);
      recorded.push_back(std::move(rec));
    }
    const std::string name = dse::ToString(kind);
    report.AddValue("rl." + name + ".select_ns", "ns", select_ns / selects,
                    static_cast<std::size_t>(selects));
    report.AddValue("rl." + name + ".observe_ns", "ns", observe_ns / observes,
                    static_cast<std::size_t>(observes));
  }
  report.AddValue("env.step_self_ns", "ns",
                  (step_ns - replay_ns) / replayed_steps,
                  static_cast<std::size_t>(replayed_steps));
  report.AddValue("evaluator.hit_ratio", "frac", hits / evaluations,
                  static_cast<std::size_t>(evaluations));
  report.AddValue("evaluator.miss_ns", "ns", miss_ns / misses,
                  static_cast<std::size_t>(misses));
  return recorded;
}

/// Direct calls on the recorded streams: reward, hashing, private and
/// shared cache, context configuration, error metric and energy model.
void StreamProbe(const std::vector<Recorded>& recorded, Report& report) {
  std::vector<double> reward_ns, hash_ns, lookup_ns, insert_ns, fetch_ns,
      configure_ns, error_ns, energy_ns;
  constexpr int kReps = 5;
  for (const Recorded& rec : recorded) {
    const auto& stream = rec.stream;
    const auto& measured = rec.measurements;
    const dse::Evaluator shape_source(*rec.kernel);
    const dse::SpaceShape shape = shape_source.Shape();
    reward_ns.push_back(NsPerItem(stream.size(), kReps, [&] {
      for (std::size_t i = 0; i < stream.size(); ++i)
        g_sink += dse::ComputeReward(rec.reward, stream[i], measured[i], shape)
                      .saturated;
    }));
    hash_ns.push_back(NsPerItem(stream.size(), kReps, [&] {
      const instrument::ApproxSelection::Hash hash;
      for (const dse::Configuration& config : stream) g_sink += hash(config);
    }));
    std::vector<dse::Configuration> distinct;
    std::vector<instrument::Measurement> distinct_measured;
    {
      std::unordered_set<dse::Configuration, dse::Configuration::Hash> seen;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (!seen.insert(stream[i]).second) continue;
        distinct.push_back(stream[i]);
        distinct_measured.push_back(measured[i]);
      }
    }
    instrument::EvaluationCache cache;
    insert_ns.push_back(NsPerItem(distinct.size(), kReps, [&] {
      cache.Clear();
      for (std::size_t i = 0; i < distinct.size(); ++i)
        cache.Insert(distinct[i], distinct_measured[i]);
    }));
    lookup_ns.push_back(NsPerItem(stream.size(), kReps, [&] {
      for (const dse::Configuration& config : stream)
        g_sink += cache.Lookup(config).has_value();
    }));
    instrument::SharedEvaluationCache shared;
    for (std::size_t i = 0; i < distinct.size(); ++i)
      shared.Insert(distinct[i], distinct_measured[i]);
    fetch_ns.push_back(NsPerItem(stream.size(), kReps, [&] {
      for (const dse::Configuration& config : stream)
        g_sink += shared
                      .FetchOrCompute(config,
                                      [] { return instrument::Measurement{}; })
                      .counts.TotalAdds();
    }));

    instrument::ApproxContext ctx = rec.kernel->MakeContext();
    configure_ns.push_back(NsPerItem(distinct.size(), kReps, [&] {
      for (const dse::Configuration& config : distinct) ctx.Configure(config);
    }));
    const auto& precise = shape_source.PreciseOutputs();
    std::vector<std::vector<double>> outputs;
    const std::size_t sample = std::min<std::size_t>(distinct.size(), 256);
    for (std::size_t i = 0; i < sample; ++i) {
      ctx.Configure(distinct[i]);
      outputs.push_back(rec.kernel->Run(ctx));
    }
    error_ns.push_back(NsPerItem(sample, kReps, [&] {
      double sum = 0.0;
      for (const auto& out : outputs)
        sum += rec.kernel->AccuracyError(precise, out);
      g_sink += static_cast<std::uint64_t>(sum);
    }));
    const energy::EnergyModel model(rec.kernel->Operators());
    energy_ns.push_back(NsPerItem(distinct.size(), kReps, [&] {
      double sum = 0.0;
      for (std::size_t i = 0; i < distinct.size(); ++i)
        sum += model
                   .Cost(distinct_measured[i].counts, distinct[i].AdderIndex(),
                         distinct[i].MultiplierIndex())
                   .power_mw;
      g_sink += static_cast<std::uint64_t>(sum);
    }));
  }
  report.AddSamples("reward.compute_ns", "ns", reward_ns);
  report.AddSamples("selection.hash_ns", "ns", hash_ns);
  report.AddSamples("cache.lookup_ns", "ns", lookup_ns);
  report.AddSamples("cache.insert_ns", "ns", insert_ns);
  report.AddSamples("shared_cache.fetch_ns", "ns", fetch_ns);
  report.AddSamples("context.configure_ns", "ns", configure_ns);
  report.AddSamples("metrics.accuracy_error_ns", "ns", error_ns);
  report.AddSamples("energy.cost_ns", "ns", energy_ns);
}

/// Every registered kernel: TimedKernel run time on a configuration stream
/// (the recorded one for mix kernels), and MultiEvaluate against Evaluate
/// on sibling-fan and random streams, whose measurements must agree.
void KernelAndLaneProbe(const Mix& mix, const std::vector<Recorded>& recorded,
                        double budget, Report& report) {
  const auto& registry = workloads::KernelRegistry::Global();
  const std::vector<std::string> names = registry.Names();
  const double per_kernel = budget / static_cast<double>(names.size());
  for (const std::string& name : names) {
    std::shared_ptr<const workloads::Kernel> kernel;
    const std::vector<dse::Configuration>* recorded_stream = nullptr;
    for (std::size_t k = 0; k < mix.kernels.size(); ++k) {
      if (mix.kernels[k].name == name && k < recorded.size()) {
        kernel = recorded[k].kernel;
        recorded_stream = &recorded[k].stream;
        break;
      }
    }
    if (!kernel)
      kernel = registry.Create(workloads::KernelSpec(name), mix.kernel_seed);
    const dse::Evaluator shape_source(*kernel);
    const dse::SpaceShape shape = shape_source.Shape();
    const std::uint64_t seed = mix.stream_seed ^ std::hash<std::string>{}(name);

    // Run time: distinct configurations, until this kernel's share is spent.
    const std::vector<dse::Configuration> stream =
        recorded_stream ? Distinct(*recorded_stream)
                        : RandomStream(shape, 4096, seed);
    const TimedKernel timed(kernel, false);
    instrument::ApproxContext ctx = timed.MakeContext();
    const auto start = Clock::now();
    for (std::size_t i = 0;
         i < 16 || (SecondsSince(start) < 0.5 * per_kernel && i < 4096); ++i) {
      ctx.Configure(stream[i % stream.size()]);
      ctx.ResetCounts();
      g_sink += timed.Run(ctx).size();
    }
    report.AddValue("kernel." + name + ".run_ns", "ns",
                    timed.RunNs() / timed.Runs(),
                    static_cast<std::size_t>(timed.Runs()));

    // Lanes: interleaved best-of-3 per arm on fresh evaluators.
    const double run_s = timed.RunNs() / timed.Runs() * 1e-9;
    const std::size_t configs = std::clamp<std::size_t>(
        static_cast<std::size_t>(0.04 * per_kernel / std::max(run_s, 1e-9)) /
            8 * 8,
        32, 512);
    for (int kind = 0; kind < 2; ++kind) {
      const auto lanes_stream = kind == 0 ? FanStream(shape, configs, seed)
                                          : RandomStream(shape, configs, seed);
      double scalar_s = 1e100;
      double lane_s = 1e100;
      std::vector<instrument::Measurement> scalar, lane;
      for (int rep = 0; rep < 3; ++rep) {
        {
          dse::Evaluator evaluator(*kernel);
          scalar.clear();
          const auto t0 = Clock::now();
          for (const dse::Configuration& config : lanes_stream)
            scalar.push_back(evaluator.Evaluate(config));
          scalar_s = std::min(scalar_s, SecondsSince(t0));
        }
        {
          dse::Evaluator evaluator(*kernel);
          const auto t0 = Clock::now();
          lane = evaluator.MultiEvaluate(lanes_stream);
          lane_s = std::min(lane_s, SecondsSince(t0));
        }
      }
      bool same = scalar.size() == lane.size();
      for (std::size_t i = 0; same && i < scalar.size(); ++i)
        same = SameMeasurement(scalar[i], lane[i]);
      report.Attempt(2 * lanes_stream.size() - 1);
      report.Check(same, "lanes: " + name + " lane run differs from scalar");
      report.AddValue("lanes." + name +
                          (kind == 0 ? ".speedup_fan" : ".speedup_random"),
                      "x", scalar_s / lane_s, lanes_stream.size());
    }
  }
}

/// The mix's grid through the engine with the surrogate tier off and on.
void SurrogateProbe(const Mix& mix, Report& report) {
  std::vector<dse::ExplorationRequest> off = CampaignGrid(mix).Expand();
  std::vector<dse::ExplorationRequest> on = off;
  for (auto& request : on) request.surrogate = true;
  const dse::Engine engine(dse::EngineOptions{1});
  auto t0 = Clock::now();
  const dse::BatchResult plain = engine.Run(off);
  const double off_s = SecondsSince(t0);
  t0 = Clock::now();
  const dse::BatchResult skipped = engine.Run(on);
  const double on_s = SecondsSince(t0);
  report.Attempt(plain.TotalRuns() + skipped.TotalRuns());
  double deferred = 0.0;
  double distinct = 0.0;
  for (const auto& result : skipped.results) {
    deferred += static_cast<double>(result.cache.deferred_runs);
    distinct += static_cast<double>(result.cache.distinct_evaluations);
  }
  report.AddValue("surrogate.wall_ratio", "x", on_s / off_s);
  report.AddValue("surrogate.skip_ratio", "frac",
                  distinct > 0.0 ? deferred / distinct : 0.0);
}

/// Campaign::Run at 1, 2 and 4 engine workers with progress hooks: worker
/// busy time is each worker's span from a chunk's start to its last job
/// finishing in that chunk.
/// Returns the 1-worker campaign rate, the base of the shard overhead, and
/// its JSON in *reference.
double CampaignProbe(const Mix& mix, const Prepared& prepared,
                     const RunOptions& options, std::string* reference,
                     Report& report) {
  const double cells = static_cast<double>(CampaignGrid(mix).NumCells());
  double w1_rate = 0.0;
  for (std::size_t workers : {1, 2, 4}) {
    std::mutex mutex;
    std::map<std::thread::id, Clock::time_point> last_finish;
    double busy_s = 0.0;
    Clock::time_point chunk_start = Clock::now();
    dse::CampaignObserver observer;
    observer.engine.interval = 256;
    observer.engine.on_progress = [&](const dse::JobProgress& progress) {
      if (!progress.finished) return;
      std::lock_guard<std::mutex> lock(mutex);
      last_finish[std::this_thread::get_id()] = Clock::now();
    };
    observer.on_chunk = [&](const dse::CampaignChunkProgress&) {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& [id, finish] : last_finish)
        busy_s += std::chrono::duration<double>(finish - chunk_start).count();
      last_finish.clear();
      chunk_start = Clock::now();
    };
    std::string json;
    const double seconds =
        RunCampaignOnce(mix, workers, &json, &observer);
    if (workers == 1) *reference = json;
    report.Attempt(static_cast<std::size_t>(cells) - 1);
    report.Check(json == *reference, "campaign: traced JSON differs");
    const double rate = cells / seconds;
    if (workers == 1) w1_rate = rate;
    report.AddValue("engine.worker_busy_frac.w" + std::to_string(workers),
                    "frac",
                    busy_s / (static_cast<double>(workers) * seconds));
    if (workers > 1) {
      report.AddValue("campaign.cells_per_s.w" + std::to_string(workers),
                      "1/s", rate);
      report.AddValue("campaign.scaling_eff.w" + std::to_string(workers),
                      "frac",
                      rate / (static_cast<double>(workers) * w1_rate));
    }
  }

  // Shared-cache hit ratio and aggregation cost on the explore batch run
  // with one shared cache per kernel identity.
  auto requests = ExploreRequests(mix, prepared.kernels);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].kernel_override.reset();
    requests[i].cache_mode = dse::CacheMode::kShared;
  }
  const dse::BatchResult batch =
      dse::Engine(dse::EngineOptions{1}).Run(requests);
  report.Attempt(batch.TotalRuns());
  double shared_hits = 0.0;
  double distinct = 0.0;
  for (const auto& result : batch.results) {
    shared_hits += static_cast<double>(result.cache.shared_hits);
    distinct += static_cast<double>(result.cache.distinct_evaluations);
  }
  report.AddValue("shared_cache.hit_ratio", "frac", shared_hits / distinct);
  report.AddValue(
      "campaign.aggregate_ns_per_cell", "ns",
      NsPerItem(batch.results.size(), 5, [&] {
        dse::CampaignAggregator aggregator;
        for (const auto& result : batch.results) aggregator.Add(result);
        g_sink += aggregator.Fronts().size();
      }));

  // A mid-run checkpoint of the first mix kernel's exploration.
  dse::ExplorationRequest request = requests.front();
  request.record_trace = false;
  dse::Evaluator evaluator(*prepared.kernels.front());
  dse::Explorer explorer(evaluator, dse::MakePaperRewardConfig(evaluator),
                         request.ToExplorerConfig());
  explorer.RunSteps(std::max<std::size_t>(1, mix.steps / 2));
  const dse::Checkpoint checkpoint = explorer.Suspend();
  const std::string path = FreshDir(options, "checkpoint") + "/job.ckpt";
  std::vector<double> save_ms;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    checkpoint.Save(path);
    save_ms.push_back(SecondsSince(t0) * 1e3);
  }
  report.AddValue("checkpoint.bytes", "B",
                  static_cast<double>(fs::file_size(path)));
  report.AddSamples("checkpoint.save_ms", "ms", save_ms);
  return w1_rate;
}

/// ShardWorker plus merge, a lease write and a chunk result write.
void ShardProbe(const Mix& mix, const Prepared& prepared,
                const RunOptions& options, double campaign_w1_rate,
                const std::string& reference, Report& report) {
  const dse::CampaignSpec spec = CampaignGrid(mix);
  std::vector<double> merge_ms;
  std::vector<double> rates;
  for (int round = 0; round < 2; ++round) {
    std::string merged;
    double merge_s = 0.0;
    const double seconds = RunShardOnce(mix, options, &merged, &merge_s);
    merge_ms.push_back(merge_s * 1e3);
    rates.push_back(static_cast<double>(spec.NumCells()) / seconds);
    report.Check(merged == reference, "shard: merged JSON differs");
  }
  report.AddSamples("shard.merge_ms", "ms", merge_ms);
  report.AddValue("shard.overhead_ratio", "x",
                  Median(rates) / campaign_w1_rate);

  const std::string dir = FreshDir(options, "shard-io");
  dse::ShardLease lease;
  lease.spec_hash = dse::StableHash64(spec.ToString());
  lease.owner = "bench";
  lease.generation = 1;
  std::vector<double> claim_ms;
  for (int rep = 0; rep < 9; ++rep) {
    lease.chunk_index = static_cast<std::size_t>(rep);
    const auto t0 = Clock::now();
    dse::AtomicWriteCheckpointFile(
        dir + "/" + dse::ShardLeaseFileName(lease.chunk_index),
        lease.Serialize(), "bench lease");
    claim_ms.push_back(SecondsSince(t0) * 1e3);
  }
  report.AddSamples("shard.claim_ms", "ms", claim_ms);

  auto requests = ExploreRequests(mix, prepared.kernels);
  for (auto& request : requests) request.kernel_override.reset();
  requests.resize(std::min(requests.size(), mix.chunk_cells));
  const dse::BatchResult batch =
      dse::Engine(dse::EngineOptions{1}).Run(requests);
  dse::CampaignChunkCheckpoint chunk;
  chunk.spec_hash = lease.spec_hash;
  for (const auto& result : batch.results)
    chunk.cells.push_back(dse::CampaignAggregator::Reduce(result));
  std::vector<double> write_ms;
  for (int rep = 0; rep < 9; ++rep) {
    const auto t0 = Clock::now();
    chunk.Save(dir + "/" + dse::ShardChunkResultFileName(rep));
    write_ms.push_back(SecondsSince(t0) * 1e3);
  }
  report.AddSamples("shard.result_write_ms", "ms", write_ms);
}

/// Serve bursts until the budget is spent and enough jobs completed; stops
/// early on a burst that completed no job, or past four budgets, so a
/// broken daemon ends the run as a failed check.
void ServeProbe(const Mix& mix, const RunOptions& options, double budget,
                Report& report) {
  const std::size_t min_jobs = options.smoke ? 8 : kMinServeJobs;
  ServeLoad serve(options);
  const auto start = Clock::now();
  for (std::size_t round = 0;
       serve.Stats().busy_s < budget || serve.Stats().done_ms.size() < min_jobs;
       ++round) {
    if (serve.Stats().empty_bursts > 0 ||
        SecondsSince(start) >= 4.0 * budget + 10.0)
      break;
    serve.Burst(ForRound(mix, round), 0.25 * budget, report);
  }
  const ServeStats& stats = serve.Stats();
  CheckServeJobs(stats, min_jobs, report);
  double tail = 0.0;
  report.AddValue("serve.done_ms.p95", "ms",
                  TailPercentile(stats.done_ms, &tail), stats.done_ms.size());
  report.AddValue("serve.queue_wait_ms.p50", "ms",
                  Percentile(stats.queue_wait_ms, 50),
                  stats.queue_wait_ms.size());
  report.AddValue("serve.run_ms.p50", "ms", Percentile(stats.run_ms, 50),
                  stats.run_ms.size());
  double bytes = 0.0;
  for (double b : stats.result_bytes) bytes += b;
  report.AddValue("serve.result_bytes", "B",
                  bytes / static_cast<double>(std::max<std::size_t>(
                              1, stats.result_bytes.size())),
                  stats.result_bytes.size());
  report.AddValue("serve.manifest_write_ms", "ms",
                  Percentile(stats.submit_ms, 50), stats.submit_ms.size());
}

}  // namespace

void RunLayers(const Mix& mix, const Prepared& prepared,
               const RunOptions& options, Report& report) {
  const double s = options.seconds;
  WarmUp(options.smoke ? 0.1 : 1.5);
  ExploreProbe(mix, prepared, 0.1 * s, report);
  OverheadProbe(mix, prepared, 0.1 * s, report);
  const std::vector<Recorded> recorded = RlProbe(mix, prepared, report);
  StreamProbe(recorded, report);
  KernelAndLaneProbe(mix, recorded, 0.15 * s, report);
  SurrogateProbe(mix, report);
  std::string campaign_json;
  const double w1_rate =
      CampaignProbe(mix, prepared, options, &campaign_json, report);
  ShardProbe(mix, prepared, options, w1_rate, campaign_json, report);
  ServeProbe(mix, options, 0.1 * s, report);
}

void WriteTrace(const std::string& path, const std::string& header_json,
                const Report& report) {
  std::ofstream out(path);
  out << "{\"schema\":\"axdse-bench-trace-v1\",\"host\":" << header_json
      << ",\"layers\":[";
  bool first = true;
  for (const Metric& metric : report.Metrics()) {
    out << (first ? "" : ",") << "{\"name\":\""
        << report::JsonEscape(metric.name) << "\",\"unit\":\"" << metric.unit
        << "\",\"value\":" << report::JsonNum(metric.value)
        << ",\"n\":" << metric.n << "}";
    first = false;
  }
  out << "],";
  g_spans.Write(out);
  out << "}\n";
}

}  // namespace axbench
