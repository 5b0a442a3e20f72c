// Seeded mutation-fuzz tests over the project's text grammars:
// ExplorationRequest, CampaignSpec and KernelSpec tokens, the axdse-serve-v1
// wire protocol, and the on-disk record documents (checkpoints, cache
// snapshots, chunk documents, shard leases and manifests). For every
// mutated input the parser must either succeed — and then round-trip
// losslessly (Parse(ToString()) is a fixed point) — or fail with the
// documented typed error (std::invalid_argument, serve::ProtocolError,
// dse::CheckpointError or dse::ShardError). Any other exception, crash, or
// cross-call state leak is a bug. The mutation stream is driven by a fixed-seed util::Rng so
// failures replay exactly; when one shows up, log the offending input.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/test_support.hpp"
#include "dse/campaign.hpp"
#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "dse/request.hpp"
#include "dse/shard.hpp"
#include "serve/protocol.hpp"
#include "util/record_io.hpp"
#include "util/rng.hpp"
#include "workloads/kernel_spec.hpp"

namespace axdse {
namespace {

constexpr std::size_t kIterations = 600;

// Characters the mutators draw from: the grammar's own separators and escape
// bytes are over-represented on purpose — they sit on the parser's edges.
char RandomByte(util::Rng& rng) {
  static const std::string kAlphabet = [] {
    std::string bytes =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "=;%.,@-_ \t+Ee\n\x7f";
    bytes.push_back('\0');  // NUL via push_back: a literal would truncate
    return bytes;
  }();
  return kAlphabet[rng.PickIndex(kAlphabet.size())];
}

// One random structural edit. Empty inputs can only grow.
std::string MutateOnce(std::string s, util::Rng& rng,
                       const std::vector<std::string>& corpus) {
  const std::uint64_t op = rng.UniformBelow(8);
  if (s.empty() && op != 1 && op != 5) return std::string(1, RandomByte(rng));
  switch (op) {
    case 0: {  // replace one byte
      s[rng.PickIndex(s.size())] = RandomByte(rng);
      return s;
    }
    case 1: {  // insert one byte
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                               rng.UniformBelow(s.size() + 1)),
               RandomByte(rng));
      return s;
    }
    case 2: {  // delete one byte
      s.erase(rng.PickIndex(s.size()), 1);
      return s;
    }
    case 3: {  // truncate
      return s.substr(0, rng.UniformBelow(s.size() + 1));
    }
    case 4: {  // duplicate a span in place
      const std::size_t begin = rng.PickIndex(s.size());
      const std::size_t len =
          1 + rng.UniformBelow(std::min<std::size_t>(16, s.size() - begin));
      return s.insert(begin, s.substr(begin, len));
    }
    case 5: {  // splice: our prefix + another corpus entry's suffix
      const std::string& other = corpus[rng.PickIndex(corpus.size())];
      return s.substr(0, rng.UniformBelow(s.size() + 1)) +
             other.substr(rng.UniformBelow(other.size() + 1));
    }
    case 6: {  // swap two whitespace-separated tokens
      std::vector<std::string> tokens;
      std::size_t pos = 0;
      while (pos < s.size()) {
        const std::size_t space = s.find(' ', pos);
        tokens.push_back(s.substr(pos, space - pos));
        if (space == std::string::npos) break;
        pos = space + 1;
      }
      if (tokens.size() >= 2) {
        std::swap(tokens[rng.PickIndex(tokens.size())],
                  tokens[rng.PickIndex(tokens.size())]);
        std::string joined;
        for (const std::string& t : tokens) {
          if (!joined.empty()) joined += ' ';
          joined += t;
        }
        return joined;
      }
      return s;
    }
    default: {  // flip the case of one byte
      char& c = s[rng.PickIndex(s.size())];
      if (c >= 'a' && c <= 'z')
        c = static_cast<char>(c - 'a' + 'A');
      else if (c >= 'A' && c <= 'Z')
        c = static_cast<char>(c - 'A' + 'a');
      return s;
    }
  }
}

std::string Mutate(const std::string& seed, util::Rng& rng,
                   const std::vector<std::string>& corpus) {
  std::string s = seed;
  const std::uint64_t edits = 1 + rng.UniformBelow(3);
  for (std::uint64_t i = 0; i < edits; ++i) s = MutateOnce(s, rng, corpus);
  return s;
}

// ---------------------------------------------------------------------------
// ExplorationRequest grammar
// ---------------------------------------------------------------------------

// A random VALID request, exercising every serialized field group including
// labels that need percent-escaping.
dse::ExplorationRequest RandomRequest(util::Rng& rng) {
  static const char* kKernels[] = {"matmul", "fir", "dot", "sobel3x3",
                                   "kmeans1d"};
  static const dse::AgentKind kAgents[] = {
      dse::AgentKind::kQLearning, dse::AgentKind::kSarsa,
      dse::AgentKind::kExpectedSarsa, dse::AgentKind::kDoubleQ,
      dse::AgentKind::kQLambda};
  dse::ExplorationRequest request;
  request.kernel.name = kKernels[rng.PickIndex(5)];
  request.kernel.size = 2 + rng.UniformBelow(30);
  request.kernel_seed = rng.UniformBelow(100000);
  request.agent_kind = kAgents[rng.PickIndex(5)];
  request.action_space = rng.Bernoulli(0.5) ? dse::ActionSpaceKind::kFull
                                            : dse::ActionSpaceKind::kCompact;
  request.max_steps = 1 + rng.UniformBelow(100000);
  request.max_cumulative_reward = rng.UniformReal(1.0, 1e6);
  request.episodes = 1 + rng.UniformBelow(4);
  request.num_seeds = 1 + rng.UniformBelow(5);
  request.seed = rng.UniformBelow(1000);
  request.alpha = rng.UniformReal(0.01, 1.0);
  request.gamma = rng.UniformReal(0.0, 1.0);
  request.epsilon_start = rng.UniformReal(0.5, 1.0);
  request.epsilon_end = rng.UniformReal(0.0, 0.2);
  request.epsilon_decay_steps = rng.UniformBelow(5000);
  if (rng.Bernoulli(0.5)) request.surrogate = true;
  if (rng.Bernoulli(0.5)) {
    request.cache_mode = dse::CacheMode::kShared;
    request.cache_capacity = rng.UniformBelow(4096);
  }
  if (rng.Bernoulli(0.3)) request.record_trace = true;
  if (rng.Bernoulli(0.3))
    request.greedy_rollout_steps = 1 + rng.UniformBelow(64);
  if (rng.Bernoulli(0.3))
    request.checkpoint_interval = rng.UniformBelow(512);
  if (rng.Bernoulli(0.5))
    request.label =
        "fuzz label %=;\t" + std::to_string(rng.UniformBelow(1000));
  if (rng.Bernoulli(0.3))
    request.kernel.extra["granularity"] = rng.Bernoulli(0.5) ? "row" : "all";
  request.Validate();
  return request;
}

// Parses and enforces the typed-error contract; returns true on success.
bool ParseRequestChecked(const std::string& input,
                         dse::ExplorationRequest* out) {
  try {
    *out = dse::ExplorationRequest::Parse(input);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                  << input << "]";
    return false;
  }
}

TEST(GrammarFuzz, ExplorationRequestValidInputsRoundTripLosslessly) {
  util::Rng rng(20230901);
  for (std::size_t i = 0; i < 200; ++i) {
    const dse::ExplorationRequest request = RandomRequest(rng);
    const std::string text = request.ToString();
    const dse::ExplorationRequest reparsed =
        dse::ExplorationRequest::Parse(text);
    EXPECT_EQ(reparsed, request) << "input: [" << text << "]";
    EXPECT_EQ(reparsed.ToString(), text);
  }
}

/// Signed integers and NaN doubles: strtoull wrapped "-1" to 2^64-1 and
/// strtod accepted "nan" and "+7".
constexpr const char* kMalformedNumberRequests[] = {
    "kernel=dot seeds=-1",       "kernel=dot steps=+7",
    "kernel=dot kernel-seed=-1", "kernel=dot eps-decay=+7",
    "kernel=dot steps=inf",      "kernel=dot seed=nan",
    "kernel=dot alpha=nan",      "kernel=dot reward-cap=-nan",
    "kernel=dot gamma=+0.5",     "kernel=dot initial-q=NAN",
    "kernel=dot max-reward=nan",
};

TEST(GrammarFuzz, ExplorationRequestMalformedNumbersFailTyped) {
  for (const char* input : kMalformedNumberRequests) {
    dse::ExplorationRequest parsed;
    EXPECT_FALSE(ParseRequestChecked(input, &parsed))
        << "accepted: [" << input << "] as [" << parsed.ToString() << "]";
  }
  // Infinity stays a legal double; Validate bounds the fields that need it.
  dse::ExplorationRequest parsed;
  ASSERT_TRUE(ParseRequestChecked("kernel=dot reward-cap=inf", &parsed));
  EXPECT_NO_THROW(parsed.Validate());
  ASSERT_TRUE(ParseRequestChecked("kernel=dot initial-q=inf", &parsed));
  EXPECT_THROW(parsed.Validate(), std::invalid_argument);
}

TEST(GrammarFuzz, ExplorationRequestMutationsParseOrFailTyped) {
  util::Rng rng(424242);
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < 24; ++i)
    corpus.push_back(RandomRequest(rng).ToString());
  for (const char* input : kMalformedNumberRequests) corpus.push_back(input);
  const std::string baseline = corpus.front();
  const dse::ExplorationRequest baseline_request =
      dse::ExplorationRequest::Parse(baseline);

  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    dse::ExplorationRequest parsed;
    if (ParseRequestChecked(input, &parsed)) {
      // Success implies the canonical form is a fixed point.
      const std::string canonical = parsed.ToString();
      dse::ExplorationRequest reparsed;
      ASSERT_TRUE(ParseRequestChecked(canonical, &reparsed))
          << "canonical form rejected: [" << canonical << "] from input: ["
          << input << "]";
      EXPECT_EQ(reparsed, parsed) << "input: [" << input << "]";
      EXPECT_EQ(reparsed.ToString(), canonical);
    }
  }
  // Parsing (including the failures above) is stateless: a known-good input
  // still parses to the same value afterwards.
  EXPECT_EQ(dse::ExplorationRequest::Parse(baseline), baseline_request);
}

// ---------------------------------------------------------------------------
// CampaignSpec grammar
// ---------------------------------------------------------------------------

bool ParseCampaignChecked(const std::string& input, dse::CampaignSpec* out) {
  try {
    *out = dse::CampaignSpec::Parse(input);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                  << input << "]";
    return false;
  }
}

TEST(GrammarFuzz, CampaignSpecMalformedBaseNumbersFailTyped) {
  // The base request goes through the same strict number parsers.
  for (const char* input :
       {"kernels=dot@8 seeds=-1", "kernels=dot@8 steps=+7",
        "kernels=dot@8 alpha=nan", "kernels=dot@8 acc-factors=0.4,nan",
        "kernels=dot@8 agents="}) {
    dse::CampaignSpec parsed;
    EXPECT_FALSE(ParseCampaignChecked(input, &parsed))
        << "accepted: [" << input << "] as [" << parsed.ToString() << "]";
  }
}

TEST(GrammarFuzz, CampaignSpecMutationsParseOrFailTyped) {
  util::Rng rng(77007);
  const std::vector<std::string> corpus = {
      "kernels=matmul@10,matmul@50,fir@100,fir@200 steps=10000 seeds=5",
      "kernels=dot@32,kmeans1d@40 agents=q-learning,sarsa steps=60 seeds=2 "
      "seed=1 kernel-seed=2023 reward-cap=1e18",
      "kernels=sobel3x3@12 action-spaces=full,compact acc-factors=0.4,0.2 "
      "power-factors=0.9 time-factors=1.1 cache-modes=private,shared",
      "kernels=matmul{granularity=row-col} kernel={cutoff=0.3} agents=all "
      "alpha=0.15 gamma=0.95 surrogate=1",
      "kernels=fir@64 steps=500",
      "kernels=dot@8 seeds=-1 steps=+7 alpha=nan reward-cap=inf",
  };
  const std::string baseline = corpus.front();
  const std::string baseline_canonical =
      dse::CampaignSpec::Parse(baseline).ToString();

  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    dse::CampaignSpec parsed;
    if (ParseCampaignChecked(input, &parsed)) {
      const std::string canonical = parsed.ToString();
      dse::CampaignSpec reparsed;
      ASSERT_TRUE(ParseCampaignChecked(canonical, &reparsed))
          << "canonical form rejected: [" << canonical << "] from input: ["
          << input << "]";
      EXPECT_EQ(reparsed.ToString(), canonical) << "input: [" << input << "]";
    }
  }
  EXPECT_EQ(dse::CampaignSpec::Parse(baseline).ToString(),
            baseline_canonical);
}

// ---------------------------------------------------------------------------
// KernelSpec grammar: name@size{key=value,...}
// ---------------------------------------------------------------------------

// A random VALID spec whose components need every escape in the set:
// '%', whitespace, ';', '=', '@', braces, and commas.
workloads::KernelSpec RandomKernelSpec(util::Rng& rng) {
  static const char* kNames[] = {"matmul", "fir",       "jpeg-path",
                                 "a b",    "x@y{z,w}",  "100%"};
  workloads::KernelSpec spec(kNames[rng.PickIndex(6)], rng.UniformBelow(512));
  const std::uint64_t extras = rng.UniformBelow(4);
  for (std::uint64_t e = 0; e < extras; ++e) {
    static const char* kKeys[] = {"granularity", "k=v", "odd key", "taps"};
    static const char* kValues[] = {"row-col", "{nested}", "a,b;c", "33"};
    spec.extra[kKeys[rng.PickIndex(4)]] = kValues[rng.PickIndex(4)];
  }
  return spec;
}

TEST(GrammarFuzz, KernelSpecValidSpecsRoundTripLosslessly) {
  util::Rng rng(60606);
  for (std::size_t i = 0; i < 300; ++i) {
    const workloads::KernelSpec spec = RandomKernelSpec(rng);
    const std::string text = spec.ToString();
    const workloads::KernelSpec reparsed = workloads::KernelSpec::Parse(text);
    EXPECT_EQ(reparsed, spec) << "text: [" << text << "]";
    EXPECT_EQ(reparsed.ToString(), text);
  }
}

TEST(GrammarFuzz, KernelSpecKnownMalformedInputsFailTyped) {
  for (const char* input :
       {"matmul@", "matmul@x", "matmul@-5", "matmul@5x", "dot{blocks=4",
        "dot{blocks}", "dot{=4}", "dot{blocks=4}trailing", "dot}",
        "a%zqb", "a%", "a%f", "fir@@8", "fir@8{a=1,,b=2}", "fir@8{,}"}) {
    EXPECT_THROW(workloads::KernelSpec::Parse(input), std::invalid_argument)
        << "input: [" << input << "]";
  }
  // The empty spec is valid (empty name, default size): campaigns use a
  // name-less "{k=v}" token to carry base extras.
  EXPECT_EQ(workloads::KernelSpec::Parse("").name, "");
  EXPECT_EQ(workloads::KernelSpec::Parse("{cutoff=0.3}").extra.at("cutoff"),
            "0.3");
}

TEST(GrammarFuzz, KernelSpecMutationsParseOrFailTyped) {
  util::Rng rng(80808);
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < 16; ++i)
    corpus.push_back(RandomKernelSpec(rng).ToString());
  corpus.push_back("");
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      const workloads::KernelSpec parsed =
          workloads::KernelSpec::Parse(input);
      const std::string canonical = parsed.ToString();
      EXPECT_EQ(workloads::KernelSpec::Parse(canonical), parsed)
          << "input: [" << input << "]";
      EXPECT_EQ(workloads::KernelSpec::Parse(canonical).ToString(), canonical)
          << "input: [" << input << "]";
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

TEST(GrammarFuzz, SplitSpecListRespectsBraceDepthUnderMutation) {
  util::Rng rng(90909);
  const std::vector<std::string> corpus = {
      "dot@32{blocks=4},kmeans1d@40{clusters=3}",
      "matmul@10{granularity=row-col},fir@100,iir",
      "jpeg-path@2{step=16},edge-path@8{width=9,threshold=512}",
      "",
  };
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    // SplitSpecList never throws; it only splits. Joining the pieces back
    // with commas must reproduce the input byte-for-byte.
    const std::vector<std::string> parts = workloads::SplitSpecList(input);
    std::string joined;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (p > 0) joined += ',';
      joined += parts[p];
    }
    if (input.empty())
      EXPECT_TRUE(parts.empty());
    else
      EXPECT_EQ(joined, input) << "input: [" << input << "]";
  }
}

// ---------------------------------------------------------------------------
// axdse-serve-v1 wire protocol
// ---------------------------------------------------------------------------

TEST(GrammarFuzz, ProtocolCommandLineMutationsParseOrFailTyped) {
  util::Rng rng(31337);
  const std::vector<std::string> corpus = {
      "SUBMIT kernel=matmul@8 steps=400",
      "SUBMIT-CAMPAIGN kernels=dot@16 steps=50",
      "WATCH 1",  "WAIT 12",  "STATUS 7", "RESULTS 3",
      "CANCEL 2", "LIST",     "DRAIN",    "PING",
      "watch 1",  "",         " SUBMIT",  "W@TCH 1",
  };
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      const serve::CommandLine cmd = serve::ParseCommandLine(input);
      EXPECT_FALSE(cmd.verb.empty()) << "input: [" << input << "]";
      for (const char c : cmd.verb)
        EXPECT_TRUE((c >= 'A' && c <= 'Z') || c == '-')
            << "verb byte " << static_cast<int>(c) << " from input: ["
            << input << "]";
    } catch (const serve::ProtocolError& e) {
      EXPECT_EQ(e.Code(), "bad-command") << "input: [" << input << "]";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

TEST(GrammarFuzz, ProtocolJobIdMutationsParseOrFailTyped) {
  util::Rng rng(90210);
  const std::vector<std::string> corpus = {
      "0", "1", "42", "18446744073709551615", "007", "-3", "1e3", "", "9x",
  };
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      const std::uint64_t id = serve::ParseJobId(input);
      // A successfully parsed id survives the wire: format + reparse is the
      // identity.
      EXPECT_EQ(serve::ParseJobId(serve::WireUnsigned(id)), id)
          << "input: [" << input << "]";
    } catch (const serve::ProtocolError& e) {
      EXPECT_EQ(e.Code(), "bad-job-id") << "input: [" << input << "]";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Shard lease / manifest formats
// ---------------------------------------------------------------------------

// Mutated lease files (truncated, zero-length, duplicated spans, inflated
// counters, spliced garbage) must either Deserialize — and then round-trip
// to a fixed point — or throw the documented ShardError. This is the same
// corruption family the shard claim path treats as reclaimable; a crash or
// an untyped exception here would crash a worker instead.
TEST(GrammarFuzz, ShardLeaseMutationsParseOrFailTyped) {
  util::Rng rng(424242);
  std::vector<std::string> corpus;
  for (const std::uint64_t gen :
       {std::uint64_t{1}, std::uint64_t{7}, dse::ShardLease::kMaxCounter}) {
    dse::ShardLease lease;
    lease.spec_hash = 0x1234abcd5678ef00ULL * gen;
    lease.chunk_index = static_cast<std::size_t>(gen % 13);
    lease.owner = gen % 2 ? "worker-1" : "w_2";
    lease.generation = gen;
    lease.heartbeat = gen * 3;
    corpus.push_back(lease.Serialize());
  }
  corpus.push_back("");  // zero-length file
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      const dse::ShardLease parsed = dse::ShardLease::Deserialize(input);
      const std::string canonical = parsed.Serialize();
      EXPECT_EQ(dse::ShardLease::Deserialize(canonical).Serialize(),
                canonical)
          << "input: [" << input << "]";
      EXPECT_LE(parsed.generation, dse::ShardLease::kMaxCounter);
    } catch (const dse::ShardError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

TEST(GrammarFuzz, ShardManifestMutationsParseOrFailTyped) {
  util::Rng rng(515151);
  std::vector<std::string> corpus;
  {
    dse::ShardManifest manifest;
    manifest.spec_text = "kernels=dot@32,kmeans1d@40 steps=60 seeds=2";
    manifest.chunk_cells = 2;
    manifest.num_cells = 4;
    corpus.push_back(manifest.Serialize());
    manifest.spec_text = "kernels=matmul@10 agents=all steps=120";
    manifest.chunk_cells = 8;
    manifest.num_cells = 9;
    corpus.push_back(manifest.Serialize());
  }
  corpus.push_back("");
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      const dse::ShardManifest parsed =
          dse::ShardManifest::Deserialize(input);
      const std::string canonical = parsed.Serialize();
      EXPECT_EQ(dse::ShardManifest::Deserialize(canonical).Serialize(),
                canonical)
          << "input: [" << input << "]";
    } catch (const dse::ShardError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Record documents: job checkpoints, shared-cache snapshots, chunk documents
// ---------------------------------------------------------------------------

std::string Golden(const char* name) {
  return testsupport::ReadGolden(
      std::string(AXDSE_SOURCE_DIR "/tests/golden/") + name);
}

/// A mid-run job snapshot with a non-zero shared-hit count, as the engine
/// writes it: the second seed of a shared-cache surrogate batch.
std::string SharedHitsCheckpoint() {
  testsupport::ScopedTempDir dir("fuzz-shared-hits-checkpoint");
  dse::CheckpointOptions options;
  options.directory = dir.Str();
  options.step_budget = 40;
  const dse::ExplorationRequest request =
      {.kernel = workloads::KernelSpec("matmul", 4),
       .max_steps = 200,
       .num_seeds = 2,
       .cache_mode = dse::CacheMode::kShared,
       .surrogate = true};
  dse::Engine(dse::EngineOptions{1}).Run({request}, options);
  const std::string path =
      (std::filesystem::path(dir.Str()) /
       dse::JobCheckpointFileName(request.ToString(), request.seed + 1))
          .string();
  return util::ReadWholeFile(path).value_or("");
}

// Mutated record documents (torn, spliced, duplicated spans, flipped
// bytes) must either throw the documented CheckpointError or parse — and
// then re-serialize to a fixed point. A crash or an untyped exception here
// would take down a resuming engine or a shard worker scanning results.
template <class Record>
void FuzzRecordDocument(std::uint64_t seed, std::vector<std::string> corpus) {
  util::Rng rng(seed);
  for (const std::string& document : corpus)
    ASSERT_EQ(Record::Deserialize(document).Serialize(), document);
  corpus.push_back("");  // zero-length file
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      const std::string canonical = Record::Deserialize(input).Serialize();
      EXPECT_EQ(Record::Deserialize(canonical).Serialize(), canonical)
          << "input: [" << input << "]";
    } catch (const dse::CheckpointError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

TEST(GrammarFuzz, CheckpointMutationsParseOrFailTyped) {
  const std::string shared_hits = SharedHitsCheckpoint();
  ASSERT_GT(dse::Checkpoint::Deserialize(shared_hits).shared_hits, 0u);
  FuzzRecordDocument<dse::Checkpoint>(
      1101, {Golden("matmul_checkpoint_seed1.ckpt"),
             Golden("matmul_finished_seed1.ckpt"), shared_hits});
}

TEST(GrammarFuzz, SharedCacheCheckpointMutationsParseOrFailTyped) {
  FuzzRecordDocument<dse::SharedCacheCheckpoint>(
      2202, {Golden("matmul_shared_cache_seed1.cache")});
}

TEST(GrammarFuzz, CampaignChunkMutationsParseOrFailTyped) {
  FuzzRecordDocument<dse::CampaignChunkCheckpoint>(
      3303, {Golden("campaign_chunk_seed1.done")});
}

TEST(GrammarFuzz, JobNameLookupsRoundTripOrThrowTyped) {
  util::Rng rng(5150);
  const std::vector<std::string> corpus = {
      "request", "campaign", "queued",    "running", "suspended",
      "done",    "failed",   "cancelled", "bogus",   "",
  };
  for (std::size_t i = 0; i < kIterations; ++i) {
    const std::string input =
        Mutate(corpus[rng.PickIndex(corpus.size())], rng, corpus);
    try {
      EXPECT_STREQ(serve::ToString(serve::JobKindFromName(input)),
                   input.c_str());
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
    try {
      EXPECT_STREQ(serve::ToString(serve::JobStateFromName(input)),
                   input.c_str());
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped exception '" << e.what() << "' for input: ["
                    << input << "]";
    }
  }
}

}  // namespace
}  // namespace axdse
