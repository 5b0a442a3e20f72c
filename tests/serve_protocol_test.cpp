// axdse-serve wire-protocol unit tests: command-line parsing, job
// vocabulary round-trips, line builders, the bounded LineReader (including
// oversized-line resynchronization over a real pipe), and the
// locale-independence regression — every machine-readable serialization
// (wire numbers, batch JSON/CSV, request/checkpoint text) must be
// byte-stable under a hostile global locale with comma decimal points and
// digit grouping.

#include <gtest/gtest.h>

#include <unistd.h>

#include <limits>
#include <locale>
#include <string>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/engine.hpp"
#include "dse/request.hpp"
#include "report/export.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"

namespace axdse::serve {
namespace {

// ---------------------------------------------------------------------------
// Command-line grammar
// ---------------------------------------------------------------------------

TEST(ParseCommandLine, SplitsVerbAndRest) {
  const CommandLine cmd = ParseCommandLine("SUBMIT kernel=matmul size=8");
  EXPECT_EQ(cmd.verb, "SUBMIT");
  EXPECT_EQ(cmd.rest, "kernel=matmul size=8");
}

TEST(ParseCommandLine, VerbOnlyHasEmptyRest) {
  const CommandLine cmd = ParseCommandLine("STATS");
  EXPECT_EQ(cmd.verb, "STATS");
  EXPECT_TRUE(cmd.rest.empty());
}

TEST(ParseCommandLine, ToleratesLeadingWhitespace) {
  const CommandLine cmd = ParseCommandLine("  \tPING");
  EXPECT_EQ(cmd.verb, "PING");
}

TEST(ParseCommandLine, AcceptsHyphenatedVerbs) {
  EXPECT_EQ(ParseCommandLine("SUBMIT-CAMPAIGN kernels=fir").verb,
            "SUBMIT-CAMPAIGN");
}

TEST(ParseCommandLine, RejectsEmptyLine) {
  EXPECT_THROW(ParseCommandLine(""), ProtocolError);
  EXPECT_THROW(ParseCommandLine("   "), ProtocolError);
}

TEST(ParseCommandLine, RejectsLowercaseAndJunkVerbs) {
  EXPECT_THROW(ParseCommandLine("submit kernel=matmul"), ProtocolError);
  EXPECT_THROW(ParseCommandLine("{\"cmd\":\"submit\"}"), ProtocolError);
  // An HTTP request parses lexically ("GET" is a well-formed verb) and is
  // refused at dispatch with ERR unknown-command instead.
  EXPECT_EQ(ParseCommandLine("GET / HTTP/1.1").verb, "GET");
}

TEST(ParseCommandLine, ErrorCarriesCode) {
  try {
    ParseCommandLine("nope");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.Code(), "bad-command");
  }
}

// ---------------------------------------------------------------------------
// Job vocabulary
// ---------------------------------------------------------------------------

TEST(JobVocabulary, StateRoundTrips) {
  for (const JobState state :
       {JobState::kQueued, JobState::kRunning, JobState::kSuspended,
        JobState::kDone, JobState::kFailed, JobState::kCancelled})
    EXPECT_EQ(JobStateFromName(ToString(state)), state);
  EXPECT_THROW(JobStateFromName("paused"), std::invalid_argument);
}

TEST(JobVocabulary, KindRoundTrips) {
  for (const JobKind kind : {JobKind::kRequest, JobKind::kCampaign})
    EXPECT_EQ(JobKindFromName(ToString(kind)), kind);
  EXPECT_THROW(JobKindFromName("batch"), std::invalid_argument);
}

TEST(JobVocabulary, TerminalStates) {
  EXPECT_TRUE(IsTerminal(JobState::kDone));
  EXPECT_TRUE(IsTerminal(JobState::kFailed));
  EXPECT_TRUE(IsTerminal(JobState::kCancelled));
  EXPECT_FALSE(IsTerminal(JobState::kQueued));
  EXPECT_FALSE(IsTerminal(JobState::kRunning));
  EXPECT_FALSE(IsTerminal(JobState::kSuspended));
}

// ---------------------------------------------------------------------------
// Line builders and job ids
// ---------------------------------------------------------------------------

TEST(Lines, BuildersEndWithNewline) {
  EXPECT_EQ(HelloLine(), "HELLO axdse-serve-v1\n");
  EXPECT_EQ(OkLine("job 7"), "OK job 7\n");
  EXPECT_EQ(OkLine(""), "OK\n");
  EXPECT_EQ(ErrLine("bad-request", "no such kernel"),
            "ERR bad-request no such kernel\n");
  EXPECT_EQ(EventLine(12, "state done"), "EVENT 12 state done\n");
}

TEST(Lines, ParseJobIdStrict) {
  EXPECT_EQ(ParseJobId("0"), 0u);
  EXPECT_EQ(ParseJobId("42"), 42u);
  EXPECT_THROW(ParseJobId(""), ProtocolError);
  EXPECT_THROW(ParseJobId("-3"), ProtocolError);
  EXPECT_THROW(ParseJobId("12abc"), ProtocolError);
  EXPECT_THROW(ParseJobId("abc"), ProtocolError);
}

// ---------------------------------------------------------------------------
// LineReader over a real pipe
// ---------------------------------------------------------------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    CloseWrite();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void Write(const std::string& data) {
    ASSERT_EQ(::write(fds[1], data.data(), data.size()),
              static_cast<ssize_t>(data.size()));
  }
  void CloseWrite() {
    if (fds[1] >= 0) {
      ::close(fds[1]);
      fds[1] = -1;
    }
  }
};

TEST(LineReaderTest, ReadsLinesAndStripsCrlf) {
  Pipe pipe;
  pipe.Write("PING\r\nSTATS\n");
  pipe.CloseWrite();
  LineReader reader(pipe.fds[0], 64);
  std::string line;
  ASSERT_EQ(reader.ReadLine(line), LineReader::Status::kLine);
  EXPECT_EQ(line, "PING");
  ASSERT_EQ(reader.ReadLine(line), LineReader::Status::kLine);
  EXPECT_EQ(line, "STATS");
  EXPECT_EQ(reader.ReadLine(line), LineReader::Status::kEof);
}

TEST(LineReaderTest, OversizedLineIsDiscardedAndStreamResynchronizes) {
  Pipe pipe;
  pipe.Write(std::string(500, 'x') + "\nPING\n");
  pipe.CloseWrite();
  LineReader reader(pipe.fds[0], 64);
  std::string line;
  EXPECT_EQ(reader.ReadLine(line), LineReader::Status::kTooLong);
  ASSERT_EQ(reader.ReadLine(line), LineReader::Status::kLine);
  EXPECT_EQ(line, "PING");  // the stream recovered on the next line
  EXPECT_EQ(reader.ReadLine(line), LineReader::Status::kEof);
}

TEST(LineReaderTest, UnterminatedTrailingFragmentIsAnError) {
  Pipe pipe;
  pipe.Write("PING\nSTAT");  // peer vanished mid-line
  pipe.CloseWrite();
  LineReader reader(pipe.fds[0], 64);
  std::string line;
  ASSERT_EQ(reader.ReadLine(line), LineReader::Status::kLine);
  EXPECT_EQ(reader.ReadLine(line), LineReader::Status::kError);
}

// ---------------------------------------------------------------------------
// Locale independence
// ---------------------------------------------------------------------------

/// A hostile numpunct: ',' decimal point, '.' thousands separator, groups
/// of three — the shape of de_DE-style locales, but available everywhere
/// (the container need not ship OS locale data).
struct CommaDecimalPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// RAII global-locale override.
struct GlobalLocaleGuard {
  std::locale previous;
  explicit GlobalLocaleGuard(const std::locale& hostile)
      : previous(std::locale::global(hostile)) {}
  ~GlobalLocaleGuard() { std::locale::global(previous); }
};

TEST(LocaleIndependence, WireNumbersIgnoreGlobalLocale) {
  const GlobalLocaleGuard guard(
      std::locale(std::locale::classic(), new CommaDecimalPunct));
  EXPECT_EQ(WireUnsigned(1234567), "1234567");
  EXPECT_EQ(WireDouble(1234.5), "1234.5");
  EXPECT_EQ(report::JsonNum(0.25), "0.25");
  EXPECT_EQ(report::JsonNum(12345.0), "12345");
}

TEST(LocaleIndependence, SerializationsAreByteStableUnderHostileLocale) {
  // Produce every machine-readable document once under the classic locale...
  const dse::ExplorationRequest request{
      .kernel = workloads::KernelSpec("matmul", 4),
      .max_steps = 60,
      .num_seeds = 2,
      .seed = 1234};
  const dse::Engine engine(dse::EngineOptions{2});
  const dse::BatchResult batch = engine.Run({request});
  const std::string request_text = request.ToString();
  const std::string json = report::BatchJson(batch);
  const std::string csv = report::BatchCsv(batch);
  ASSERT_NE(json.find("\"total_steps\":120"), std::string::npos) << json;

  // ...then again with a comma-decimal, digit-grouping global locale. The
  // bytes must not move: grouping would corrupt integers ("1.234"), the
  // comma decimal point would corrupt doubles ("0,25").
  const GlobalLocaleGuard guard(
      std::locale(std::locale::classic(), new CommaDecimalPunct));
  EXPECT_EQ(request.ToString(), request_text);
  EXPECT_EQ(report::BatchJson(batch), json);
  EXPECT_EQ(report::BatchCsv(batch), csv);

  // The checkpoint text formats are serializations too; a shared-cache
  // snapshot carries both integers and doubles.
  dse::SharedCacheCheckpoint checkpoint;
  checkpoint.signature = request_text;
  instrument::Measurement measurement;
  measurement.delta_acc = 1234.5;
  checkpoint.entries.emplace_back(dse::Configuration(3), measurement);
  checkpoint.stats.hits = 1234567;
  checkpoint.stats.size = 1;
  const std::string serialized = checkpoint.Serialize();
  EXPECT_NE(serialized.find("stats 1234567"), std::string::npos) << serialized;
  EXPECT_NE(serialized.find("1234.5"), std::string::npos) << serialized;
  EXPECT_EQ(serialized.find("1.234"), std::string::npos) << serialized;
}

// ---------------------------------------------------------------------------
// CliArgs strict integers (the --port=0 contract)
// ---------------------------------------------------------------------------

TEST(CliStrictInt, PortZeroIsAValueNotAFallback) {
  const char* argv_eq[] = {"axdse-serve", "--port=0"};
  const util::CliArgs eq(2, argv_eq);
  EXPECT_EQ(eq.GetIntStrict("port", 4711), 0);

  const char* argv_sp[] = {"axdse-serve", "--port", "0"};
  const util::CliArgs sp(3, argv_sp);
  EXPECT_EQ(sp.GetIntStrict("port", 4711), 0);
}

TEST(CliStrictInt, AbsentFlagFallsBack) {
  const char* argv[] = {"axdse-serve"};
  const util::CliArgs args(1, argv);
  EXPECT_EQ(args.GetIntStrict("port", 4711), 4711);
}

TEST(CliStrictInt, GarbageThrowsInsteadOfMasking) {
  const char* argv[] = {"axdse-serve", "--port=auto"};
  const util::CliArgs args(2, argv);
  EXPECT_EQ(args.GetInt("port", 4711), 4711);  // the lenient accessor masks
  EXPECT_THROW(args.GetIntStrict("port", 4711), std::invalid_argument);

  const char* argv_bare[] = {"axdse-serve", "--port"};
  const util::CliArgs bare(2, argv_bare);
  EXPECT_THROW(bare.GetIntStrict("port", 4711), std::invalid_argument);
}

TEST(CliStrictCount, ParsesCountsAndFallsBack) {
  const char* argv[] = {"axdse-serve", "--job-workers=3", "--chunk-cells",
                        "0", "--max-queued=18446744073709551615"};
  const util::CliArgs args(5, argv);
  EXPECT_EQ(args.GetCountStrict("job-workers", 2), 3u);
  EXPECT_EQ(args.GetCountStrict("chunk-cells", 4), 0u);
  EXPECT_EQ(args.GetCountStrict("max-queued", 64),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(args.GetCountStrict("engine-workers", 7), 7u);
}

TEST(CliStrictCount, NegativeAndMalformedCountsThrow) {
  // "-1" through GetIntStrict and a size_t cast used to become 2^64-1.
  for (const char* flag :
       {"--job-workers=-1", "--job-workers=+1", "--job-workers= 1",
        "--job-workers=1.5", "--job-workers=", "--job-workers=two",
        "--job-workers=18446744073709551616"}) {
    const char* argv[] = {"axdse-serve", flag};
    const util::CliArgs args(2, argv);
    EXPECT_THROW(args.GetCountStrict("job-workers", 2), std::invalid_argument)
        << flag;
  }
}

}  // namespace
}  // namespace axdse::serve
