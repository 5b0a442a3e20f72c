// axdse-bench entry point.
//
//   axdse-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--out <dir>] [--commit <sha>]
//
// --trace 0 runs the untraced end-to-end phases; --trace 1 runs the traced
// per-layer probes instead (see README.md). The last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the lines
// before it are the same metrics as a table, with spread and sample count,
// and the host fingerprint. Exit status: 0 on success, 1 when any output
// check failed (the JSON is still printed), 2 on a usage or run error.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "report/export.hpp"

namespace {

using namespace axbench;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        while (!model.empty() && model.front() == ' ') model.erase(0, 1);
        return model;
      }
    }
  }
  return "unknown";
}

std::string HostJson(const RunOptions& options, const std::string& commit) {
  using axdse::report::JsonEscape;
#ifdef AXDSE_NO_SIMD
  const char* simd = "scalar (AXDSE_NO_SIMD)";
#else
  const char* simd = "omp-simd";
#endif
  std::ostringstream out;
  out << "{\"workload\":\"" << JsonEscape(options.workload)
      << "\",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds
      << ",\"run\":\"" << (options.trace ? "traced" : "untraced")
      << "\",\"cpu\":\"" << JsonEscape(CpuModel())
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"compiler\":\"" << JsonEscape(AXDSE_BENCH_COMPILER)
      << "\",\"build_type\":\"" << JsonEscape(AXDSE_BENCH_BUILD_TYPE)
      << "\",\"flags\":\"" << JsonEscape(AXDSE_BENCH_FLAGS)
      << "\",\"simd\":\"" << simd << "\",\"commit\":\""
      << JsonEscape(commit) << "\"}";
  return out.str();
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void PrintTable(const Report& report) {
  std::printf("%-34s %16s %-6s %8s %5s\n", "metric", "median", "unit",
              "spread", "n");
  for (const Metric& metric : report.Metrics()) {
    // A spread only where the value is the median of separate samples.
    char spread[16] = "       -";
    if (metric.samples.size() >= 2 && metric.value != 0.0) {
      double q1 = 0.0;
      double q3 = 0.0;
      Quartiles(metric.samples, &q1, &q3);
      std::snprintf(spread, sizeof spread, "%7.2f%%",
                    100.0 * (q3 - q1) / std::fabs(metric.value));
    }
    std::printf("%-34s %16.6g %-6s %8s %5zu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), spread, metric.n);
  }
  for (const std::string& failure : report.Failures())
    std::printf("FAILED: %s\n", failure.c_str());
}

std::string ResultJson(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.Failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << report.Attempted()
      << ", \"failed\": " << report.Failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : report.Metrics()) {
    out << (first ? "" : ", ") << "\""
        << axdse::report::JsonEscape(metric.name) << "\": {\"value\": "
        << Number(metric.value) << ", \"unit\": \""
        << axdse::report::JsonEscape(metric.unit) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "axdse-bench: %s\nusage: axdse-bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--out <dir>] [--commit <sha>]\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.out_dir = "axdse-bench-out";
  std::string commit = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--smoke") {
        options.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return Usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out") {
        options.out_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return Usage(std::string("bad value: ") + e.what());
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  try {
    const Mix mix = MakeMix(options.workload, options.seed, options.smoke);
    options.out_dir = (std::filesystem::path(options.out_dir) /
                       (options.workload + "-" + std::to_string(options.seed)))
                          .string();
    std::filesystem::create_directories(options.out_dir);
    const std::string host = HostJson(options, commit);
    std::printf("# host %s\n", host.c_str());

    Report report;
    if (options.trace) {
      Prepared prepared;
      SetupOnce(mix, options, &prepared);
      RunLayers(mix, prepared, options, report);
      WriteTrace(options.out_dir + "/trace.json", host, report);
    } else {
      RunEndToEnd(mix, options, report);
    }
    // Keep only the trace; the phases' state directories are scratch.
    for (const auto& entry :
         std::filesystem::directory_iterator(options.out_dir))
      if (entry.path().filename() != "trace.json")
        std::filesystem::remove_all(entry.path());
    for (const Metric& metric : report.Metrics()) {
      if (!std::isfinite(metric.value))
        throw std::runtime_error("metric " + metric.name + " is not finite");
    }
    PrintTable(report);
    std::printf("%s\n", ResultJson(report).c_str());
    std::fflush(stdout);
    return report.Failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axdse-bench: %s\n", e.what());
    return 2;
  }
}
