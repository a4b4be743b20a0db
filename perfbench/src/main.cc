// End-to-end benchmark driver: one workload per process.
//
//   perfbench --workload train|edit_loop|serve --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--source-id TEXT]
//
// Prints a host block, then as its last stdout line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|edit_loop|serve --seed N --seconds S --trace 0|1 "
               "--out-dir DIR [--source-id TEXT]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.process_start = perfbench::NowSeconds();
  std::string source_id = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int a = 1; a < argc; ++a) {
    const std::string flag = argv[a];
    if (a + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++a];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || config.out_dir.empty()) {
    return Usage("--workload, --seed and --out-dir are required");
  }
  if (!(config.seconds > 0.0) || config.seconds > 120.0) {
    return Usage("--seconds must be in (0, 120]");
  }

  std::printf("host: nproc=%u build=%s compiler=%s source=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, source_id.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::RunResult result;
  if (config.workload == "train") {
    result = perfbench::RunTrain(config);
  } else if (config.workload == "edit_loop") {
    result = perfbench::RunEditLoop(config);
  } else if (config.workload == "serve") {
    result = perfbench::RunServe(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  const auto& wanted = config.trace ? perfbench::kPerLayerMetrics
                                    : perfbench::kEndToEndMetrics;
  std::string metrics;
  for (const auto& [name, unit] : wanted) {
    double value = 0.0;
    auto it = result.metrics.find(name);
    if (it != result.metrics.end()) {
      value = it->second;
    } else if (!config.trace) {
      result.Check(std::string("end-to-end metric not measured: ") + name);
    }
    if (!std::isfinite(value)) {
      result.Check(std::string("metric is not finite: ") + name);
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(unit) + "}";
  }
  if (result.attempted == 0) {
    result.Check("no operation was attempted");
    result.attempted = 1;
    result.failed = 1;
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
