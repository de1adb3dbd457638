// perfbench — times nuchase's public entry points from outside, checks
// every operation's output, and prints one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// Workloads: materialize-guarded, decide-guarded, serve-mixed.
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every layer call, writes them to --spans, and reports the
// per-layer metrics it measured instead, listing on the detail line
// the ones this workload does not measure. The last line of standard
// output is {"correct", "attempted", "failed", "metrics"}; the line
// before it is a {"detail": ...} object with sample counts, input sizes
// and the host-drift references.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const unsigned long long seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seed > 0xffffffffull) {
        Usage("bad --seed " + value);
      }
      config.seed = static_cast<std::uint32_t>(seed);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(config.seconds > 0) ||
          config.seconds > 600) {
        Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace " + value);
      config.trace = value == "1";
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_workload) Usage("--workload is required");
  return config;
}

void PrintNumber(const char* key, double value, bool comma) {
  std::printf("\"%s\": %.17g%s", key, value, comma ? ", " : "");
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}%s",
                metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str(), i + 1 < metrics.size() ? ", " : "");
  }
  std::printf("}");
}

int Main(int argc, char** argv) {
  const Config config = ParseArgs(argc, argv);
  using Runner = Result (*)(const Config&, Tracer*);
  const std::map<std::string, Runner> runners = {
      {"materialize-guarded", RunMaterializeGuarded},
      {"decide-guarded", RunDecideGuarded},
      {"serve-mixed", RunServeMixed},
  };
  const auto runner = runners.find(config.workload);
  if (runner == runners.end()) Usage("unknown workload " + config.workload);

  const CpuTicks ticks_before = ReadCpuTicks();
  std::vector<double> spin;
  for (int i = 0; i < 5; ++i) spin.push_back(SpinMs());
  Tracer tracer(config.trace);
  Result result = runner->second(config, &tracer);
  for (int i = 0; i < 5; ++i) spin.push_back(SpinMs());
  const double steal_pct = StealPercent(ticks_before, ReadCpuTicks());

  const OpLog& log = result.log;
  const double busy = log.BusySeconds();
  const double ops_per_s =
      Ratio(static_cast<double>(log.completed()), busy);
  const double p50 = MeanOfKindQuantiles(log.latencies_ms(), 0.5);
  const double p90 = MeanOfKindQuantiles(log.latencies_ms(), 0.9);
  const double spin_ms = Median(spin);
  const std::uint64_t attempted = log.attempted() + result.probe_attempted;
  const std::uint64_t failed = log.failed() + result.probe_failed;

  std::vector<Metric> metrics;
  if (config.trace) {
    metrics = result.layer;
    metrics.push_back({"trace.ops_per_s", ops_per_s, "1/s"});
    metrics.push_back({"trace.latency_p50_ms", p50, "ms"});
    metrics.push_back({"host.spin_ms", spin_ms, "ms"});
    metrics.push_back({"host.steal_pct", steal_pct, "%"});
    if (!config.spans_path.empty() && !tracer.WriteJson(config.spans_path)) {
      Fatal("cannot write spans to " + config.spans_path);
    }
  } else {
    metrics = {{"ops_per_s", ops_per_s, "1/s"},
               {"latency_p50_ms", p50, "ms"},
               {"latency_p90_ms", p90, "ms"},
               {"setup_s", Median(result.setup_s), "s"},
               {"peak_rss_mb", PeakRssMb(), "MB"}};
  }

  std::printf("{\"detail\": {\"workload\": \"%s\", ", config.workload.c_str());
  PrintNumber("seed", config.seed, true);
  PrintNumber("seconds", config.seconds, true);
  PrintNumber("trace", config.trace ? 1 : 0, true);
  PrintNumber("samples", static_cast<double>(log.completed()), true);
  for (std::size_t k = 0; k < log.latencies_ms().size(); ++k) {
    const std::string key = "samples_input" + std::to_string(k);
    PrintNumber(key.c_str(), static_cast<double>(log.latencies_ms()[k].size()),
                true);
  }
  PrintNumber("busy_s", busy, true);
  PrintNumber("setup_reps", static_cast<double>(result.setup_s.size()), true);
  PrintNumber("probe_attempted", static_cast<double>(result.probe_attempted),
              true);
  for (const auto& [key, value] : result.detail) {
    PrintNumber(key.c_str(), value, true);
  }
  PrintNumber("host.spin_ms", spin_ms, true);
  PrintNumber("host.steal_pct", steal_pct, false);
  if (config.trace) {
    std::printf(", \"unmeasured\": [");
    for (std::size_t i = 0; i < result.unmeasured.size(); ++i) {
      std::printf("\"%s\"%s", result.unmeasured[i].c_str(),
                  i + 1 < result.unmeasured.size() ? ", " : "");
    }
    std::printf("]");
  }
  std::printf("}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  PrintMetrics(metrics);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
