// mcdft_perfbench — the repo's end-to-end and per-layer benchmark.
//
//   mcdft_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR]
//
// Workloads: flow-ac-cascade6, campaign-transient-cascade6, service-mixed
// (see perfbench/README.md).  --trace 0 measures the end-to-end metrics
// with instrumentation off; --trace 1 is the separate traced run that
// reports the per-layer metrics.  The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  Exit code 0 on a
// completed run (checks that fail set "correct": false), 2 on bad usage,
// 1 when the run could not complete.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"op_p50_s", "s"},     {"op_tail_s", "s"},
    {"ops_per_s", "1/s"},   {"cells_per_s", "1/s"}, {"cpu_s_per_op", "s"},
    {"rss_peak_mb", "MiB"}, {"hit_p50_s", "s"},    {"miss_p50_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.campaign.frame_s", "s"},
    {"core.campaign.prepare_s", "s"},
    {"testability.envelope_s", "s"},
    {"testability.envelope.samples", "count"},
    {"testability.envelope.par_eff", "ratio"},
    {"faults.simulate_s", "s"},
    {"faults.cells", "count"},
    {"faults.screened_ratio", "ratio"},
    {"faults.simulate.par_eff", "ratio"},
    {"faults.sim.quarantined", "count"},
    {"testability.analyze_s", "s"},
    {"spice.assemble_us", "us"},
    {"spice.mna.solves", "count"},
    {"linalg.refactor_us", "us"},
    {"linalg.solve_us", "us"},
    {"linalg.full_factors", "count"},
    {"linalg.refactor_fallback_ratio", "ratio"},
    {"linalg.smw.updates", "count"},
    {"core.optimizer.fundamental_s", "s"},
    {"core.optimizer.count_s", "s"},
    {"core.optimizer.partial_s", "s"},
    {"boolcov.minimal_covers", "count"},
    {"core.report.render_s", "s"},
    {"core.report.bytes", "bytes"},
    {"core.server.submit_s.compute", "s"},
    {"core.server.submit_s.memory", "s"},
    {"core.server.submit_s.dedup", "s"},
    {"core.server.submit_s.disk", "s"},
    {"core.server.protocol_s", "s"},
    {"core.server.queue_wait_s", "s"},
    {"core.server.computed", "count"},
    {"core.server.dedup_hits", "count"},
    {"core.server.rejected", "count"},
    {"core.cache.hit_ratio", "ratio"},
    {"core.cache.lookup_us", "us"},
    {"core.cache.store_us", "us"},
    {"core.cache.disk_read_us", "us"},
    {"spice.factor_cache.hit_ratio", "ratio"},
    {"trace.op_self_s", "s"},
    {"trace.op_p50_s", "s"},
    {"trace.overhead_s", "s"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: mcdft_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

void PrintResult(const RunResult& result, bool trace) {
  std::string metrics;
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  auto emit = [&](const MetricSpec& spec, double value) {
    std::printf("%-34s %16.6g  %s\n", spec.name, value, spec.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = result.metrics.find(spec.name);
      emit(spec, it == result.metrics.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec, result.metrics.at(spec.name));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct && result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, args)) return Usage("bad arguments");
  try {
    std::filesystem::create_directories(args.work_dir);
    RunResult result;
    if (args.workload == "flow-ac-cascade6") {
      result = perfbench::RunFlowAc(args);
    } else if (args.workload == "campaign-transient-cascade6") {
      result = perfbench::RunTransientCampaign(args);
    } else if (args.workload == "service-mixed") {
      result = perfbench::RunServiceMixed(args);
    } else {
      return Usage(("unknown workload '" + args.workload + "'").c_str());
    }
    PrintResult(result, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
