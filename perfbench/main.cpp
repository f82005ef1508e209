// perfbench — the repository benchmark program.
//
//   perfbench --workload <train|monitor|fleet> --seed <n> --seconds <s>
//             --trace <0|1> [--out-dir <dir>] [--model <file>]
//   perfbench --make-model <file>
//
// The second form trains the model monitor and fleet deploy and saves it
// to <file>, which the first form then loads with --model.
//
// Runs one workload against the library's public API, checks its outputs
// and prints, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. Above it, every
// figure is printed as "<kind> <name> <value> <unit>" (kind: info, e2e,
// layer) with the output digests. The metric names must match
// BENCHMARK.json (run.py checks them).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;

struct Declared {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every untraced run reports.
constexpr Declared kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"intervals_per_s", "1/s"},
    {"verdict_p50_us", "us"},
};

/// Per-layer metrics every traced run reports. A workload that never
/// enters a layer reports 0 for that layer's metrics.
constexpr Declared kLayerMetrics[] = {
    {"sim.next_us", "us"},
    {"sim.trace_bytes", "B"},
    {"sim.collect_s", "s"},
    {"hw.accesses_per_interval", "count"},
    {"core.score_p50_us", "us"},
    {"core.score_p99_us", "us"},
    {"core.train_s", "s"},
    {"core.components", "count"},
    {"core.variance_explained_pct", "%"},
    {"obs.observe_us", "us"},
    {"obs.observe_alarm_us", "us"},
    {"obs.journal_records", "count"},
    {"obs.incidents", "count"},
    {"obs.http_us", "us"},
    {"fleet.round_busy_p50_ms", "ms"},
    {"fleet.round_busy_p99_ms", "ms"},
    {"fleet.refresh_round_busy_ms", "ms"},
    {"fleet.pre_trigger_round_busy_ms", "ms"},
    {"fleet.post_trigger_round_busy_ms", "ms"},
    {"fleet.gen_late_p50_ms", "ms"},
    {"fleet.gen_late_max_ms", "ms"},
    {"fleet.json_us", "us"},
    {"fleet.session_bytes", "B"},
    {"fleet.shards", "count"},
    {"fleet.alarms", "count"},
    {"fleet.incident_groups", "count"},
    {"prof.score.project_us", "us"},
    {"prof.score.gmm_us", "us"},
    {"prof.score.spe_us", "us"},
    {"prof.score.observe_us", "us"},
    {"prof.shard.gather_us", "us"},
    {"prof.shard.scatter_us", "us"},
    {"prof.train.covariance_s", "s"},
    {"prof.train.eigensolve_s", "s"},
    {"prof.train.em_s", "s"},
    {"self.sim_pct", "%"},
    {"self.hw_pct", "%"},
    {"self.core_pct", "%"},
    {"self.engine_pct", "%"},
    {"self.fleet_pct", "%"},
    {"self.obs_pct", "%"},
    {"self.pipeline_pct", "%"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|monitor|fleet> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>] [--model <file>]\n"
               "       perfbench --make-model <file>\n",
               why);
  return 2;
}

/// Order `got` as `declared`, adding a 0 for each declared metric the
/// workload did not measure; move undeclared ones (such as the idle
/// layer's self time) to `info`.
template <std::size_t N>
void complete(std::vector<Metric>& got, const Declared (&declared)[N],
              std::vector<Metric>& info) {
  std::vector<Metric> out;
  for (const Declared& d : declared) out.push_back({d.name, 0.0, d.unit});
  for (const Metric& g : got) {
    bool known = false;
    for (Metric& m : out) {
      if (m.name == g.name) {
        m.value = g.value;
        known = true;
      }
    }
    if (!known) info.push_back(g);
  }
  got = std::move(out);
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  bool trace = false;
  std::string make_model;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      trace = value[0] == '1';
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--model") {
      options.model_path = value;
    } else if (arg == "--make-model") {
      make_model = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!make_model.empty()) {
    try {
      perfbench::make_deployed_model(make_model);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (!have_workload) return usage("--workload is required");
  if (options.model_path.empty()) {
    options.model_path =
        (std::filesystem::path(options.out_dir) / "deployed.mhmm").string();
  }

  perfbench::Tracer tracer(trace);
  perfbench::Result result;
  const perfbench::CpuTimes cpu0 = perfbench::cpu_times();
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "train") {
      result = perfbench::run_train(options, tracer);
    } else if (options.workload == "monitor") {
      result = perfbench::run_monitor(options, tracer);
    } else if (options.workload == "fleet") {
      result = perfbench::run_fleet(options, tracer);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  result.info.push_back(
      {"host_steal_pct",
       perfbench::steal_pct(cpu0, perfbench::cpu_times()), "%"});
  complete(result.e2e, kEndToEndMetrics, result.info);
  complete(result.layer, kLayerMetrics, result.info);
  for (const auto& [name, hex] : result.digests) {
    std::printf("digest %s %s\n", name.c_str(), hex.c_str());
  }
  print_metrics("info", result.info);
  print_metrics("e2e", result.e2e);
  if (trace) {
    print_metrics("layer", result.layer);
    // One file per workload: a traced monitor run holds ~10^6 spans.
    const std::string path = (std::filesystem::path(options.out_dir) /
                              (options.workload + ".trace.json"))
                                 .string();
    if (!tracer.export_chrome(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace %s (%zu spans)\n", path.c_str(), tracer.span_count());
  }

  const std::vector<Metric>& reported =
      trace ? result.layer : result.e2e;
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
