// mhm_tool — command-line front end for the Memory Heat Map pipeline.
//
//   mhm_tool train   --out model.mhm [--runs N] [--seconds S] [--granularity B]
//                    [--components L'] [--gmm J] [--seed X]
//       Profile normal behaviour of the simulated system and save the
//       trained detector (eigenmemory + GMM + thresholds).
//
//   mhm_tool inspect --model model.mhm
//       Print what a trained model contains.
//
//   mhm_tool monitor --model model.mhm [--attack name] [--trigger-ms T]
//                    [--duration-ms D] [--seed X] [--csv out.csv]
//                    [--save-trace trace.mhmt]
//       Run a (possibly attacked) live system against a trained model and
//       report per-interval verdicts. --model also accepts a registry
//       directory (latest version wins); --save-trace records the run's
//       heat maps for later `replay`. Exit code 2 if any anomaly was
//       flagged.
//
//   mhm_tool simulate [--duration-ms D] [--seed X] [--granularity B]
//       Run the simulator alone and print per-interval MHM summaries.
//
//   mhm_tool record  --out trace.mhmt [--runs N] [--seconds S]
//                    [--granularity B] [--seed X]
//       Profile normal behaviour and persist the raw MHM trace, so
//       detectors with different hyper-parameters can be trained later
//       without re-running the system (see `train --trace`).
//
//   mhm_tool train --trace trace.mhmt --out model.mhm [--components L']
//                  [--gmm J]
//       Train from a previously recorded trace instead of a live run.
//       Either train form also accepts --registry DIR (instead of, or in
//       addition to, --out) to store the model in a versioned registry
//       directory under the next free version id.
//
//   mhm_tool replay <trace.mhmt> --model <file-or-registry-dir>
//                   [--version N] [--csv out.csv]
//       Re-score a recorded trace offline through a detection-engine
//       session. --model accepts a single .mhmm file or a registry
//       directory (latest version unless --version picks one). The CSV
//       columns match `monitor --csv`, so a live run saved with
//       --save-trace replays to byte-identical verdicts.
//
//   mhm_tool ingest --in addresses.txt --out trace.mhmt [--base A]
//                   [--size S] [--granularity B] [--interval-ms I]
//       Convert an external text address trace (gem5/valgrind-style:
//       "time_ns address [size [sweeps]]" per line) into a heat-map trace
//       by running it through the Memometer model, ready for
//       `train --trace`.
//
//   mhm_tool metrics [--seconds S] [--seed X] [--granularity B]
//                    [--format prom|json] [--out file] [--spans file]
//       Run the simulator briefly and export the process metrics registry
//       (Prometheus text by default, JSON-lines with --format json);
//       --spans additionally dumps the tracing-span ring as JSON-lines.
//
//   mhm_tool journal [--attack name] [--trigger-ms T] [--duration-ms D]
//                    [--seed X] [--format text|jsonl] [--out file]
//       Train a fast-scale detector in-process, run an attack scenario,
//       and explain every alarm from the decision journal: interval,
//       density vs. threshold, and the cells that deviated most from the
//       training baseline.
//
//   mhm_tool retrain --trace trace.mhmt --registry <dir> [--window N]
//                    [--min-window N] [--components K] [--gmm J]
//                    [--restarts R]
//       Manual continuous-training trigger: load the latest registry
//       version, replay the trace through an engine session (clean
//       intervals land in the retrain window), run one train → validate →
//       publish attempt with the fast top-k PCA path, and register the
//       candidate as the next version. Prints the validation report
//       (holdout alarm rate vs. Wilson bounds, median shift); exit 1 when
//       a gate rejects the candidate.
//
//   mhm_tool serve   [--port P] [--scenarios N] [--attack name]
//                    [--trigger-ms T] [--duration-ms D] [--seed X]
//                    [--flight-dir DIR] [--linger-ms L] [--registry DIR]
//                    [--incident-gap N] [--auto-retrain 0|1]
//                    [--retrain-window N] [--retrain-sustain N]
//                    [--retrain-cooldown N] [--retrain-min-window N]
//                    [--mode-change-after S]
//       Train a fast-scale detector, arm the flight recorder and the
//       incident store (bundles land in --flight-dir), start the HTTP
//       monitoring endpoint on 127.0.0.1:P (0 = ephemeral, printed at
//       startup) and replay N attack scenarios against it, scored as one
//       continuous stream by one live session, so /metrics, /status,
//       /journal, /trace, /history and /incidents serve live data.
//       --registry saves the trained model there first and stamps
//       its version on every verdict and bundle (the handle `incidents
//       replay` needs); --incident-gap shrinks the per-stream rate limit;
//       --linger-ms keeps the endpoint up after the replays.
//       --auto-retrain 1 gives that session a clean-interval window and a
//       drift-triggered retrain → validate → hot-swap loop (state under
//       /model's "retrain" key; publishes annotate the journal and leave
//       a retrain_publish incident marker). --mode-change-after S makes
//       every replay from index S on run with a persistent new background
//       activity source — the environment drift the loop absorbs.
//
//   mhm_tool incidents list --dir <dir>
//   mhm_tool incidents show --in <file.mhmi>
//   mhm_tool incidents replay --in <file.mhmi> --registry <dir>
//       Black-box forensics on committed `.mhmi` bundles: scan a
//       directory, pretty-print one bundle (exit 1 if truncated), or
//       re-score the captured pre/post window through the bundled model
//       version from the registry and assert the verdicts reproduce
//       bit-identically (hexfloat compare; exit 0 only on a perfect
//       match).
//
//   mhm_tool fleet   [--spec fleet.ini] [--devices N] [--shards S]
//                    [--intervals I] [--seed X] [--top-k K] [--attack name]
//                    [--trigger R] [--port P] [--watch 0|1] [--linger-ms L]
//                    [--flight-dir DIR]
//       Train a fast-scale detector, fan a fleet spec out into N simulated
//       device streams (per-device archetype, seed and phase), score them
//       through the sharded engine, and serve the aggregated rollup +
//       top-K anomaly ranking at GET /fleet (plus fleet_* metrics). With
//       no --spec a default steady/bursty/attacked mix is used; --watch
//       renders a live terminal dashboard; --linger-ms keeps the endpoint
//       up after the run for external scrapers.
//
//   mhm_tool watch   --port P [--interval-ms I] [--iterations N] [--clear 0|1]
//       Live model-health dashboard: poll GET /model on a serving process
//       (see `serve`) and render status, score sparkline vs. training
//       quantiles, drift statistics, component occupancy bars, and the
//       latest heat-map row. --iterations 0 (default) polls until killed.
//
//   mhm_tool prof    --port P [--top N] [--format table|json|collapsed]
//       Continuous-profiler view of a serving process: fetch GET /profile
//       and render the per-stage wall/IPC/cache-miss attribution table
//       sorted by wall time (--top N keeps the N hottest stages);
//       --format json prints the raw document, --format collapsed prints
//       flamegraph.pl / speedscope collapsed stacks.
//
//   mhm_tool dump    --in file.mhmdump
//       Pretty-print a flight-recorder dump: why and when it was written,
//       headline metrics, journal alarms, and the captured heatmap row.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/ascii_plot.hpp"
#include "common/csv.hpp"
#include "core/model_io.hpp"
#include "core/snapshot.hpp"
#include "core/trace_io.hpp"
#include "dashboard.hpp"
#include "engine/engine.hpp"
#include "engine/retrain.hpp"
#include "engine/source.hpp"
#include "fleet/runner.hpp"
#include "hw/address_trace.hpp"
#include "hw/memometer.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/incident.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"
#include "obs/server.hpp"
#include "pipeline/experiment.hpp"

namespace {

using namespace mhm;
using namespace mhm::tool;  // Shared dashboard helpers (tools/dashboard.hpp).

/// Tiny flag parser: --key value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw ConfigError(std::string("expected --flag, got ") + argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      throw ConfigError("flags must come in --key value pairs");
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  std::optional<std::string> get_optional(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  bool require(const std::string& key, std::string* out) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return false;
    *out = it->second;
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
};

sim::SystemConfig config_from(const Args& args) {
  sim::SystemConfig cfg =
      sim::SystemConfig::paper_default(args.get_u64("seed", 1));
  cfg.monitor.granularity = args.get_u64("granularity", 2048);
  cfg.monitor.validate();
  return cfg;
}

/// Persist a freshly trained model to --out and/or --registry.
void save_trained(const Args& args, const DetectorModel& model) {
  if (const auto out_path = args.get_optional("out")) {
    save_model_file(model, *out_path);
    std::printf("model written to %s\n", out_path->c_str());
  }
  if (const auto registry_dir = args.get_optional("registry")) {
    ModelRegistry registry(*registry_dir);
    const std::uint64_t version = registry.save(model);
    std::printf("model registered as version %llu in %s\n",
                static_cast<unsigned long long>(version),
                registry.directory().c_str());
  }
}

int cmd_train(const Args& args) {
  if (!args.get_optional("out") && !args.get_optional("registry")) {
    std::fprintf(stderr,
                 "train: --out <file> or --registry <dir> is required\n");
    return 1;
  }
  TrainOptions opts;
  opts.pca.components = args.get_u64("components", 9);
  opts.gmm.components = args.get_u64("gmm", 5);
  opts.gmm.restarts = args.get_u64("restarts", 10);

  if (const auto trace_path = args.get_optional("trace")) {
    // Offline training from a recorded trace: first 80 % of the maps train
    // the model, the rest calibrate the thresholds.
    const RecordedTrace trace = load_trace_file(*trace_path);
    if (trace.maps.size() < 20) {
      std::fprintf(stderr, "train: trace too small (%zu maps)\n",
                   trace.maps.size());
      return 1;
    }
    const auto split = trace.maps.begin() +
                       static_cast<std::ptrdiff_t>(trace.maps.size() * 4 / 5);
    const HeatMapTrace training(trace.maps.begin(), split);
    const HeatMapTrace validation(split, trace.maps.end());
    const ModelSnapshot model =
        train_snapshot(as_rows(training), as_rows(validation), opts);
    std::printf("trained offline on %zu + %zu MHMs from %s; "
                "variance explained %.4f%%\n",
                training.size(), validation.size(), trace_path->c_str(),
                100.0 * model.pca.variance_explained());
    save_trained(args, DetectorModel::from_snapshot(model));
    return 0;
  }

  sim::SystemConfig cfg = config_from(args);
  pipeline::ProfilingPlan plan;
  plan.runs = args.get_u64("runs", 10);
  plan.run_duration = args.get_u64("seconds", 3) * kSecond;

  std::printf("profiling %zu runs x %.1f s at granularity %llu (L = %zu)...\n",
              plan.runs,
              static_cast<double>(plan.run_duration) / kSecond,
              static_cast<unsigned long long>(cfg.monitor.granularity),
              cfg.monitor.cell_count());
  pipeline::TrainedPipeline pipe = pipeline::train_pipeline(cfg, plan, opts);

  std::printf("trained on %zu MHMs; variance explained %.4f%%; "
              "theta_0.5 = %.2f, theta_1 = %.2f\n",
              pipe.training.size(),
              100.0 * pipe.det().eigenmemory().variance_explained(),
              pipe.theta_05.log10_value, pipe.theta_1.log10_value);
  save_trained(args, DetectorModel::from_detector(pipe.det()));
  return 0;
}

int cmd_record(const Args& args) {
  std::string out_path;
  if (!args.require("out", &out_path)) {
    std::fprintf(stderr, "record: --out <file> is required\n");
    return 1;
  }
  sim::SystemConfig cfg = config_from(args);
  pipeline::ProfilingPlan plan;
  plan.runs = args.get_u64("runs", 10);
  plan.run_duration = args.get_u64("seconds", 3) * kSecond;
  plan.seed_base = args.get_u64("seed", 1) + 99;

  RecordedTrace trace;
  trace.config = cfg.monitor;
  trace.maps = pipeline::collect_normal_trace(cfg, plan);
  save_trace_file(trace, out_path);
  std::printf("recorded %zu MHMs (%zu cells each) to %s\n",
              trace.maps.size(), trace.config.cell_count(), out_path.c_str());
  return 0;
}

int cmd_ingest(const Args& args) {
  std::string in_path;
  std::string out_path;
  if (!args.require("in", &in_path) || !args.require("out", &out_path)) {
    std::fprintf(stderr, "ingest: --in <trace.txt> and --out <trace.mhmt> "
                         "are required\n");
    return 1;
  }
  MhmConfig monitor;
  monitor.base = args.get_u64("base", 0xC0008000);
  monitor.size = args.get_u64("size", 3'013'284);
  monitor.granularity = args.get_u64("granularity", 2048);
  monitor.interval = args.get_u64("interval-ms", 10) * kMillisecond;
  monitor.validate();

  RecordedTrace trace;
  trace.config = monitor;
  hw::MemoryBus bus;
  hw::Memometer meter(monitor, 0,
                      [&](const HeatMap& m) { trace.maps.push_back(m); });
  bus.attach(&meter);
  const auto stats = hw::replay_address_trace_file(in_path, bus);
  meter.finish(stats.last_time, /*deliver_partial=*/false);

  save_trace_file(trace, out_path);
  std::printf("ingested %llu access lines (%llu fetches, %.1f ms of trace); "
              "%llu in-region, %llu filtered\n",
              static_cast<unsigned long long>(stats.lines_parsed),
              static_cast<unsigned long long>(stats.accesses),
              static_cast<double>(stats.last_time - stats.first_time) /
                  kMillisecond,
              static_cast<unsigned long long>(meter.accesses_counted()),
              static_cast<unsigned long long>(meter.accesses_filtered_out()));
  std::printf("%zu complete heat maps (%zu cells) -> %s\n", trace.maps.size(),
              monitor.cell_count(), out_path.c_str());
  return 0;
}

int cmd_inspect(const Args& args) {
  std::string model_path;
  if (!args.require("model", &model_path)) {
    std::fprintf(stderr, "inspect: --model <file> is required\n");
    return 1;
  }
  const DetectorModel model = load_model_file(model_path);
  std::printf("model: %s\n", model_path.c_str());
  std::printf("  eigenmemory: %zu components over %zu cells, "
              "variance explained %.4f%%\n",
              model.eigenmemory.components(), model.eigenmemory.input_dim(),
              100.0 * model.eigenmemory.variance_explained());
  std::printf("  GMM: %zu components over %zu dims (%zu parameters)\n",
              model.gmm.component_count(), model.gmm.dimension(),
              model.gmm.parameter_count());
  for (std::size_t j = 0; j < model.gmm.component_count(); ++j) {
    std::printf("    pattern %zu: weight %.3f\n", j,
                model.gmm.components()[j].weight);
  }
  const ThresholdCalibrator cal(model.validation_scores);
  std::printf("  thresholds: theta_0.5 = %.2f, theta_1 = %.2f "
              "(from %zu validation scores); primary p = %.3f\n",
              cal.theta_05().log10_value, cal.theta_1().log10_value,
              model.validation_scores.size(), model.primary_p);
  return 0;
}

int cmd_monitor(const Args& args) {
  std::string model_path;
  if (!args.require("model", &model_path)) {
    std::fprintf(stderr, "monitor: --model <file> is required\n");
    return 1;
  }
  const DetectorModel model = std::filesystem::is_directory(model_path)
                                  ? ModelRegistry(model_path).load_latest()
                                  : load_model_file(model_path);
  const std::shared_ptr<const ModelSnapshot> snapshot = model.to_snapshot();

  sim::SystemConfig cfg = config_from(args);
  if (cfg.monitor.cell_count() != snapshot->pca.input_dim()) {
    std::fprintf(stderr,
                 "monitor: model expects %zu cells but the configured system "
                 "produces %zu — match --granularity to the training run\n",
                 snapshot->pca.input_dim(), cfg.monitor.cell_count());
    return 1;
  }

  const SimTime duration = args.get_u64("duration-ms", 4000) * kMillisecond;
  const SimTime trigger = args.get_u64("trigger-ms", 2000) * kMillisecond;
  std::unique_ptr<attacks::AttackScenario> attack;
  if (const auto name = args.get_optional("attack")) {
    attack = attacks::make_scenario(*name);
  }

  pipeline::ScenarioRun run = pipeline::run_scenario(
      cfg, attack.get(), trigger, duration, snapshot,
      args.get_u64("seed", 42));

  LinePlotOptions plot;
  plot.title = attack ? "log10 Pr(M) — attack '" + run.scenario + "' at the bar"
                      : "log10 Pr(M) — normal run";
  plot.hlines = {snapshot->primary.log10_value};
  if (attack) plot.vlines = {static_cast<double>(run.trigger_interval)};
  std::fputs(render_line_plot(run.log10_densities(), plot).c_str(), stdout);

  std::size_t alarms = 0;
  for (const auto& v : run.verdicts) alarms += v.anomalous;
  std::printf("%zu intervals analyzed, %zu flagged anomalous "
              "(threshold theta at p = %.3f)\n",
              run.verdicts.size(), alarms, snapshot->primary.p);
  if (attack) {
    const auto latency =
        run.detection_latency(snapshot->primary.log10_value);
    std::printf("attack '%s' at interval %llu: %s\n", run.scenario.c_str(),
                static_cast<unsigned long long>(run.trigger_interval),
                latency ? ("detected +" + std::to_string(*latency) +
                           " intervals")
                              .c_str()
                        : "NOT detected");
  }

  if (const auto csv_path = args.get_optional("csv")) {
    CsvWriter csv(*csv_path);
    csv.header({"interval", "log10_density", "anomalous"});
    for (std::size_t i = 0; i < run.verdicts.size(); ++i) {
      csv.row()
          .col(run.verdicts[i].interval_index)
          .col(run.verdicts[i].log10_density)
          .col(static_cast<int>(run.verdicts[i].anomalous));
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  if (const auto trace_path = args.get_optional("save-trace")) {
    RecordedTrace trace;
    trace.config = cfg.monitor;
    trace.maps = run.maps;
    save_trace_file(trace, *trace_path);
    std::printf("trace written to %s\n", trace_path->c_str());
  }
  return alarms > 0 ? 2 : 0;
}

int cmd_replay(const std::string& trace_path, const Args& args) {
  std::string model_path;
  if (!args.require("model", &model_path)) {
    std::fprintf(stderr,
                 "replay: --model <file-or-registry-dir> is required\n");
    return 1;
  }
  std::shared_ptr<const ModelSnapshot> snapshot;
  if (std::filesystem::is_directory(model_path)) {
    const ModelRegistry registry(model_path);
    const std::uint64_t version = args.get_u64("version", 0);
    snapshot = version != 0 ? registry.load_snapshot(version)
                            : registry.load_latest_snapshot();
  } else {
    snapshot = load_model_file(model_path).to_snapshot();
  }

  engine::TraceReplaySource source =
      engine::TraceReplaySource::from_file(trace_path);
  if (!source.maps().empty() &&
      source.maps().front().cell_count() != snapshot->pca.input_dim()) {
    std::fprintf(stderr,
                 "replay: model expects %zu cells but the trace has %zu — "
                 "it was recorded at a different granularity\n",
                 snapshot->pca.input_dim(),
                 source.maps().front().cell_count());
    return 1;
  }

  const engine::DetectionEngine engine(snapshot);
  engine::Session session = engine.new_session();
  const std::vector<Verdict> verdicts = session.run(source);
  std::size_t alarms = 0;
  for (const auto& v : verdicts) alarms += v.anomalous;
  std::printf("replayed %zu intervals from %s against model version %llu: "
              "%zu flagged anomalous (threshold theta at p = %.3f)\n",
              verdicts.size(), trace_path.c_str(),
              static_cast<unsigned long long>(snapshot->version), alarms,
              snapshot->primary.p);

  if (const auto csv_path = args.get_optional("csv")) {
    CsvWriter csv(*csv_path);
    csv.header({"interval", "log10_density", "anomalous"});
    for (const auto& v : verdicts) {
      csv.row()
          .col(v.interval_index)
          .col(v.log10_density)
          .col(static_cast<int>(v.anomalous));
    }
    std::printf("wrote %s\n", csv_path->c_str());
  }
  return 0;
}

/// Manual retrain from a recorded trace: load the latest registry model,
/// replay the trace through an engine session whose clean-interval window
/// collects every vouched-for row, run one train → validate → publish
/// attempt, and register the candidate as the next version. Exit 0 on
/// publish, 1 on rejection (the report says which gate fired).
int cmd_retrain(const Args& args) {
  std::string trace_path;
  std::string registry_dir;
  if (!args.require("trace", &trace_path) ||
      !args.require("registry", &registry_dir)) {
    std::fprintf(stderr,
                 "retrain: --trace <trace.mhmt> and --registry <dir> are "
                 "required\n");
    return 1;
  }
  auto registry = std::make_shared<ModelRegistry>(registry_dir);
  const std::shared_ptr<const ModelSnapshot> snapshot =
      registry->load_latest_snapshot();

  engine::TraceReplaySource source =
      engine::TraceReplaySource::from_file(trace_path);
  if (source.maps().empty()) {
    std::fprintf(stderr, "retrain: %s holds no heat maps\n",
                 trace_path.c_str());
    return 1;
  }
  if (source.maps().front().cell_count() != snapshot->pca.input_dim()) {
    std::fprintf(stderr,
                 "retrain: model expects %zu cells but the trace has %zu — "
                 "it was recorded at a different granularity\n",
                 snapshot->pca.input_dim(),
                 source.maps().front().cell_count());
    return 1;
  }

  engine::DetectionEngine engine(snapshot);
  engine::SessionOptions so;
  so.clean_window_capacity =
      args.get_u64("window", source.maps().size());
  engine::Session session = engine.new_session(so);
  const std::vector<Verdict> verdicts = session.run(source);
  std::size_t alarms = 0;
  for (const auto& v : verdicts) alarms += v.anomalous;
  const auto window = session.clean_window();
  std::printf("replayed %zu intervals against model version %llu: %zu "
              "alarms; clean window holds %zu rows\n",
              verdicts.size(),
              static_cast<unsigned long long>(snapshot->version), alarms,
              window->size());

  engine::RetrainManager::Options ro;
  ro.background = false;
  ro.min_window = args.get_u64("min-window", 96);
  ro.components = args.get_u64("components", 0);
  ro.gmm_components = args.get_u64("gmm", 0);
  ro.gmm_restarts = args.get_u64("restarts", 4);
  engine::RetrainManager manager(engine, window, registry, ro);
  const engine::RetrainReport report =
      manager.retrain_now(verdicts.back().interval_index);

  std::printf("candidate: %zu train / %zu calibrate / %zu holdout rows\n",
              report.train_rows, report.calibration_rows,
              report.holdout_rows);
  std::printf("validation: holdout alarm rate %.4f (expected p %.4f, "
              "Wilson [%.4f, %.4f]), median shift %.3f log10\n",
              report.holdout_alarm_rate, report.expected_p,
              report.wilson_low, report.wilson_high, report.quantile_shift);
  if (!report.accepted) {
    std::printf("retrain rejected: %s (%.2f s)\n", report.reason.c_str(),
                report.train_seconds);
    return 1;
  }
  std::printf("retrain published as version %llu in %s (%.2f s)\n",
              static_cast<unsigned long long>(report.version),
              registry->directory().c_str(), report.train_seconds);
  return 0;
}

int cmd_simulate(const Args& args) {
  sim::SystemConfig cfg = config_from(args);
  sim::System system(cfg);
  system.run_for(args.get_u64("duration-ms", 500) * kMillisecond);
  for (const auto& map : system.trace()) {
    std::printf("%s\n", summarize(map).c_str());
  }
  const auto& stats = system.scheduler().stats();
  std::printf("jobs: %llu released / %llu completed, %llu deadline misses, "
              "%llu context switches, CPU %.1f%% busy\n",
              static_cast<unsigned long long>(stats.jobs_released),
              static_cast<unsigned long long>(stats.jobs_completed),
              static_cast<unsigned long long>(stats.deadline_misses),
              static_cast<unsigned long long>(stats.context_switches),
              100.0 * stats.cpu_utilization());
  std::printf("%-12s %10s %10s %14s %14s\n", "task", "period", "jobs",
              "mean response", "worst response");
  for (const auto& t : system.scheduler().tasks()) {
    std::printf("%-12s %7.0f ms %10llu %11.2f ms %11.2f ms\n",
                t.spec.name.c_str(),
                static_cast<double>(t.spec.period) / kMillisecond,
                static_cast<unsigned long long>(t.jobs_completed),
                static_cast<double>(t.mean_response()) / kMillisecond,
                static_cast<double>(t.worst_response) / kMillisecond);
  }
  return 0;
}

/// Write `text` to `--out` when given, stdout otherwise.
int emit_text(const Args& args, const std::string& text) {
  if (const auto out = args.get_optional("out")) {
    std::ofstream file(*out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", out->c_str());
      return 1;
    }
    file << text;
    std::printf("wrote %s\n", out->c_str());
    return 0;
  }
  std::fputs(text.c_str(), stdout);
  return 0;
}

int cmd_metrics(const Args& args) {
  // Exercise the full stack briefly so the registry has live values — the
  // same counters accumulate inside every other subcommand; this one exists
  // to demonstrate and export them.
  sim::SystemConfig cfg = config_from(args);
  sim::System system(cfg);
  system.run_for(args.get_u64("seconds", 2) * kSecond);

  const std::string format = args.get("format", "prom");
  std::string text;
  if (format == "prom") {
    text = obs::prometheus_text();
  } else if (format == "json") {
    text = obs::metrics_json_lines();
  } else {
    std::fprintf(stderr, "metrics: unknown --format '%s' (prom|json)\n",
                 format.c_str());
    return 1;
  }
  const int rc = emit_text(args, text);
  if (rc != 0) return rc;

  if (const auto spans_path = args.get_optional("spans")) {
    std::ofstream file(*spans_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   spans_path->c_str());
      return 1;
    }
    file << obs::spans_json_lines();
    std::printf("wrote %s\n", spans_path->c_str());
  }
  return 0;
}

int cmd_journal(const Args& args) {
  if (!obs::enabled()) {
    std::fprintf(stderr,
                 "journal: observability is disabled (MHM_OBS=0); nothing "
                 "would be recorded\n");
    return 1;
  }
  // Train at fast test scale in-process: assemble()d models carry no per-cell
  // training baseline, so an in-process training run is what makes the
  // journal's alarm explanations possible.
  const sim::SystemConfig cfg = pipeline::fast_test_config(1);
  std::printf("training fast-scale detector (L = %zu cells)...\n",
              cfg.monitor.cell_count());
  pipeline::TrainedPipeline pipe = pipeline::train_pipeline(
      cfg, pipeline::fast_test_plan(), pipeline::fast_test_detector_options());
  const Threshold theta = pipe.det().primary_threshold();

  const std::string attack_name = args.get("attack", "shellcode");
  const SimTime duration = args.get_u64("duration-ms", 4000) * kMillisecond;
  const SimTime trigger = args.get_u64("trigger-ms", 2000) * kMillisecond;
  std::unique_ptr<attacks::AttackScenario> attack;
  if (attack_name != "normal") attack = attacks::make_scenario(attack_name);

  pipeline::ScenarioRun run =
      pipeline::run_scenario(cfg, attack.get(), trigger, duration,
                             pipe.det().snapshot(), args.get_u64("seed", 42));
  // MHM_OBS_PORT: the endpoint train_pipeline started now also answers
  // /journal and /model for this run's session.
  obs::MonitorServer::ensure_env_server(run.journal, run.health);

  const obs::DecisionJournal& journal = *run.journal;
  if (args.get("format", "text") == "jsonl") {
    return emit_text(args, obs::journal_json_lines(journal));
  }

  const auto alarms = journal.alarms();
  std::printf("scenario '%s': trigger at interval %llu, %zu intervals "
              "analyzed, %zu alarms (theta = %.2f at p = %.3f)\n",
              run.scenario.c_str(),
              static_cast<unsigned long long>(run.trigger_interval),
              run.verdicts.size(), alarms.size(), theta.log10_value, theta.p);
  for (const auto& rec : alarms) {
    std::printf("alarm at interval %llu (phase %llu): log10 Pr = %.2f < "
                "%.2f, nearest pattern %zu\n",
                static_cast<unsigned long long>(rec.interval_index),
                static_cast<unsigned long long>(rec.phase),
                rec.log10_density, rec.threshold, rec.nearest_pattern);
    for (const auto& cell : rec.top_cells) {
      std::printf("    cell %4zu: observed %12.0f, expected %12.1f, "
                  "z %+8.1f\n",
                  cell.cell, cell.observed, cell.expected, cell.z_score);
    }
  }
  if (const auto out = args.get_optional("out")) {
    std::ofstream file(*out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", out->c_str());
      return 1;
    }
    file << obs::journal_json_lines(journal);
    std::printf("wrote %s\n", out->c_str());
  }
  return 0;
}

int cmd_serve(const Args& args) {
  if (!obs::enabled()) {
    std::fprintf(stderr,
                 "serve: observability is disabled (MHM_OBS=0 or compiled "
                 "out); nothing to serve\n");
    return 1;
  }
  const sim::SystemConfig cfg = pipeline::fast_test_config(1);
  std::printf("training fast-scale detector (L = %zu cells)...\n",
              cfg.monitor.cell_count());
  std::fflush(stdout);
  pipeline::TrainedPipeline pipe = pipeline::train_pipeline(
      cfg, pipeline::fast_test_plan(), pipeline::fast_test_detector_options());

  // --registry DIR versions the freshly trained model and serves a snapshot
  // carrying that version stamp — every verdict (and incident bundle) then
  // names a registry version that `incidents replay` can reload for
  // bit-identical re-scoring.
  std::shared_ptr<const ModelSnapshot> model = pipe.det().snapshot();
  std::shared_ptr<ModelRegistry> registry;
  if (const auto registry_dir = args.get_optional("registry")) {
    registry = std::make_shared<ModelRegistry>(*registry_dir);
    const std::uint64_t version =
        registry->save(DetectorModel::from_snapshot(*model));
    model = ModelSnapshot::assemble(model->pca, model->gmm, model->calibrator,
                                    model->primary.p, model->baseline,
                                    version);
    std::printf("model registered as version %llu in %s\n",
                static_cast<unsigned long long>(version),
                registry->directory().c_str());
    std::fflush(stdout);
  }

  // One live session scores every replay as one continuous stream.
  // --auto-retrain 1 gives it a clean-interval reservoir and a background
  // RetrainManager: sustained drift trains a candidate on the window,
  // validates it, registers it (when --registry is set) and hot-swaps it
  // into the live session.
  const bool auto_retrain = args.get_u64("auto-retrain", 0) != 0;
  engine::DetectionEngine engine(model);
  engine::SessionOptions so;
  if (auto_retrain) {
    so.clean_window_capacity = args.get_u64("retrain-window", 512);
  }
  engine::Session session = engine.new_session(so);

  const auto live_journal = session.journal_ptr();
  obs::FlightRecorder::Options fr_opts;
  fr_opts.dir = args.get("flight-dir", ".");
  if (!obs::FlightRecorder::instance().arm(fr_opts, live_journal)) {
    std::fprintf(stderr, "serve: cannot arm flight recorder in %s\n",
                 fr_opts.dir.c_str());
    return 1;
  }

  // Incident black box: bundles land next to the flight dumps.
  obs::IncidentStore::Options inc_opts;
  inc_opts.dir = fr_opts.dir;
  auto incidents = std::make_shared<obs::IncidentStore>(inc_opts);
  obs::IncidentOptions inc_trigger;
  inc_trigger.min_gap = args.get_u64("incident-gap", inc_trigger.min_gap);
  session.attach_incidents(inc_trigger, incidents);

  obs::MonitorServer server;
  obs::MonitorServer::Options srv_opts;
  srv_opts.port = static_cast<std::uint16_t>(args.get_u64("port", 0));
  if (!server.start(srv_opts)) {
    std::fprintf(stderr, "serve: cannot bind 127.0.0.1:%llu\n",
                 static_cast<unsigned long long>(args.get_u64("port", 0)));
    obs::FlightRecorder::instance().disarm();
    return 1;
  }
  server.set_journal(live_journal);
  server.set_model_health(session.model_health());
  server.set_history(session.score_history());
  server.set_incidents(incidents);
  obs::FlightRecorder::instance().set_model_health(session.model_health());
  obs::FlightRecorder::instance().set_incidents(
      [incidents] { return incidents->dump_section(); });

  // Retrain loop: drive the policy from the session's per-interval health
  // verdicts; on publish, annotate the journal, drop a synthetic incident
  // marker, and surface the state machine under /model's "retrain" key.
  std::shared_ptr<engine::RetrainManager> manager;
  if (auto_retrain) {
    engine::RetrainManager::Options ro;
    ro.sustain = args.get_u64("retrain-sustain", 32);
    ro.cooldown = args.get_u64("retrain-cooldown", 128);
    ro.min_window = args.get_u64("retrain-min-window", 96);
    ro.gmm_restarts = 2;
    manager = std::make_shared<engine::RetrainManager>(
        engine, session.clean_window(), registry, ro);
    engine::Session* sess = &session;
    sess->set_status_hook(
        [manager_raw = manager.get()](std::uint64_t interval,
                                      obs::ModelHealthStatus status) {
          manager_raw->note(interval, status);
        });
    manager->set_publish_hook([sess, incidents](
                                  const engine::RetrainReport& r) {
      sess->annotate_next("model auto-retrained: published version " +
                          std::to_string(r.version));
      obs::Incident marker;
      marker.reason = "retrain_publish";
      marker.detail = "v" + std::to_string(r.version) +
                      " trained on " + std::to_string(r.train_rows) +
                      " clean rows";
      marker.trigger_interval = r.trigger_interval;
      marker.model_version = r.version;
      incidents->commit(std::move(marker));
      std::printf("retrain: published model version %llu (%.2f s, "
                  "holdout alarm rate %.4f)\n",
                  static_cast<unsigned long long>(r.version),
                  r.train_seconds, r.holdout_alarm_rate);
      std::fflush(stdout);
    });
    server.set_retrain(
        [manager_raw = manager.get()] { return manager_raw->json(); });
  }
  // Continuous profiler: the stage zones are always live; the sampling
  // profiler additionally collects collapsed stacks for
  // /profile?format=collapsed while the endpoint is up.
  obs::prof::start_sampler();
  std::printf("serving http://127.0.0.1:%u (metrics, healthz, status, "
              "journal, trace, model, history, incidents, profile, version, "
              "flush)\n",
              static_cast<unsigned>(server.port()));
  std::printf("profiler counters: %s\n", obs::prof::counter_source());
  std::fflush(stdout);

  // Replay scenarios against the live endpoint so every route has data.
  const std::string attack_name = args.get("attack", "shellcode");
  const SimTime duration = args.get_u64("duration-ms", 2000) * kMillisecond;
  const SimTime trigger = args.get_u64("trigger-ms", 1000) * kMillisecond;
  const std::uint64_t seed = args.get_u64("seed", 42);
  const std::uint64_t scenarios = args.get_u64("scenarios", 3);
  // --mode-change-after S: from replay S on, the simulated system gains a
  // persistent new background activity source (device interrupts) — a
  // behaviour change rather than an attack, the environment drift the
  // auto-retrain loop exists to absorb. 0 = never.
  const std::uint64_t mode_change_after =
      args.get_u64("mode-change-after", 0);
  std::size_t alarms = 0;
  std::uint64_t next_interval = 0;
  for (std::uint64_t s = 0; s < scenarios; ++s) {
    std::unique_ptr<attacks::AttackScenario> attack;
    // Alternate normal / attacked replays: the journal and the flight
    // recorder then hold both quiet intervals and alarms.
    if (s % 2 == 1 && attack_name != "normal") {
      attack = attacks::make_scenario(attack_name);
    }
    sim::SystemConfig run_cfg = cfg;
    if (mode_change_after != 0 && s >= mode_change_after) {
      // Busy device + slightly noisier services: a sustained environment
      // change that shifts the score distribution enough to latch the
      // drift detectors without alarming most intervals — alarmed rows
      // never enter the retrain window, so a too-violent shift would
      // starve the loop of new-mode training data.
      run_cfg.device_irq_mean_period = 2 * kMillisecond;
      run_cfg.jitter_scale = 1.25;
    }
    // Collect the replay model-free and score its maps through the live
    // session, numbering intervals across replays.
    const pipeline::ScenarioRun run = pipeline::run_scenario(
        run_cfg, attack.get(), trigger, duration, nullptr, seed + s);
    for (const auto& m : run.maps) {
      alarms += session.analyze(m.as_vector(), next_interval++).anomalous;
    }
    // A publish rebinds the session's health monitor at the swap boundary;
    // re-attach the live handle for /model and the recorder.
    server.set_model_health(session.model_health());
    obs::FlightRecorder::instance().set_model_health(session.model_health());
    std::printf("replay %llu/%llu: '%s', %zu intervals, %zu alarms so far",
                static_cast<unsigned long long>(s + 1),
                static_cast<unsigned long long>(scenarios),
                run.scenario.c_str(), run.maps.size(), alarms);
    if (manager != nullptr) {
      std::printf("; retrain %s, model v%llu",
                  engine::to_string(manager->state()),
                  static_cast<unsigned long long>(session.model_version()));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  if (manager != nullptr) {
    manager->drain();
    server.set_model_health(session.model_health());
    obs::FlightRecorder::instance().set_model_health(session.model_health());
    std::printf("retrain loop: %llu published, %llu rejected, state %s, "
                "serving model version %llu\n",
                static_cast<unsigned long long>(manager->published()),
                static_cast<unsigned long long>(manager->rejected_count()),
                engine::to_string(manager->state()),
                static_cast<unsigned long long>(engine.model_version()));
    std::fflush(stdout);
  }
  std::printf("incidents: %llu committed\n",
              static_cast<unsigned long long>(incidents->total_committed()));
  if (const auto health = session.model_health()) {
    const obs::ModelHealthSnapshot snap = health->snapshot();
    std::printf("model health: %s (alarm rate %.4f, expected p %.4f)\n",
                obs::to_string(snap.status), snap.alarm_rate, snap.expected_p);
    std::fflush(stdout);
  }

  if (const std::uint64_t linger_ms = args.get_u64("linger-ms", 0)) {
    std::printf("lingering %llu ms for external scrapers...\n",
                static_cast<unsigned long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }

  const std::string final_dump =
      obs::FlightRecorder::instance().dump("shutdown");
  obs::prof::stop_sampler();
  server.stop();
  obs::FlightRecorder::instance().disarm();
  std::printf("served %llu replays, %zu alarms; final dump: %s\n",
              static_cast<unsigned long long>(scenarios), alarms,
              final_dump.empty() ? "(none)" : final_dump.c_str());
  return 0;
}

int cmd_dump(const Args& args) {
  std::string in_path;
  if (!args.require("in", &in_path)) {
    std::fprintf(stderr, "dump: --in <file.mhmdump> is required\n");
    return 1;
  }
  std::ifstream file(in_path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "dump: cannot open %s\n", in_path.c_str());
    return 1;
  }
  std::string line;
  if (!std::getline(file, line) || line != "MHMDUMP 1") {
    std::fprintf(stderr, "dump: %s is not an MHMDUMP version 1 file\n",
                 in_path.c_str());
    return 1;
  }
  std::printf("flight-recorder dump: %s\n", in_path.c_str());

  // Header key/value lines run until the first "== section ==" marker.
  std::string section;
  while (std::getline(file, line)) {
    if (line.rfind("== ", 0) == 0) {
      section = line;
      break;
    }
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    std::printf("  %-12s %s\n", line.substr(0, space).c_str(),
                line.substr(space + 1).c_str());
  }

  // Walk the sections, summarizing each. Metric lines are Prometheus text,
  // journal lines are one JSON record each, the heatmap is raw doubles.
  std::size_t metric_lines = 0;
  std::size_t journal_records = 0;
  std::size_t journal_alarms = 0;
  std::size_t trace_events = 0;
  std::vector<std::string> headline;
  std::vector<double> heat_row;
  std::string heat_header;
  bool saw_end = false;
  while (!section.empty()) {
    std::string next;
    const bool in_metrics = section == "== metrics ==";
    const bool in_journal = section.rfind("== journal", 0) == 0;
    const bool in_trace = section == "== trace ==";
    const bool in_heatmap = section.rfind("== heatmap", 0) == 0;
    if (in_heatmap) heat_header = section;
    if (section == "== end ==") saw_end = true;
    while (std::getline(file, line)) {
      if (line.rfind("== ", 0) == 0) {
        next = line;
        break;
      }
      if (in_metrics && !line.empty() && line[0] != '#') {
        ++metric_lines;
        // Surface the counters an operator asks about first.
        for (const char* want :
             {"mhm_detector_intervals_analyzed", "mhm_detector_alarms ",
              "mhm_core_gmm_log_likelihood"}) {
          if (line.rfind(want, 0) == 0) headline.push_back(line);
        }
      } else if (in_journal && !line.empty()) {
        ++journal_records;
        if (line.find("\"alarm\":true") != std::string::npos) {
          ++journal_alarms;
        }
      } else if (in_trace) {
        for (std::size_t pos = 0;
             (pos = line.find("\"ph\":\"X\"", pos)) != std::string::npos;
             pos += 8) {
          ++trace_events;
        }
      } else if (in_heatmap && !line.empty()) {
        std::istringstream is(line);
        double v = 0.0;
        while (is >> v) heat_row.push_back(v);
      }
    }
    section = next;
  }
  if (!saw_end) {
    std::fprintf(stderr, "dump: warning: missing '== end ==' marker — the "
                         "dump may be truncated\n");
  }

  std::printf("  metrics      %zu series\n", metric_lines);
  for (const auto& h : headline) std::printf("    %s\n", h.c_str());
  std::printf("  journal      %zu records, %zu alarms\n", journal_records,
              journal_alarms);
  std::printf("  trace        %zu span events\n", trace_events);
  if (!heat_row.empty()) {
    double total = 0.0;
    double peak = 0.0;
    std::size_t peak_cell = 0;
    for (std::size_t i = 0; i < heat_row.size(); ++i) {
      total += heat_row[i];
      if (heat_row[i] > peak) {
        peak = heat_row[i];
        peak_cell = i;
      }
    }
    std::printf("  %s\n", heat_header.c_str());
    std::printf("  heatmap      %zu cells, %.0f total accesses, hottest "
                "cell %zu (%.0f)\n",
                heat_row.size(), total, peak_cell, peak);
  } else {
    std::printf("  heatmap      (no interval captured before the dump)\n");
  }
  return saw_end ? 0 : 1;
}

// --- incidents: black-box bundle forensics ---------------------------------
//
// `incidents` works on the `.mhmi` bundles the incident engine commits
// (src/obs/incident, docs/FILE_FORMATS.md): `list` scans a directory,
// `show` pretty-prints one bundle, `replay` re-scores its captured rows
// through the bundled model version from a registry and asserts the
// verdicts reproduce bit-identically (hexfloat compare).

std::size_t bundle_alarms(const obs::Incident& incident) {
  std::size_t alarms = 0;
  for (const auto& e : incident.window) alarms += e.alarm;
  return alarms;
}

int cmd_incidents_list(const Args& args) {
  const std::string dir = args.get("dir", ".");
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".mhmi") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "incidents list: cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(paths.begin(), paths.end());
  std::printf("%4s  %-17s %9s %6s %7s %6s %5s  %s\n", "id", "reason",
              "trigger", "model", "entries", "alarms", "trunc", "path");
  std::size_t shown = 0;
  for (const auto& path : paths) {
    obs::IncidentBundle bundle;
    std::string error;
    if (!obs::parse_incident_file(path, &bundle, &error)) {
      std::fprintf(stderr, "incidents list: skipping %s: %s\n", path.c_str(),
                   error.c_str());
      continue;
    }
    const obs::Incident& inc = bundle.incident;
    std::printf("%4llu  %-17s %9llu %6llu %7zu %6zu %5s  %s\n",
                static_cast<unsigned long long>(inc.id), inc.reason.c_str(),
                static_cast<unsigned long long>(inc.trigger_interval),
                static_cast<unsigned long long>(inc.model_version),
                inc.window.size(), bundle_alarms(inc),
                bundle.truncated ? "YES" : "no", path.c_str());
    ++shown;
  }
  std::printf("%zu bundle(s) in %s\n", shown, dir.c_str());
  return 0;
}

int cmd_incidents_show(const Args& args) {
  std::string in_path;
  if (!args.require("in", &in_path)) {
    std::fprintf(stderr, "incidents show: --in <file.mhmi> is required\n");
    return 1;
  }
  obs::IncidentBundle bundle;
  std::string error;
  if (!obs::parse_incident_file(in_path, &bundle, &error)) {
    std::fprintf(stderr, "incidents show: %s\n", error.c_str());
    return 1;
  }
  const obs::Incident& inc = bundle.incident;
  std::printf("incident bundle: %s\n", in_path.c_str());
  std::printf("  id           %llu\n",
              static_cast<unsigned long long>(inc.id));
  std::printf("  reason       %s%s%s\n", inc.reason.c_str(),
              inc.detail.empty() ? "" : " ", inc.detail.c_str());
  std::printf("  trigger      interval %llu\n",
              static_cast<unsigned long long>(inc.trigger_interval));
  std::printf("  model        version %llu, threshold %.4f (log10)\n",
              static_cast<unsigned long long>(inc.model_version),
              inc.threshold);
  std::printf("  window       %zu pre + trigger + %zu post (%zu captured, "
              "%zu alarms), %zu cells\n",
              inc.pre, inc.post, inc.window.size(), bundle_alarms(inc),
              inc.cells);
  for (const auto& b : bundle.build_info) std::printf("  %s\n", b.c_str());
  if (!inc.top_cells.empty()) {
    std::printf("  top |z| cell deltas vs training baseline:\n");
    for (const auto& c : inc.top_cells) {
      std::printf("    cell %4zu: observed %12.0f, expected %12.1f, "
                  "z %+8.1f\n",
                  c.cell, c.observed, c.expected, c.z);
    }
  }
  std::printf("  %-9s %12s %12s %5s %7s  %s\n", "interval", "score", "spe",
              "alarm", "nearest", "row");
  for (const auto& e : inc.window) {
    std::printf("  %9llu %12.4f %12.4g %5s %7zu  %s\n",
                static_cast<unsigned long long>(e.interval), e.score, e.spe,
                e.alarm ? "YES" : "no", e.nearest_pattern,
                e.row.empty() ? "-" : "captured");
  }
  if (bundle.truncated) {
    std::fprintf(stderr, "incidents show: %s is TRUNCATED (missing "
                         "'== end ==' — crash mid-write)\n",
                 in_path.c_str());
    return 1;
  }
  return 0;
}

int cmd_incidents_replay(const Args& args) {
  std::string in_path;
  std::string registry_dir;
  if (!args.require("in", &in_path) ||
      !args.require("registry", &registry_dir)) {
    std::fprintf(stderr, "incidents replay: --in <file.mhmi> and "
                         "--registry <dir> are required\n");
    return 1;
  }
  obs::IncidentBundle bundle;
  std::string error;
  if (!obs::parse_incident_file(in_path, &bundle, &error)) {
    std::fprintf(stderr, "incidents replay: %s\n", error.c_str());
    return 1;
  }
  if (bundle.truncated) {
    std::fprintf(stderr, "incidents replay: %s is truncated — the verdict "
                         "window is incomplete, refusing to assert on it\n",
                 in_path.c_str());
    return 1;
  }
  const obs::Incident& inc = bundle.incident;
  if (inc.model_version == 0) {
    std::fprintf(stderr, "incidents replay: bundle carries no registry "
                         "version (serve with --registry to stamp one)\n");
    return 1;
  }
  const ModelRegistry registry(registry_dir);
  const std::shared_ptr<const ModelSnapshot> snapshot =
      registry.load_snapshot(inc.model_version);
  if (inc.cells != snapshot->pca.input_dim()) {
    std::fprintf(stderr, "incidents replay: bundle has %zu cells but model "
                         "version %llu expects %zu\n",
                 inc.cells, static_cast<unsigned long long>(inc.model_version),
                 snapshot->pca.input_dim());
    return 1;
  }

  // Bit-identity contract: the bundle stores score/SPE as hexfloat, so the
  // comparison is on exact bit patterns, never a tolerance.
  ScoreScratch scratch;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  for (const auto& e : inc.window) {
    if (e.row.empty()) continue;
    const Verdict v = score_snapshot(*snapshot, e.row, e.interval, scratch);
    char got_score[48], want_score[48], got_spe[48], want_spe[48];
    std::snprintf(got_score, sizeof got_score, "%a", v.log10_density);
    std::snprintf(want_score, sizeof want_score, "%a", e.score);
    std::snprintf(got_spe, sizeof got_spe, "%a", v.spe);
    std::snprintf(want_spe, sizeof want_spe, "%a", e.spe);
    const bool ok = std::strcmp(got_score, want_score) == 0 &&
                    std::strcmp(got_spe, want_spe) == 0 &&
                    v.anomalous == e.alarm &&
                    v.nearest_pattern == e.nearest_pattern;
    if (!ok) {
      ++mismatches;
      std::fprintf(stderr,
                   "  interval %llu MISMATCH: score %s vs %s, spe %s vs %s, "
                   "alarm %d vs %d, nearest %zu vs %zu\n",
                   static_cast<unsigned long long>(e.interval), got_score,
                   want_score, got_spe, want_spe, static_cast<int>(v.anomalous),
                   static_cast<int>(e.alarm), v.nearest_pattern,
                   e.nearest_pattern);
    }
    ++checked;
  }
  if (checked == 0) {
    std::fprintf(stderr, "incidents replay: no heat-map rows captured in %s "
                         "(recorded with capture_rows off?)\n",
                 in_path.c_str());
    return 1;
  }
  std::printf("replayed %zu of %zu intervals through model version %llu: "
              "%s\n",
              checked, inc.window.size(),
              static_cast<unsigned long long>(inc.model_version),
              mismatches == 0
                  ? "bit-identical"
                  : (std::to_string(mismatches) + " MISMATCHES").c_str());
  return mismatches == 0 ? 0 : 1;
}

int cmd_incidents(const std::string& action, const Args& args) {
  if (action == "list") return cmd_incidents_list(args);
  if (action == "show") return cmd_incidents_show(args);
  if (action == "replay") return cmd_incidents_replay(args);
  std::fprintf(stderr, "incidents: unknown action '%s' (list|show|replay)\n",
               action.c_str());
  return 1;
}

// --- watch: live model-health dashboard ------------------------------------
//
// `watch` is a pure HTTP client: it polls a serving process's /model and
// /incidents routes over loopback and renders a terminal dashboard — score
// sparkline against the training quantiles, component occupancy bars, the
// latest heat-map row, and an incident ticker. The field extractors and the
// loopback fetch live in tools/dashboard.{hpp,cpp}, shared with
// `fleet --watch`.

void render_dashboard(const std::string& body,
                      const std::string& incidents_body, std::uint16_t port,
                      std::uint64_t poll) {
  std::ostringstream os;
  os << "mhm model health  http://127.0.0.1:" << port << "/model  poll "
     << poll << "\n";
  const double alarm_rate = num_field(body, "alarm_rate");
  char line[200];
  std::snprintf(line, sizeof line,
                "status %s | intervals %.0f | alarms %.0f (%.2f%%) | "
                "expected p %.2f%% wilson [%.2f%%, %.2f%%]\n",
                str_field(body, "status").c_str(),
                num_field(body, "intervals"), num_field(body, "alarms"),
                100.0 * alarm_rate, 100.0 * num_field(body, "expected_p"),
                100.0 * num_field(body, "wilson_low"),
                100.0 * num_field(body, "wilson_high"));
  os << line;
  const std::size_t score_pos = find_key(body, "score");
  const std::size_t train_pos = find_key(body, "training", score_pos);
  std::snprintf(line, sizeof line,
                "score  live  q05 %9.3f  q50 %9.3f  q95 %9.3f  mean %9.3f\n",
                num_field(body, "q05", score_pos),
                num_field(body, "q50", score_pos),
                num_field(body, "q95", score_pos),
                num_field(body, "mean", score_pos));
  os << line;
  std::snprintf(line, sizeof line,
                "       train q05 %9.3f  q50 %9.3f  q95 %9.3f  mean %9.3f\n",
                num_field(body, "q05", train_pos),
                num_field(body, "q50", train_pos),
                num_field(body, "q95", train_pos),
                num_field(body, "mean", train_pos));
  os << line;
  const std::size_t drift_pos = find_key(body, "drift");
  std::snprintf(line, sizeof line,
                "drift  cusum +%.2f/-%.2f (h %.1f)  page-hinkley %.2f "
                "(lambda %.1f)  spe q95 %.3g\n",
                num_field(body, "cusum_pos", drift_pos),
                num_field(body, "cusum_neg", drift_pos),
                num_field(body, "cusum_threshold", drift_pos),
                num_field(body, "page_hinkley", drift_pos),
                num_field(body, "page_hinkley_lambda", drift_pos),
                num_field(body, "q95", find_key(body, "spe")));
  os << line;
  // Continuous-training loop (present only when serving --auto-retrain).
  const std::size_t retrain_pos = find_key(body, "retrain");
  if (retrain_pos != std::string::npos) {
    const std::size_t win_pos = find_key(body, "window", retrain_pos);
    std::snprintf(line, sizeof line,
                  "retrain %s | published %.0f rejected %.0f | "
                  "streak %.0f/%.0f | clean window %.0f/%.0f\n",
                  str_field(body, "state", retrain_pos).c_str(),
                  num_field(body, "published", retrain_pos),
                  num_field(body, "rejected", retrain_pos),
                  num_field(body, "drift_streak", retrain_pos),
                  num_field(body, "sustain", retrain_pos),
                  num_field(body, "size", win_pos),
                  num_field(body, "capacity", win_pos));
    os << line;
  }
  os << incident_ticker(incidents_body);

  os << "components (arg-max occupancy share vs mixture weight):\n";
  const std::size_t comp_pos = find_key(body, "components");
  const std::size_t comp_end = body.find("\"events\":");
  std::size_t p = comp_pos;
  std::size_t j = 0;
  while (p != std::string::npos && p < comp_end) {
    const std::size_t wp = find_key(body, "weight", p);
    if (wp == std::string::npos || wp >= comp_end) break;
    const double weight = num_field(body, "weight", p);
    const double share = num_field(body, "share", wp);
    std::snprintf(line, sizeof line, "  #%zu  w %.3f  share %.3f  %s\n", j,
                  weight, share, occupancy_bar(share, 24).c_str());
    os << line;
    p = find_key(body, "share", wp);
    ++j;
  }

  const std::vector<double> recent = num_array(body, "recent_scores");
  if (!recent.empty()) {
    LinePlotOptions plot;
    plot.width = 64;
    plot.height = 8;
    plot.title = "log10 Pr(M), last " + std::to_string(recent.size()) +
                 " intervals (- training median)";
    plot.hlines.push_back(num_field(body, "q50", train_pos));
    os << render_line_plot(recent, plot);
  }
  const std::size_t row_pos = find_key(body, "heat_row");
  const std::vector<double> cells = num_array(body, "cells", row_pos);
  if (!cells.empty()) {
    std::vector<std::uint64_t> counts;
    counts.reserve(cells.size());
    for (double c : cells) {
      counts.push_back(
          c <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(c)));
    }
    HeatMapPlotOptions hm;
    hm.width = 64;
    hm.rows = 8;
    hm.title = "heat-map row, interval " +
               std::to_string(static_cast<std::uint64_t>(
                   num_field(body, "interval", row_pos)));
    os << render_heat_map(counts, hm);
  }
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

int cmd_watch(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.get_u64("port", 0));
  if (port == 0) {
    std::fprintf(stderr,
                 "watch: --port <port> of a serving process is required\n");
    return 1;
  }
  const std::uint64_t interval_ms = args.get_u64("interval-ms", 500);
  const std::uint64_t iterations = args.get_u64("iterations", 0);  // 0 = ∞
  // Redraw in place for interactive sessions; --clear 0 appends instead
  // (the default for a single-shot poll, which is what tests pipe around).
  const bool clear = args.get_u64("clear", iterations == 1 ? 0 : 1) != 0;

  std::uint64_t polls = 0;
  std::uint64_t failures = 0;
  while (iterations == 0 || polls < iterations) {
    const std::string body = fetch_body(port, "/model");
    if (body.empty()) {
      ++failures;
      if (polls == 0 || failures >= 5) {
        std::fprintf(stderr,
                     "watch: no /model response from 127.0.0.1:%u (is a "
                     "serve process with a model-health monitor running?)\n",
                     static_cast<unsigned>(port));
        return 1;
      }
    } else {
      failures = 0;
      ++polls;
      // "" when the serving process predates the incident store — the
      // ticker line is simply omitted.
      const std::string incidents = fetch_body(port, "/incidents");
      if (clear) std::fputs("\033[H\033[2J", stdout);
      render_dashboard(body, incidents, port, polls);
    }
    if (iterations != 0 && polls >= iterations) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  return 0;
}

/// One parsed row of the /profile stages array.
struct ProfRow {
  std::string name;
  double entries = 0.0;
  double wall_ns = 0.0;
  double per_entry_ns = 0.0;
  double ipc = 0.0;
  double cache_misses = 0.0;
  double counter_samples = 0.0;
};

int cmd_prof(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.get_u64("port", 0));
  if (port == 0) {
    std::fprintf(stderr,
                 "prof: --port <port> of a serving process is required\n");
    return 1;
  }
  const std::string format = args.get("format", "table");
  if (format == "collapsed") {
    // Raw collapsed stacks, pipe-ready for flamegraph.pl / speedscope.
    const std::string body = fetch_body(port, "/profile?format=collapsed");
    std::fputs(body.c_str(), stdout);
    return body.empty() ? 1 : 0;
  }
  if (format != "table" && format != "json") {
    std::fprintf(stderr, "prof: --format must be table|json|collapsed\n");
    return 1;
  }

  const std::string body = fetch_body(port, "/profile?format=json");
  if (body.empty()) {
    std::fprintf(stderr,
                 "prof: no /profile response from 127.0.0.1:%u (is a serve "
                 "process running?)\n",
                 static_cast<unsigned>(port));
    return 1;
  }
  if (format == "json") {
    std::fputs(body.c_str(), stdout);
    return 0;
  }

  const double analyze_wall = num_field(body, "analyze_wall_ns");
  const double attributed = num_field(body, "attributed_fraction");
  std::vector<ProfRow> rows;
  std::size_t from = find_key(body, "stages");
  while (from != std::string::npos) {
    const std::size_t k = find_key(body, "stage", from + 1);
    if (k == std::string::npos) break;
    ProfRow r;
    r.name = str_field(body, "stage", from + 1);
    r.entries = num_field(body, "entries", k);
    r.wall_ns = num_field(body, "wall_ns", k);
    r.per_entry_ns = num_field(body, "wall_ns_per_entry", k);
    r.ipc = num_field(body, "ipc", k);
    r.cache_misses = num_field(body, "cache_misses", k);
    r.counter_samples = num_field(body, "counter_samples", k);
    rows.push_back(std::move(r));
    from = k;
  }
  std::sort(rows.begin(), rows.end(),
            [](const ProfRow& a, const ProfRow& b) {
              return a.wall_ns > b.wall_ns;
            });
  const std::uint64_t top = args.get_u64("top", 0);
  if (top != 0 && rows.size() > top) rows.resize(top);

  std::printf("mhm profile  http://127.0.0.1:%u/profile\n",
              static_cast<unsigned>(port));
  std::printf("counters %s | sampler %.0f stacks | analyze wall %.3f s | "
              "attributed %.1f%%  (top scoring stage: %s)\n",
              str_field(body, "source").c_str(),
              num_field(body, "samples"), analyze_wall * 1e-9,
              attributed * 100.0,
              str_field(body, "top_scoring_stage").c_str());
  std::printf("  %-18s %10s %12s %14s %7s %6s %12s\n", "stage", "entries",
              "wall(ms)", "per-entry(us)", "share", "ipc", "cache-miss");
  for (const ProfRow& r : rows) {
    if (r.entries == 0.0) continue;
    const double share =
        analyze_wall > 0.0 ? r.wall_ns / analyze_wall * 100.0 : 0.0;
    std::printf("  %-18s %10.0f %12.3f %14.3f %6.1f%% %6.2f %12.0f\n",
                r.name.c_str(), r.entries, r.wall_ns * 1e-6,
                r.per_entry_ns * 1e-3, share, r.ipc, r.cache_misses);
  }
  if (rows.empty()) std::printf("  (no stages recorded yet)\n");
  return 0;
}

void render_fleet(const fleet::FleetSnapshot& snap, std::size_t rounds,
                  std::size_t total_rounds, std::uint16_t port) {
  std::ostringstream os;
  char line[256];
  os << "mhm fleet";
  if (port != 0) os << "  http://127.0.0.1:" << port << "/fleet";
  os << "\n";
  std::snprintf(line, sizeof line,
                "devices %zu | shards %zu | round %zu/%zu | intervals %llu | "
                "alarms %llu | %.0f intervals/s\n",
                snap.devices, snap.shards, rounds, total_rounds,
                static_cast<unsigned long long>(snap.intervals),
                static_cast<unsigned long long>(snap.alarms),
                snap.intervals_per_sec);
  os << line;
  std::snprintf(line, sizeof line,
                "rollup  OK %llu | DRIFTING %llu | MISCALIBRATED %llu\n",
                static_cast<unsigned long long>(snap.devices_ok),
                static_cast<unsigned long long>(snap.devices_drifting),
                static_cast<unsigned long long>(snap.devices_miscalibrated));
  os << line;
  if (!snap.incident_groups.empty()) {
    const fleet::IncidentGroup& g = snap.incident_groups.back();
    std::string names;
    for (const auto& a : g.archetypes) {
      if (!names.empty()) names += ",";
      names += a;
    }
    std::snprintf(line, sizeof line,
                  "incidents  %zu groups | latest [%llu..%llu] %zu devices, "
                  "%llu marks (%s)\n",
                  snap.incident_groups.size(),
                  static_cast<unsigned long long>(g.first_interval),
                  static_cast<unsigned long long>(g.last_interval), g.devices,
                  static_cast<unsigned long long>(g.marks), names.c_str());
    os << line;
  }
  os << "top anomalous streams (severity = EWMA of deficit below theta):\n";
  os << "  device  archetype         severity  alarms  status\n";
  for (const auto& t : snap.top) {
    std::snprintf(line, sizeof line, "  %6llu  %-16s %9.4f  %6llu  %s\n",
                  static_cast<unsigned long long>(t.device),
                  t.archetype.c_str(), t.severity,
                  static_cast<unsigned long long>(t.alarms),
                  obs::to_string(static_cast<obs::ModelHealthStatus>(
                      t.status)));
    os << line;
  }
  if (snap.top.empty()) os << "  (none yet)\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

int cmd_fleet(const Args& args) {
  // Spec file first, CLI flags layered on top.
  fleet::FleetSpec spec;
  const auto spec_path = args.get_optional("spec");
  if (spec_path) spec = fleet::FleetSpec::load(*spec_path);
  spec.devices = args.get_u64("devices", spec.devices);
  spec.shards = args.get_u64("shards", spec.shards);
  spec.intervals = args.get_u64("intervals", spec.intervals);
  spec.seed = args.get_u64("seed", spec.seed);
  spec.top_k = args.get_u64("top-k", spec.top_k);
  if (spec.devices == 0 || spec.intervals == 0 || spec.top_k == 0) {
    throw ConfigError("fleet: devices, intervals and top-k must be > 0");
  }
  if (spec.archetypes.empty()) {
    // CLI default mix: mostly steady devices, a jittery slice, and a
    // compromised slice running --attack from --trigger (interval index).
    fleet::ArchetypeSpec steady;
    steady.name = "steady";
    steady.weight = 0.8;
    spec.archetypes.push_back(steady);
    fleet::ArchetypeSpec bursty;
    bursty.name = "bursty";
    bursty.weight = 0.1;
    bursty.jitter_scale = 2.0;
    spec.archetypes.push_back(bursty);
    const std::string attack_name = args.get("attack", "shellcode");
    if (attack_name != "normal") {
      fleet::ArchetypeSpec attacked;
      attacked.name = attack_name;
      attacked.weight = 0.1;
      attacked.attack = attack_name;
      attacked.trigger_interval = args.get_u64("trigger", 10);
      spec.archetypes.push_back(attacked);
    }
  }

  const sim::SystemConfig cfg = pipeline::fast_test_config(1);
  std::printf("training fast-scale detector (L = %zu cells)...\n",
              cfg.monitor.cell_count());
  std::fflush(stdout);
  pipeline::TrainedPipeline pipe = pipeline::train_pipeline(
      cfg, pipeline::fast_test_plan(), pipeline::fast_test_detector_options());

  std::printf("simulating %zu archetypes, fanning out %zu devices / %zu "
              "shards...\n",
              spec.archetypes.size(), spec.devices, spec.resolved_shards());
  std::fflush(stdout);
  fleet::FleetRunner runner(std::move(spec), cfg, pipe.detector->snapshot());
  const fleet::FleetSpec& fs = runner.spec();

  // Serve /fleet while the run is live (and arm the recorder so any dump
  // carries the `== fleet ==` section). Both optional: the run itself works
  // with observability disabled.
  obs::MonitorServer server;
  bool armed = false;
  if (obs::enabled()) {
    obs::MonitorServer::Options srv_opts;
    srv_opts.port = static_cast<std::uint16_t>(args.get_u64("port", 0));
    if (!server.start(srv_opts)) {
      std::fprintf(stderr, "fleet: cannot bind 127.0.0.1:%llu\n",
                   static_cast<unsigned long long>(args.get_u64("port", 0)));
      return 1;
    }
    server.set_fleet([&runner] { return runner.json(); });
    obs::FlightRecorder::Options fr_opts;
    fr_opts.dir = args.get("flight-dir", ".");
    armed = obs::FlightRecorder::instance().arm(fr_opts, nullptr);
    if (armed) {
      obs::FlightRecorder::instance().set_fleet(
          [&runner] { return runner.json(); });
    }
    std::printf("serving http://127.0.0.1:%u (fleet, metrics, healthz, "
                "status, flush)\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
  }

  const bool watch = args.get_u64("watch", 0) != 0;
  const std::uint64_t batch =
      std::max<std::uint64_t>(fs.health_refresh, 1);
  while (!runner.done()) {
    runner.run_rounds(batch);
    if (watch) {
      std::fputs("\033[H\033[2J", stdout);
      render_fleet(runner.aggregator().snapshot(), runner.rounds_completed(),
                   fs.intervals, server.port());
    }
  }

  const fleet::FleetSnapshot snap = runner.aggregator().snapshot();
  if (!watch) {
    render_fleet(snap, runner.rounds_completed(), fs.intervals,
                 server.port());
  }

  if (const std::uint64_t linger_ms = args.get_u64("linger-ms", 0)) {
    std::printf("lingering %llu ms for external scrapers...\n",
                static_cast<unsigned long long>(linger_ms));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  if (armed) {
    const std::string dump = obs::FlightRecorder::instance().dump("shutdown");
    obs::FlightRecorder::instance().disarm();
    if (!dump.empty()) std::printf("final dump: %s\n", dump.c_str());
  }
  server.stop();
  std::printf("fleet run complete: %llu intervals, %llu alarms\n",
              static_cast<unsigned long long>(snap.intervals),
              static_cast<unsigned long long>(snap.alarms));
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: mhm_tool <train|record|ingest|inspect|monitor|replay"
               "|retrain|simulate|metrics|journal|serve|watch|prof|fleet|dump"
               "|incidents> [--flag value]...\n"
               "       mhm_tool retrain --trace <trace.mhmt> "
               "--registry <dir>\n"
               "       mhm_tool replay <trace.mhmt> --model "
               "<file-or-registry-dir>\n"
               "       mhm_tool incidents list --dir <dir>\n"
               "       mhm_tool incidents show --in <file.mhmi>\n"
               "       mhm_tool incidents replay --in <file.mhmi> "
               "--registry <dir>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "replay") {
      // The trace is positional: replay <trace.mhmt> --flag value...
      if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
        std::fprintf(stderr, "replay: usage: mhm_tool replay <trace.mhmt> "
                             "--model <file-or-registry-dir>\n");
        return 1;
      }
      return cmd_replay(argv[2], Args(argc, argv, 3));
    }
    if (cmd == "incidents") {
      // The action is positional: incidents <list|show|replay> --flag value...
      if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
        std::fprintf(stderr, "incidents: usage: mhm_tool incidents "
                             "<list|show|replay> [--flag value]...\n");
        return 1;
      }
      return cmd_incidents(argv[2], Args(argc, argv, 3));
    }
    const Args args(argc, argv, 2);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "record") return cmd_record(args);
    if (cmd == "ingest") return cmd_ingest(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "monitor") return cmd_monitor(args);
    if (cmd == "retrain") return cmd_retrain(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "metrics") return cmd_metrics(args);
    if (cmd == "journal") return cmd_journal(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "watch") return cmd_watch(args);
    if (cmd == "prof") return cmd_prof(args);
    if (cmd == "fleet") return cmd_fleet(args);
    if (cmd == "dump") return cmd_dump(args);
    if (cmd == "selftest-crash") {
      // Hidden hook for the crash-dump CLI test: arm the recorder exactly
      // like `serve` does, then die by SIGSEGV. The test asserts the
      // handler left a parseable .mhmdump behind.
      obs::FlightRecorder::Options fr_opts;
      fr_opts.dir = args.get("flight-dir", ".");
      if (!obs::FlightRecorder::instance().arm(fr_opts, nullptr)) {
        std::fprintf(stderr, "selftest-crash: cannot arm (obs compiled "
                             "out?); nothing to test\n");
        return 77;  // Conventional "skipped" exit code.
      }
      std::printf("crash file: %s\n",
                  obs::FlightRecorder::instance().crash_file().c_str());
      std::fflush(stdout);
      std::raise(SIGSEGV);
      return 1;  // Unreachable: the re-raised signal kills the process.
    }
    if (cmd == "selftest-incident-crash") {
      // Hidden hook for the incident crash-safety CLI test: render a
      // synthetic incident but write only the first half of the bundle —
      // the same cut a crash mid-write() produces — then die by SIGSEGV.
      // The test asserts the partial file still parses (as truncated).
      obs::IncidentStore::Options opts;
      opts.dir = args.get("dir", ".");
      obs::IncidentStore store(opts);
      obs::Incident incident;
      incident.reason = "alarm_burst";
      incident.detail = "selftest";
      incident.trigger_interval = 42;
      incident.model_version = 7;
      incident.threshold = -12.5;
      incident.cells = 8;
      incident.pre = 2;
      incident.post = 2;
      for (std::uint64_t i = 40; i <= 44; ++i) {
        obs::IncidentEntry e;
        e.interval = i;
        e.score = -10.0 - static_cast<double>(i) / 3.0;
        e.spe = 0.5 * static_cast<double>(i);
        e.alarm = i >= 42;
        e.nearest_pattern = 1;
        e.model_version = 7;
        e.row.assign(8, static_cast<double>(i));
        incident.window.push_back(std::move(e));
      }
      const std::string path = store.debug_commit_partial(std::move(incident));
      if (path.empty()) {
        std::fprintf(stderr,
                     "selftest-incident-crash: cannot write bundle in %s\n",
                     opts.dir.c_str());
        return 1;
      }
      std::printf("incident file: %s\n", path.c_str());
      std::fflush(stdout);
      std::raise(SIGSEGV);
      return 1;  // Unreachable.
    }
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mhm_tool: %s\n", e.what());
    return 1;
  }
}
