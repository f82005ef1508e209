// Ablation A7 — workload determinism. The paper's conclusion conjectures:
// "RTOSes have a more deterministic memory usage; hence our techniques
// will be even more effective when applied to such a context", and §5.5
// warns that "highly unpredictable, but yet legitimate" usage would raise
// false positives. This bench sweeps the workload's jitter scale from a
// fully deterministic RTOS (0.0) to a noisy general-purpose system (3.0)
// and reports false-positive rate, detection AUC and the effect of the
// temporal k-of-n AlarmFilter extension.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "core/alarm_filter.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A7 — workload determinism (RTOS -> noisy GPOS)");

  CsvWriter csv("ablation_determinism.csv");
  csv.header({"jitter_scale", "fp_rate_raw", "fp_rate_filtered",
              "auc_rootkit", "auc_app"});
  TextTable table({"jitter scale", "FP rate (raw)", "FP rate (2-of-3)",
                   "AUC rootkit", "AUC app"});

  for (double jitter : {0.0, 0.25, 1.0, 2.0, 3.0}) {
    sim::SystemConfig cfg = bench_config(1);
    cfg.jitter_scale = jitter;

    pipeline::ProfilingPlan plan;
    plan.runs = fast_mode() ? 2 : 5;
    plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

    AnomalyDetector::Options opts;
    opts.pca.components = 9;
    opts.gmm.components = 5;
    opts.gmm.restarts = 3;
    const auto pipe = pipeline::train_pipeline(cfg, plan, opts);

    const SimTime interval = cfg.monitor.interval;
    const SimTime duration = 400 * interval;
    const SimTime trigger = 100 * interval;

    // False positives on a fresh normal run, raw and 2-of-3 filtered.
    pipeline::ScenarioRun normal_run = pipeline::run_scenario(
        cfg, nullptr, 0, duration, pipe.det().snapshot(), 11001);
    const double theta = pipe.theta_1.log10_value;
    std::size_t raw_fp = 0;
    std::size_t filtered_fp = 0;
    AlarmFilter filter(2, 3);
    const std::vector<double> normal_dens = normal_run.log10_densities();
    for (double d : normal_dens) {
      const bool alarm = d < theta;
      raw_fp += alarm;
      filtered_fp += filter.feed(alarm);
    }
    const double n = static_cast<double>(normal_dens.size());

    auto attacked_auc = [&](const std::string& name) {
      auto attack = attacks::make_scenario(name);
      pipeline::ScenarioRun run = pipeline::run_scenario(
          cfg, attack.get(), trigger, duration, pipe.det().snapshot(), 11002);
      std::vector<double> attacked;
      const std::vector<double> run_dens = run.log10_densities();
      for (std::size_t i = 0; i < run.maps.size(); ++i) {
        if (run.maps[i].interval_index >= run.trigger_interval) {
          attacked.push_back(run_dens[i]);
        }
      }
      return roc_auc(normal_dens, attacked);
    };
    const double auc_rootkit = attacked_auc("rootkit");
    const double auc_app = attacked_auc("app_addition");

    table.add_row({fmt_double(jitter, 2),
                   fmt_double(100.0 * static_cast<double>(raw_fp) / n, 2) + " %",
                   fmt_double(100.0 * static_cast<double>(filtered_fp) / n, 2) + " %",
                   fmt_double(auc_rootkit, 3), fmt_double(auc_app, 3)});
    csv.row()
        .col(jitter)
        .col(static_cast<double>(raw_fp) / n)
        .col(static_cast<double>(filtered_fp) / n)
        .col(auc_rootkit)
        .col(auc_app);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: at RTOS-grade determinism the stealthy "
              "rootkit becomes near-perfectly separable (the paper's "
              "conclusion conjecture); rising jitter inflates false "
              "positives and erodes AUC (§5.5's concern); the 2-of-3 "
              "filter recovers most of the FP inflation.\n");
  std::printf("[bench] wrote ablation_determinism.csv\n");
  return 0;
}
