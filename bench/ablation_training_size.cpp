// Ablation A8 — training-set size. §5.1 of the paper: "we leave for future
// work to evaluate the number of proper training samples, eigenmemories,
// and/or GMM components for different settings" — this bench answers the
// first part for the paper's own workload. Sweep the number of profiled
// normal runs and measure: variance explained, false-positive rate on a
// fresh normal run (how well θ_p generalizes) and detection AUC.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A8 — how much normal training data is enough?");

  sim::SystemConfig cfg = bench_config(1);
  const SimTime interval = cfg.monitor.interval;
  const SimTime duration = 400 * interval;
  const SimTime trigger = 100 * interval;

  CsvWriter csv("ablation_training_size.csv");
  csv.header({"training_maps", "variance_explained", "fp_rate_theta1",
              "auc_app", "auc_rootkit"});
  TextTable table({"training MHMs", "var expl %", "FP rate @theta_1",
                   "AUC app", "AUC rootkit"});

  for (std::size_t runs : {1u, 2u, 4u, 8u, 16u}) {
    pipeline::ProfilingPlan plan;
    plan.runs = runs;
    plan.run_duration = fast_mode() ? 500 * kMillisecond : 1500 * kMillisecond;

    AnomalyDetector::Options opts;
    opts.pca.components = 9;
    opts.gmm.components = 5;
    opts.gmm.restarts = 3;
    const auto pipe = pipeline::train_pipeline(cfg, plan, opts);

    pipeline::ScenarioRun normal_run = pipeline::run_scenario(
        cfg, nullptr, 0, duration, pipe.det().snapshot(), 12001);
    const double theta = pipe.theta_1.log10_value;
    const std::vector<double> normal_dens = normal_run.log10_densities();
    std::size_t fp = 0;
    for (double d : normal_dens) fp += (d < theta);
    const double fp_rate = static_cast<double>(fp) /
                           static_cast<double>(normal_dens.size());

    auto attacked_auc = [&](const std::string& name) {
      auto attack = attacks::make_scenario(name);
      pipeline::ScenarioRun run = pipeline::run_scenario(
          cfg, attack.get(), trigger, duration, pipe.det().snapshot(), 12002);
      std::vector<double> attacked;
      const std::vector<double> run_dens = run.log10_densities();
      for (std::size_t i = 0; i < run.maps.size(); ++i) {
        if (run.maps[i].interval_index >= run.trigger_interval) {
          attacked.push_back(run_dens[i]);
        }
      }
      return roc_auc(normal_dens, attacked);
    };
    const double auc_app = attacked_auc("app_addition");
    const double auc_rootkit = attacked_auc("rootkit");

    table.add_row({std::to_string(pipe.training.size()),
                   fmt_double(100.0 * pipe.det().eigenmemory().variance_explained(), 3),
                   fmt_double(100.0 * fp_rate, 2) + " %",
                   fmt_double(auc_app, 3), fmt_double(auc_rootkit, 3)});
    csv.row()
        .col(static_cast<std::uint64_t>(pipe.training.size()))
        .col(pipe.det().eigenmemory().variance_explained())
        .col(fp_rate)
        .col(auc_app)
        .col(auc_rootkit);
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: with too little data the thresholds do not "
              "generalize (inflated FP rate on fresh runs) and AUC is "
              "unstable; both settle once the training set covers the "
              "hyperperiod's phase diversity many times over. The paper's "
              "3,000 maps (~300 hyperperiods) sits deep in the stable "
              "regime.\n");
  std::printf("[bench] wrote ablation_training_size.csv\n");
  return 0;
}
