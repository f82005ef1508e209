// §5.5 extension bench — secure-core capacity in an AMP deployment.
// The paper notes that AMP architectures replicate the Memometer per OS
// instance; the open question is how many instances one secure core can
// analyze inside a single 10 ms monitoring interval. The budget is
//   N_max = interval / t_analysis,
// so this bench measures the summed per-interval analysis time for growing
// instance counts and extrapolates the capacity, for both the coarse
// (L = 368) and the paper (L = 1472) configurations.

#include <cstdio>
#include <memory>

#include "bench_support.hpp"
#include "pipeline/amp_monitor.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("AMP capacity — monitored OS instances per secure core");

  sim::SystemConfig cfg = bench_config(1);
  pipeline::ProfilingPlan plan;
  plan.runs = fast_mode() ? 2 : 4;
  plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

  AnomalyDetector::Options opts;
  opts.pca.components = 9;
  opts.gmm.components = 5;
  opts.gmm.restarts = 3;
  const auto pipe = pipeline::train_pipeline(cfg, plan, opts);

  CsvWriter csv("amp_capacity.csv");
  csv.header({"instances", "mean_total_analysis_us", "budget_fraction",
              "overruns"});
  TextTable table({"instances", "sum analysis/interval", "% of 10 ms budget",
                   "overruns"});

  double per_instance_us = 0.0;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    pipeline::AmpMonitor monitor;
    std::vector<std::unique_ptr<sim::System>> systems;
    for (std::size_t i = 0; i < n; ++i) {
      sim::SystemConfig inst_cfg = cfg;
      inst_cfg.seed = 9000 + i;
      systems.push_back(std::make_unique<sim::System>(inst_cfg));
      monitor.attach(*systems.back(), pipe.det().snapshot());
    }
    monitor.run_all(fast_mode() ? 1 * kSecond : 2 * kSecond);

    const double total_us =
        monitor.mean_total_analysis_ns_per_interval() / 1000.0;
    const double budget =
        total_us / (static_cast<double>(cfg.monitor.interval) / 1000.0);
    if (n == 1) per_instance_us = total_us;
    table.add_row({std::to_string(n), fmt_double(total_us, 1) + " us",
                   fmt_double(100.0 * budget, 3) + " %",
                   std::to_string(monitor.budget_overruns())});
    csv.row()
        .col(static_cast<std::uint64_t>(n))
        .col(total_us)
        .col(budget)
        .col(static_cast<std::uint64_t>(monitor.budget_overruns()));
  }
  std::fputs(table.str().c_str(), stdout);

  const double interval_us =
      static_cast<double>(cfg.monitor.interval) / 1000.0;
  std::printf("\nextrapolated capacity at this host's analysis speed: "
              "~%.0f instances per secure core (10 ms / %.1f us).\n",
              interval_us / per_instance_us, per_instance_us);
  std::printf("at the paper's 358 us per analysis (simulated ARM secure "
              "core, L = 1472): ~%.0f instances — comfortably more than "
              "any realistic AMP partition count.\n",
              interval_us / 358.0);
  std::printf("[bench] wrote amp_capacity.csv\n");
  return 0;
}
