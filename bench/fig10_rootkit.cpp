// Reproduces Figure 10 (§5.3-3): the log probability density of the MHMs
// while the read-hijack rootkit is active. The load moment is a strong
// anomaly; the stealthy phase afterwards shows intermittently low densities
// — not always statistically distinguishable — whose appearance is
// synchronized with sha (period 100 ms), because the hijack latency shifts
// the timing of sha's many read calls.

#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "core/explainer.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Figure 10 — log Pr(M) under a read-hijack rootkit");
  const pipeline::TrainedPipeline& pipe = trained_pipeline();

  const SimTime interval = bench_config().monitor.interval;
  const SimTime trigger = 102 * interval;
  attacks::RootkitAttack attack;

  pipeline::ScenarioRun run =
      pipeline::run_scenario(bench_config(), &attack, trigger,
                             /*duration=*/400 * interval,
                             pipe.det().snapshot(), /*seed=*/999);

  print_detection_figure(
      run, pipe,
      "log10 Pr(M) over 400 intervals — rootkit loaded at the bar");

  // --- stealth-phase analysis ---
  const double theta1 = pipe.theta_1.log10_value;
  std::size_t stealth_flagged = 0;
  std::size_t stealth_total = 0;
  // sha has a 100 ms period = 10 intervals; sha's read-heavy window covers
  // the first few intervals of each of its periods. Count how the flagged
  // stealth intervals distribute over the 10 hyperperiod phases.
  std::vector<std::size_t> flagged_by_phase(10, 0);
  std::vector<std::size_t> total_by_phase(10, 0);
  const std::vector<double> dens = run.log10_densities();
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    const auto idx = run.maps[i].interval_index;
    if (idx <= run.trigger_interval + 1) continue;
    ++stealth_total;
    const auto phase = static_cast<std::size_t>(idx % 10);
    ++total_by_phase[phase];
    if (dens[i] < theta1) {
      ++stealth_flagged;
      ++flagged_by_phase[phase];
    }
  }

  std::printf("\nstealth phase: %zu of %zu intervals flagged at theta_1 "
              "(%.1f%%) — intermittent, as in the paper\n",
              stealth_flagged, stealth_total,
              100.0 * static_cast<double>(stealth_flagged) /
                  static_cast<double>(stealth_total));

  std::printf("\nflagged stealth intervals by hyperperiod phase "
              "(sha releases at phase 0):\n");
  TextTable phase_table({"phase", "flagged", "total", "rate %"});
  std::size_t best_phase = 0;
  double best_rate = -1.0;
  for (std::size_t p = 0; p < 10; ++p) {
    const double rate =
        total_by_phase[p] ? 100.0 * static_cast<double>(flagged_by_phase[p]) /
                                static_cast<double>(total_by_phase[p])
                          : 0.0;
    if (rate > best_rate) {
      best_rate = rate;
      best_phase = p;
    }
    phase_table.add_row({std::to_string(p), std::to_string(flagged_by_phase[p]),
                         std::to_string(total_by_phase[p]),
                         fmt_double(rate, 1)});
  }
  std::fputs(phase_table.str().c_str(), stdout);

  print_comparison({
      {"load moment", "strong anomaly",
       run.detection_latency(theta1)
           ? "flagged " + std::to_string(*run.detection_latency(theta1)) +
                 " interval(s) after load"
           : "not flagged"},
      {"stealth phase", "somewhat low densities, not always distinguishable",
       fmt_double(100.0 * static_cast<double>(stealth_flagged) /
                      static_cast<double>(stealth_total),
                  1) + " % of intervals flagged"},
      {"synchronization with sha", "abnormal ones synchronized with sha",
       "phase " + std::to_string(best_phase) + " flags most (" +
           fmt_double(best_rate, 1) + " %)"},
  });

  // --- extension: SPE (Q-statistic) companion detector ---
  // The GMM scores positions inside the eigenmemory subspace and is
  // structurally blind to deviations orthogonal to it — the module-loader
  // cells carry no training variance, so the load burst barely moves the
  // projected weights (hence the few-interval detection delay above). The
  // classic PCA-monitoring remedy is to also watch the reconstruction
  // residual.
  print_header("Extension — SPE residual detector on the same run");
  std::vector<std::vector<double>> validation_raw;
  for (const auto& m : pipe.validation) validation_raw.push_back(m.as_vector());
  const SpeDetector spe(pipe.det().eigenmemory(), validation_raw, 0.01);

  std::optional<std::uint64_t> spe_latency;
  std::size_t spe_stealth_flags = 0;
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    const auto idx = run.maps[i].interval_index;
    if (idx < run.trigger_interval) continue;
    const bool alarm = spe.anomalous(run.maps[i]);
    if (alarm && !spe_latency) spe_latency = idx - run.trigger_interval;
    if (alarm && idx > run.trigger_interval + 1) ++spe_stealth_flags;
  }
  std::printf("SPE detector: load flagged %s; %zu stealth intervals flagged\n",
              spe_latency ? ("+" + std::to_string(*spe_latency) +
                             " intervals after load")
                                .c_str()
                          : "never",
              spe_stealth_flags);
  std::printf("(GMM latency above: %s — SPE closes the orthogonal-deviation "
              "blind spot at the load moment)\n",
              run.detection_latency(theta1)
                  ? ("+" + std::to_string(*run.detection_latency(theta1)))
                        .c_str()
                  : "never");

  write_series_csv("fig10_rootkit", run);
  return 0;
}
