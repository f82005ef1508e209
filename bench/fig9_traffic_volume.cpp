// Reproduces Figure 9 (§5.3-3): the memory-traffic volume of the monitored
// region while a kernel rootkit hijacks the read system call. The moment
// the LKM loads is clearly distinguishable as a volume spike, but after the
// load the traffic shows no abnormality in volume terms — the hijacked
// handler lives outside the monitored region and still calls the original
// read handler. This is the motivating failure of the volume baseline.

#include <cstdio>

#include "bench_support.hpp"
#include "core/detector.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Figure 9 — memory traffic volume under a read-hijack rootkit");
  const pipeline::TrainedPipeline& pipe = trained_pipeline();

  const SimTime interval = bench_config().monitor.interval;
  const SimTime trigger = 102 * interval;  // figure: rootkit launched ~100
  attacks::RootkitAttack attack;

  pipeline::ScenarioRun run =
      pipeline::run_scenario(bench_config(), &attack, trigger,
                             /*duration=*/400 * interval,
                             pipe.det().snapshot(), /*seed=*/999);

  LinePlotOptions plot;
  plot.title = "total number of accesses per interval — rootkit loaded at "
               "the bar ('read' hijacked afterwards)";
  plot.width = 100;
  plot.height = 20;
  plot.vlines = {static_cast<double>(run.trigger_interval)};
  plot.x_label = "interval index (10 ms each)";
  std::fputs(render_line_plot(run.traffic_volumes, plot).c_str(), stdout);

  // Volume-band baseline calibrated on the training maps.
  const TrafficVolumeDetector volume_det =
      TrafficVolumeDetector::from_trace(pipe.training, 0.005);

  std::size_t load_window_alarms = 0;
  std::size_t stealth_alarms = 0;
  std::size_t stealth_total = 0;
  double stealth_mean = 0.0;
  double normal_mean = 0.0;
  std::size_t normal_total = 0;
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    const auto idx = run.maps[i].interval_index;
    const double vol = run.traffic_volumes[i];
    if (idx >= run.trigger_interval && idx <= run.trigger_interval + 1) {
      load_window_alarms += volume_det.anomalous(vol);
    } else if (idx > run.trigger_interval + 1) {
      ++stealth_total;
      stealth_alarms += volume_det.anomalous(vol);
      stealth_mean += vol;
    } else {
      ++normal_total;
      normal_mean += vol;
    }
  }
  stealth_mean /= static_cast<double>(stealth_total);
  normal_mean /= static_cast<double>(normal_total);

  print_comparison({
      {"load moment", "distinguishable volume spike",
       load_window_alarms > 0 ? "volume detector trips at the load interval"
                              : "no volume alarm at load (spike below band)"},
      {"post-load volume", "no abnormality in volume terms",
       fmt_double(100.0 * static_cast<double>(stealth_alarms) /
                      static_cast<double>(stealth_total),
                  2) + " % of stealth intervals trip the volume band"},
      {"mean volume pre vs post", "(visually unchanged)",
       fmt_double(normal_mean, 0) + " -> " + fmt_double(stealth_mean, 0) +
           " accesses/interval (" +
           fmt_double(100.0 * (stealth_mean - normal_mean) / normal_mean, 1) +
           " % change)"},
  });

  write_series_csv("fig9_traffic_volume", run);
  return 0;
}
