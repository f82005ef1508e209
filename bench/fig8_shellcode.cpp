// Reproduces Figure 8 (§5.3-2, Shellcode Execution): a shellcode injected
// into bitcount runs shortly after the 250th interval — it disables ASLR
// (personality(2)), makes its page executable, spawns a shell and thereby
// kills the host process. The log probability density of the MHMs drops at
// the trigger and stays abnormal because the periodic footprint of the
// victim disappears.

#include <cstdio>

#include "bench_support.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Figure 8 — shellcode disabling ASLR inside bitcount");
  const pipeline::TrainedPipeline& pipe = trained_pipeline();

  const SimTime interval = bench_config().monitor.interval;
  const SimTime trigger = 252 * interval;
  attacks::ShellcodeAttack attack("bitcount");

  pipeline::ScenarioRun run =
      pipeline::run_scenario(bench_config(), &attack, trigger,
                             /*duration=*/400 * interval,
                             pipe.det().snapshot(), /*seed=*/888);

  print_detection_figure(
      run, pipe,
      "log10 Pr(M) over 400 intervals — shellcode executes at the bar");

  const auto latency = run.detection_latency(pipe.theta_1.log10_value);
  print_comparison({
      {"detection", "easily detectable (host process killed)",
       latency ? "first flagged " + std::to_string(*latency) +
                     " interval(s) after execution"
               : "not detected"},
      {"post-trigger behaviour", "densities stay abnormal",
       fmt_double(
           100.0 *
               static_cast<double>(run.detections_after_trigger(
                   pipe.theta_1.log10_value)) /
               static_cast<double>(run.intervals_after_trigger()),
           1) + " % of post-trigger intervals flagged at theta_1"},
  });

  write_series_csv("fig8_shellcode", run);
  return 0;
}
