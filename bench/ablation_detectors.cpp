// Ablation A5 — detector comparison. §4.1 argues that matching a new MHM
// against every stored training map is "computationally prohibitive", and
// Figure 9 shows that plain traffic-volume monitoring misses stealthy
// attacks. This bench quantifies both claims: eigenmemory+GMM versus the
// raw nearest-neighbour matcher versus the volume band, on detection rate,
// false positives, per-MHM cost and model storage.

#include <chrono>
#include <cstdio>

#include "bench_support.hpp"
#include "common/stats.hpp"
#include "core/detector.hpp"
#include "core/explainer.hpp"

int main() {
  using namespace mhm;
  using namespace mhm::bench;

  print_header("Ablation A5 — GMM vs raw 1-NN vs traffic-volume baseline");

  sim::SystemConfig cfg = bench_config(1);
  pipeline::ProfilingPlan plan;
  plan.runs = fast_mode() ? 2 : 5;
  plan.run_duration = fast_mode() ? 1 * kSecond : 2 * kSecond;

  AnomalyDetector::Options opts;
  opts.pca.components = 9;
  opts.gmm.components = 5;
  opts.gmm.restarts = 3;
  const auto pipe = pipeline::train_pipeline(cfg, plan, opts);

  std::vector<std::vector<double>> train_raw;
  for (const auto& m : pipe.training) train_raw.push_back(m.as_vector());
  std::vector<std::vector<double>> valid_raw;
  for (const auto& m : pipe.validation) valid_raw.push_back(m.as_vector());

  const NearestNeighborDetector nn(train_raw, valid_raw, 0.01);
  const TrafficVolumeDetector volume =
      TrafficVolumeDetector::from_trace(pipe.training, 0.005);

  const SimTime interval = cfg.monitor.interval;
  const SimTime trigger = 50 * interval;
  const SimTime duration = 200 * interval;

  struct Row {
    const char* detector;
    double fp_rate;
    double det_app;
    double det_shell;
    double det_rootkit;
    double cost_us;
    std::size_t storage;
  };
  std::vector<Row> rows;

  // Collect runs once, evaluate all detectors on the same maps.
  pipeline::ScenarioRun normal_run =
      pipeline::run_scenario(cfg, nullptr, 0, duration, pipe.det().snapshot(), 8001);
  auto attacked_run = [&](const std::string& name) {
    auto attack = attacks::make_scenario(name);
    return pipeline::run_scenario(cfg, attack.get(), trigger, duration,
                                  pipe.det().snapshot(), 8002);
  };
  const pipeline::ScenarioRun app = attacked_run("app_addition");
  const pipeline::ScenarioRun shell = attacked_run("shellcode");
  const pipeline::ScenarioRun rk = attacked_run("rootkit");

  auto eval = [&](auto&& is_anomalous) {
    Row r{};
    std::size_t fp = 0;
    for (const auto& m : normal_run.maps) fp += is_anomalous(m);
    r.fp_rate = static_cast<double>(fp) /
                static_cast<double>(normal_run.maps.size());
    auto det_rate = [&](const pipeline::ScenarioRun& run) {
      std::size_t hits = 0;
      std::size_t total = 0;
      for (const auto& m : run.maps) {
        if (m.interval_index < run.trigger_interval) continue;
        ++total;
        hits += is_anomalous(m);
      }
      return static_cast<double>(hits) / static_cast<double>(total);
    };
    r.det_app = det_rate(app);
    r.det_shell = det_rate(shell);
    r.det_rootkit = det_rate(rk);
    // Cost: mean wall time per decision over the normal maps.
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& m : normal_run.maps) (void)is_anomalous(m);
    const auto t1 = std::chrono::steady_clock::now();
    r.cost_us = std::chrono::duration<double, std::micro>(t1 - t0).count() /
                static_cast<double>(normal_run.maps.size());
    return r;
  };

  engine::Session session = pipe.make_engine().new_session();
  {
    const double theta = pipe.theta_1.log10_value;
    Row r = eval([&](const HeatMap& m) {
      return session.analyze(m).log10_density < theta;
    });
    r.detector = "eigenmemory + GMM (paper)";
    const Eigenmemory& em = pipe.det().eigenmemory();
    r.storage = (em.components() * em.input_dim() + em.input_dim() +
                 pipe.det().gmm().parameter_count()) *
                sizeof(double);
    rows.push_back(r);
  }
  {
    Row r = eval([&](const HeatMap& m) { return nn.anomalous(m.as_vector()); });
    r.detector = "raw 1-NN (dismissed in §4.1)";
    r.storage = nn.storage_bytes();
    rows.push_back(r);
  }
  {
    Row r = eval([&](const HeatMap& m) { return volume.anomalous(m); });
    r.detector = "traffic volume band (Figure 9)";
    r.storage = 2 * sizeof(double);
    rows.push_back(r);
  }
  const SpeDetector spe(pipe.det().eigenmemory(), valid_raw, 0.01);
  {
    Row r = eval([&](const HeatMap& m) { return spe.anomalous(m); });
    r.detector = "SPE residual (extension)";
    const Eigenmemory& em = pipe.det().eigenmemory();
    r.storage =
        (em.components() * em.input_dim() + em.input_dim() + 1) * sizeof(double);
    rows.push_back(r);
  }
  {
    // GMM density OR SPE: the combined detector covers both the in-subspace
    // and the orthogonal failure modes.
    const double theta = pipe.theta_1.log10_value;
    Row r = eval([&](const HeatMap& m) {
      return session.analyze(m).log10_density < theta || spe.anomalous(m);
    });
    r.detector = "GMM + SPE combined (extension)";
    const Eigenmemory& em = pipe.det().eigenmemory();
    r.storage = (em.components() * em.input_dim() + em.input_dim() +
                 pipe.det().gmm().parameter_count() + 1) *
                sizeof(double);
    rows.push_back(r);
  }

  TextTable table({"detector", "FP rate", "det app", "det shell",
                   "det rootkit", "us/MHM", "storage bytes"});
  CsvWriter csv("ablation_detectors.csv");
  csv.header({"detector", "fp_rate", "det_app", "det_shell", "det_rootkit",
              "cost_us", "storage_bytes"});
  for (const auto& r : rows) {
    table.add_row({r.detector, fmt_double(r.fp_rate, 3),
                   fmt_double(r.det_app, 3), fmt_double(r.det_shell, 3),
                   fmt_double(r.det_rootkit, 3), fmt_double(r.cost_us, 2),
                   std::to_string(r.storage)});
    csv.row()
        .col(r.detector)
        .col(r.fp_rate)
        .col(r.det_app)
        .col(r.det_shell)
        .col(r.det_rootkit)
        .col(r.cost_us)
        .col(static_cast<std::uint64_t>(r.storage));
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("\nexpected shape: GMM and 1-NN detect all three attacks, but "
              "1-NN needs the whole training set (storage) and O(N*L) per "
              "decision; the volume band is cheapest and blind to the "
              "rootkit's stealth phase.\n");
  std::printf("[bench] wrote ablation_detectors.csv\n");
  return 0;
}
