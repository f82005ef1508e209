// external_trace_demo — using the library WITHOUT its built-in simulator.
//
// If you already collect instruction-fetch traces (gem5, valgrind, QEMU
// plugin, hardware trace unit), the pipeline consumes them directly:
// parse the text trace, aggregate through the Memometer model, train,
// detect. This demo fabricates two "external" traces in the text format —
// a normal one and one with a foreign code burst — purely via the public
// trace API, then runs the full workflow on them.

#include <cstdio>
#include <sstream>

#include "common/rng.hpp"
#include "core/explainer.hpp"
#include "engine/engine.hpp"
#include "hw/address_trace.hpp"
#include "hw/memometer.hpp"

namespace {

using namespace mhm;

/// Fabricate a text trace: a periodic two-activity workload over a 512 KB
/// region, optionally with an anomalous burst into otherwise-cold cells in
/// the second half.
std::string make_text_trace(std::uint64_t seed, SimTime duration,
                            bool inject_anomaly) {
  Rng rng(seed);
  std::ostringstream out;
  out << "# synthetic external tracer output\n";
  const Address base = 0x80000000;
  for (SimTime t = 0; t < duration; t += 1 * kMillisecond) {
    // Activity A: every millisecond, a hot loop near the region start.
    out << t << " 0x" << std::hex << (base + 0x1000) << std::dec << " 2048 "
        << (3 + rng.uniform_int(0, 2)) << "\n";
    // Activity B: every 5 ms, a service routine in the middle.
    if ((t / kMillisecond) % 5 == 0) {
      out << t << " 0x" << std::hex << (base + 0x40000) << std::dec
          << " 4096 " << (1 + rng.uniform_int(0, 1)) << "\n";
    }
    // Anomaly: foreign code executing from a normally cold area.
    if (inject_anomaly && t >= duration / 2) {
      out << t << " 0x" << std::hex << (base + 0x70000) << std::dec
          << " 1024 2\n";
    }
  }
  return out.str();
}

/// Run a text trace through the Memometer model; returns the heat maps.
HeatMapTrace aggregate(const std::string& text, const MhmConfig& monitor) {
  HeatMapTrace maps;
  hw::MemoryBus bus;
  hw::Memometer meter(monitor, 0,
                      [&](const HeatMap& m) { maps.push_back(m); });
  bus.attach(&meter);
  std::istringstream in(text);
  const auto stats = hw::replay_address_trace(in, bus);
  meter.finish(stats.last_time, /*deliver_partial=*/false);
  return maps;
}

}  // namespace

int main() {
  using namespace mhm;

  MhmConfig monitor;
  monitor.base = 0x80000000;
  monitor.size = 512 * 1024;
  monitor.granularity = 2048;
  monitor.interval = 10 * kMillisecond;

  std::printf("Aggregating external traces through the Memometer model "
              "(region 512 KB, delta 2 KB -> %zu cells)...\n",
              monitor.cell_count());
  const HeatMapTrace training =
      aggregate(make_text_trace(1, 4 * kSecond, false), monitor);
  const HeatMapTrace validation =
      aggregate(make_text_trace(2, 2 * kSecond, false), monitor);
  std::printf("training: %zu maps, validation: %zu maps\n", training.size(),
              validation.size());

  TrainOptions opts;
  opts.pca.components = 4;
  opts.gmm.components = 3;
  opts.gmm.restarts = 4;
  const auto model = std::make_shared<const ModelSnapshot>(
      train_snapshot(as_rows(training), as_rows(validation), opts));
  std::printf("trained: %zu eigenmemories explain %.3f%% of variance; "
              "theta_1 = %.2f\n",
              model->pca.components(),
              100.0 * model->pca.variance_explained(),
              model->primary.log10_value);

  // The foreign code executes from cells that carry *zero* training
  // variance, so its deviation is orthogonal to the eigenmemory subspace —
  // the GMM density barely reacts (the blind spot documented in
  // EXPERIMENTS.md E7). The SPE residual detector is the companion
  // statistic built for exactly this case.
  std::vector<std::vector<double>> validation_raw;
  for (const auto& m : validation) validation_raw.push_back(m.as_vector());
  const SpeDetector spe(model->pca, validation_raw, 0.01);

  // Test trace: normal first half, foreign code burst in the second half.
  const HeatMapTrace test =
      aggregate(make_text_trace(3, 4 * kSecond, true), monitor);
  std::size_t gmm_before = 0;
  std::size_t gmm_after = 0;
  std::size_t spe_before = 0;
  std::size_t spe_after = 0;
  engine::Session session = engine::DetectionEngine(model).new_session();
  for (const auto& map : test) {
    const bool first_half = map.interval_index < test.size() / 2;
    const Verdict v = session.analyze(map);
    (first_half ? gmm_before : gmm_after) += v.anomalous;
    (first_half ? spe_before : spe_after) += spe.anomalous(map);
  }
  std::printf("\ntest trace: %zu intervals; foreign code appears half-way\n",
              test.size());
  std::printf("  GMM density detector:  %zu alarms before, %zu after "
              "(orthogonal deviation -> nearly blind)\n",
              gmm_before, gmm_after);
  std::printf("  SPE residual detector: %zu alarms before, %zu after\n",
              spe_before, spe_after);

  const bool detected = spe_after > spe_before + 10;
  std::printf("%s\n", detected
                          ? "foreign code detected by the residual statistic."
                          : "detection inconclusive (tune the trace).");
  return detected ? 0 : 1;
}
