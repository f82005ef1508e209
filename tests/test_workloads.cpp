// Tests for the extended workload features: the avionics harmonic task
// set, workload jitter scaling (RTOS vs noisy GPOS) and device-interrupt
// traffic.

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "sim/system.hpp"
#include "sim/task.hpp"

namespace mhm::sim {
namespace {

SystemConfig small_config(std::uint64_t seed = 1) {
  SystemConfig cfg = SystemConfig::paper_default(seed);
  cfg.monitor.granularity = 8 * 1024;
  return cfg;
}

TEST(AvionicsTaskSet, IsHarmonic) {
  const auto tasks = avionics_task_set();
  ASSERT_EQ(tasks.size(), 5u);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].period % tasks[i - 1].period, 0u)
        << tasks[i].name << " period must be a multiple of "
        << tasks[i - 1].name;
  }
  // Harmonic set: hyperperiod == slowest period.
  EXPECT_EQ(hyperperiod(tasks), 80 * kMillisecond);
}

TEST(AvionicsTaskSet, UtilizationIsSchedulable) {
  const double u = total_utilization(avionics_task_set());
  EXPECT_GT(u, 0.6);
  // Harmonic sets are RM-schedulable up to 100 %.
  EXPECT_LT(u, 1.0);
}

TEST(AvionicsTaskSet, MeetsAllDeadlines) {
  SystemConfig cfg = small_config();
  cfg.tasks = avionics_task_set();
  System system(cfg);
  system.run_for(1 * kSecond);
  EXPECT_EQ(system.scheduler().stats().deadline_misses, 0u);
  EXPECT_EQ(system.scheduler().task("attitude_ctrl").jobs_completed, 200u);
  // 13 releases (t = 0, 80, ..., 960 ms); the last may or may not finish
  // inside the horizon.
  EXPECT_GE(system.scheduler().task("telemetry").jobs_completed, 12u);
  EXPECT_LE(system.scheduler().task("telemetry").jobs_completed, 13u);
}

TEST(JitterScale, ZeroJitterGivesRepeatingSamePhaseMaps) {
  // With jitter_scale = 0 the only remaining variability is syscall
  // placement slack; same-phase intervals must correlate near-perfectly.
  SystemConfig cfg = small_config(3);
  cfg.jitter_scale = 0.0;
  cfg.kworker_mean_period = 0;  // kworker arrivals are the one async source
  System system(cfg);
  system.run_for(1 * kSecond);
  const auto& trace = system.trace();
  ASSERT_GE(trace.size(), 40u);
  double min_corr = 1.0;
  for (std::size_t i = 20; i < 30; ++i) {
    min_corr = std::min(min_corr, pearson_correlation(trace[i].as_vector(),
                                                      trace[i + 10].as_vector()));
  }
  EXPECT_GT(min_corr, 0.98);
}

TEST(JitterScale, HigherJitterRaisesMapVariability) {
  auto dispersion = [](double jitter) {
    SystemConfig cfg = small_config(4);
    cfg.jitter_scale = jitter;
    System system(cfg);
    system.run_for(2 * kSecond);
    const auto& trace = system.trace();
    // Mean coefficient of variation of per-interval totals within a phase.
    RunningStats per_phase[10];
    for (const auto& m : trace) {
      per_phase[m.interval_index % 10].add(
          static_cast<double>(m.total_accesses()));
    }
    double cv = 0.0;
    for (const auto& s : per_phase) cv += s.stddev() / s.mean();
    return cv / 10.0;
  };
  const double tight = dispersion(0.0);
  const double loose = dispersion(2.0);
  EXPECT_LT(tight, loose);
}

TEST(JitterScale, NegativeScaleRejected) {
  SystemConfig cfg = small_config();
  cfg.jitter_scale = -0.5;
  EXPECT_THROW(System{cfg}, ConfigError);
}

TEST(DeviceIrq, GeneratesIrqTraffic) {
  // Compare irq-subsystem traffic with and without device interrupts.
  auto irq_cell_total = [](SimTime irq_period) {
    SystemConfig cfg = small_config(5);
    cfg.device_irq_mean_period = irq_period;
    System system(cfg);
    system.run_for(500 * kMillisecond);
    // The irq subsystem's cells: find its address range.
    const auto& sub = system.kernel().subsystem("irq");
    const std::size_t first_cell = static_cast<std::size_t>(
        (sub.begin - cfg.monitor.base) / cfg.monitor.granularity);
    const std::size_t last_cell = static_cast<std::size_t>(
        (sub.end - 1 - cfg.monitor.base) / cfg.monitor.granularity);
    std::uint64_t total = 0;
    for (const auto& m : system.trace()) {
      for (std::size_t c = first_cell; c <= last_cell; ++c) total += m[c];
    }
    return total;
  };
  const std::uint64_t without = irq_cell_total(0);
  const std::uint64_t with = irq_cell_total(2 * kMillisecond);
  EXPECT_GT(with, without + without / 10);
}

TEST(DeviceIrq, DoesNotDisturbSchedulability) {
  SystemConfig cfg = small_config(6);
  cfg.device_irq_mean_period = 1 * kMillisecond;
  System system(cfg);
  system.run_for(1 * kSecond);
  EXPECT_EQ(system.scheduler().stats().deadline_misses, 0u);
}

TEST(AvionicsWorkload, DetectorWorksOnAlternativeTaskSet) {
  // The pipeline is workload-agnostic: train on the avionics set and
  // verify an injected app is still detected.
  SystemConfig cfg = small_config(7);
  cfg.tasks = avionics_task_set();

  HeatMapTrace training;
  HeatMapTrace validation;
  for (std::uint64_t run = 0; run < 3; ++run) {
    SystemConfig c = cfg;
    c.seed = 100 + run;
    System system(c);
    system.run_for(1 * kSecond);
    auto maps = system.take_trace();
    auto& dest = (run < 2) ? training : validation;
    dest.insert(dest.end(), maps.begin(), maps.end());
  }
  AnomalyDetector::Options opts;
  opts.pca.components = 8;
  opts.gmm.components = 4;
  opts.gmm.restarts = 3;
  engine::Session session =
      engine::DetectionEngine(
          AnomalyDetector::train(training, validation, opts).snapshot())
          .new_session();

  SystemConfig attacked_cfg = cfg;
  attacked_cfg.seed = 999;
  System attacked(attacked_cfg);
  std::vector<Verdict> verdicts;
  attacked.set_interval_observer([&](const HeatMap& m) {
    verdicts.push_back(session.analyze(m));
  });
  attacked.at(1 * kSecond, [&] { attacked.launch_task(qsort_task_spec()); });
  attacked.run_for(2 * kSecond);

  std::size_t post_alarms = 0;
  std::size_t pre_alarms = 0;
  for (const auto& v : verdicts) {
    (v.interval_index >= 100 ? post_alarms : pre_alarms) += v.anomalous;
  }
  // The launch must produce clearly more alarms than the calibration noise.
  EXPECT_GT(post_alarms, 5u);
  EXPECT_GT(post_alarms, 2 * pre_alarms);
}

}  // namespace
}  // namespace mhm::sim
