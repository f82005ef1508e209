#include "pipeline/experiment.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pipeline/secure_core.hpp"

namespace mhm::pipeline {
namespace {

TEST(ProfilingPlan, CollectNormalTraceConcatenatesRuns) {
  sim::SystemConfig cfg = fast_test_config();
  ProfilingPlan plan;
  plan.runs = 3;
  plan.run_duration = 200 * kMillisecond;
  const auto trace = collect_normal_trace(cfg, plan);
  EXPECT_EQ(trace.size(), 60u);  // 3 runs x 20 intervals
}

TEST(ProfilingPlan, WarmupIntervalsAreSkipped) {
  sim::SystemConfig cfg = fast_test_config();
  ProfilingPlan plan;
  plan.runs = 2;
  plan.run_duration = 200 * kMillisecond;
  plan.warmup_intervals = 5;
  const auto trace = collect_normal_trace(cfg, plan);
  EXPECT_EQ(trace.size(), 30u);  // 2 x (20 - 5)
  // The first surviving map of each run has interval_index == 5.
  EXPECT_EQ(trace[0].interval_index, 5u);
  EXPECT_EQ(trace[15].interval_index, 5u);
}

TEST(ProfilingPlan, DifferentRunsUseDifferentSeeds) {
  sim::SystemConfig cfg = fast_test_config();
  ProfilingPlan plan;
  plan.runs = 2;
  plan.run_duration = 100 * kMillisecond;
  const auto trace = collect_normal_trace(cfg, plan);
  ASSERT_EQ(trace.size(), 20u);
  // Same interval index from the two runs must differ (different seeds).
  EXPECT_NE(trace[0].counts(), trace[10].counts());
}

class TrainedPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SystemConfig cfg = fast_test_config();
    pipeline_ = new TrainedPipeline(train_pipeline(
        cfg, fast_test_plan(), fast_test_detector_options()));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }
  static TrainedPipeline* pipeline_;
};

TrainedPipeline* TrainedPipelineTest::pipeline_ = nullptr;

TEST_F(TrainedPipelineTest, ThresholdsAreOrdered) {
  EXPECT_LE(pipeline_->theta_05.log10_value, pipeline_->theta_1.log10_value);
  EXPECT_DOUBLE_EQ(pipeline_->theta_05.p, 0.005);
  EXPECT_DOUBLE_EQ(pipeline_->theta_1.p, 0.01);
}

TEST_F(TrainedPipelineTest, TrainingAndValidationAreDisjointRuns) {
  EXPECT_FALSE(pipeline_->training.empty());
  EXPECT_FALSE(pipeline_->validation.empty());
  EXPECT_LT(pipeline_->validation.size(), pipeline_->training.size());
}

TEST_F(TrainedPipelineTest, NormalRunHasLowFalsePositiveRate) {
  ScenarioRun run = run_scenario(fast_test_config(), nullptr, 0,
                                 2 * kSecond, pipeline_->det().snapshot(),
                                 /*seed=*/4242);
  EXPECT_EQ(run.scenario, "normal");
  const std::vector<double> dens = run.log10_densities();
  ASSERT_EQ(dens.size(), 200u);
  std::size_t alarms = 0;
  for (double d : dens) {
    alarms += (d < pipeline_->theta_1.log10_value);
  }
  // Expected FP rate ~1 %; allow generous slack for distribution shift.
  EXPECT_LT(static_cast<double>(alarms) / 200.0, 0.08);
}

TEST_F(TrainedPipelineTest, ScenarioRunBookkeeping) {
  attacks::AppAdditionAttack attack;
  ScenarioRun run =
      run_scenario(fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
                   pipeline_->det().snapshot(), /*seed=*/99);
  EXPECT_EQ(run.scenario, "app_addition");
  EXPECT_EQ(run.trigger_interval, 100u);
  EXPECT_EQ(run.maps.size(), 200u);
  EXPECT_EQ(run.verdicts.size(), 200u);
  EXPECT_EQ(run.traffic_volumes.size(), 200u);
  EXPECT_EQ(run.intervals_before_trigger(), 100u);
  EXPECT_EQ(run.intervals_after_trigger(), 100u);
}

TEST_F(TrainedPipelineTest, AttackIsDetectedAfterTrigger) {
  attacks::AppAdditionAttack attack;
  ScenarioRun run =
      run_scenario(fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
                   pipeline_->det().snapshot(), /*seed=*/77);
  const double theta = pipeline_->theta_1.log10_value;
  const auto latency = run.detection_latency(theta);
  ASSERT_TRUE(latency.has_value());
  // At the coarse 8 KB test granularity the very first flagged interval can
  // lag the launch by a few periods of the injected task.
  EXPECT_LE(*latency, 10u);
  // Densities drop persistently (Figure 7 shape). At the coarse test
  // granularity some intervals where qsort does not execute still look
  // normal (§5.3-1 observes the same), so require a robust minority plus a
  // clear mean shift rather than a majority.
  EXPECT_GT(run.detections_after_trigger(theta), 20u);
  double before = 0.0;
  double after = 0.0;
  const std::vector<double> dens = run.log10_densities();
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    (run.maps[i].interval_index < run.trigger_interval ? before : after) +=
        dens[i];
  }
  before /= static_cast<double>(run.intervals_before_trigger());
  after /= static_cast<double>(run.intervals_after_trigger());
  EXPECT_LT(after, before - 2.0);
}

TEST_F(TrainedPipelineTest, FalsePositiveHelpersUseTrigger) {
  attacks::AppAdditionAttack attack;
  ScenarioRun run =
      run_scenario(fast_test_config(), &attack, 1 * kSecond, 2 * kSecond,
                   pipeline_->det().snapshot(), /*seed=*/55);
  const double very_low_threshold = -1e9;
  EXPECT_EQ(run.false_positives_before_trigger(very_low_threshold), 0u);
  EXPECT_EQ(run.detections_after_trigger(very_low_threshold), 0u);
  EXPECT_FALSE(run.detection_latency(very_low_threshold).has_value());
}

TEST_F(TrainedPipelineTest, RunWithoutDetectorCollectsMapsOnly) {
  ScenarioRun run = run_scenario(fast_test_config(), nullptr, 0,
                                 500 * kMillisecond, nullptr, 1);
  EXPECT_EQ(run.maps.size(), 50u);
  EXPECT_TRUE(run.verdicts.empty());
  EXPECT_TRUE(run.log10_densities().empty());
  EXPECT_EQ(run.traffic_volumes.size(), 50u);
}

TEST_F(TrainedPipelineTest, SecureCoreMonitorRaisesAlarmsOnAttack) {
  sim::SystemConfig cfg = fast_test_config();
  cfg.seed = 31337;
  sim::System system(cfg);
  SecureCoreMonitor monitor(system, pipeline_->det().snapshot());

  std::vector<SecureCoreMonitor::Alarm> seen;
  monitor.set_alarm_handler(
      [&](const SecureCoreMonitor::Alarm& a) { seen.push_back(a); });

  attacks::ShellcodeAttack attack("bitcount");
  attack.arm(system, 1 * kSecond);
  system.run_for(2 * kSecond);

  EXPECT_EQ(monitor.verdicts().size(), 200u);
  EXPECT_FALSE(monitor.alarms().empty());
  EXPECT_EQ(seen.size(), monitor.alarms().size());
  // The overwhelming majority of alarms must be post-trigger.
  std::size_t post = 0;
  for (const auto& a : monitor.alarms()) post += (a.interval_index >= 100);
  EXPECT_GT(static_cast<double>(post) /
                static_cast<double>(monitor.alarms().size()),
            0.8);
}

TEST_F(TrainedPipelineTest, SecureCoreAnalysisFitsWithinInterval) {
  sim::SystemConfig cfg = fast_test_config();
  sim::System system(cfg);
  SecureCoreMonitor monitor(system, pipeline_->det().snapshot());
  system.run_for(1 * kSecond);
  // The whole point of §5.4: analysis (~hundreds of µs) << interval (10 ms).
  // Judge the mean plus a small overrun allowance: a parallel test runner
  // can preempt an individual analysis for multiple milliseconds.
  EXPECT_LT(monitor.deadline_overruns(), 3u);
  EXPECT_LT(monitor.mean_analysis_time_ns(), 1e7);  // < 10 ms
}

TEST(FastTestHelpers, AreConsistent) {
  const sim::SystemConfig cfg = fast_test_config();
  EXPECT_NO_THROW(cfg.monitor.validate());
  EXPECT_EQ(cfg.monitor.cell_count(), 368u);
  const ProfilingPlan plan = fast_test_plan();
  EXPECT_GT(plan.runs, 0u);
  const auto opts = fast_test_detector_options();
  EXPECT_GT(opts.pca.components, 0u);
}

}  // namespace
}  // namespace mhm::pipeline
