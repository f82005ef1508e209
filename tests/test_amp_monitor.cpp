#include "pipeline/amp_monitor.hpp"

#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "common/error.hpp"
#include "pipeline/experiment.hpp"

namespace mhm::pipeline {
namespace {

class AmpMonitorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One detector per OS image: instance A runs the MiBench-like set,
    // instance B the avionics set.
    sim::SystemConfig cfg_a = fast_test_config();
    pipe_a_ = new TrainedPipeline(train_pipeline(
        cfg_a, fast_test_plan(), fast_test_detector_options()));

    sim::SystemConfig cfg_b = fast_test_config();
    cfg_b.tasks = sim::avionics_task_set();
    ProfilingPlan plan_b = fast_test_plan();
    plan_b.seed_base = 500;
    AnomalyDetector::Options opts_b = fast_test_detector_options();
    opts_b.gmm.components = 4;
    pipe_b_ = new TrainedPipeline(train_pipeline(cfg_b, plan_b, opts_b));
  }
  static void TearDownTestSuite() {
    delete pipe_a_;
    delete pipe_b_;
    pipe_a_ = nullptr;
    pipe_b_ = nullptr;
  }

  static TrainedPipeline* pipe_a_;
  static TrainedPipeline* pipe_b_;
};

TrainedPipeline* AmpMonitorTest::pipe_a_ = nullptr;
TrainedPipeline* AmpMonitorTest::pipe_b_ = nullptr;

TEST_F(AmpMonitorTest, RejectsEmptyAndMismatchedConfigs) {
  AmpMonitor monitor;
  EXPECT_THROW(monitor.run_all(1 * kSecond), ConfigError);

  sim::SystemConfig cfg_a = fast_test_config();
  sim::System sys_a(cfg_a);
  monitor.attach(sys_a, pipe_a_->det().snapshot());

  sim::SystemConfig cfg_b = fast_test_config();
  cfg_b.monitor.interval = 20 * kMillisecond;  // mismatched interval
  sim::System sys_b(cfg_b);
  EXPECT_THROW(monitor.attach(sys_b, pipe_a_->det().snapshot()), ConfigError);
}

TEST_F(AmpMonitorTest, MonitorsTwoInstancesIndependently) {
  AmpMonitor monitor;
  sim::SystemConfig cfg_a = fast_test_config();
  cfg_a.seed = 71;
  sim::System sys_a(cfg_a);
  monitor.attach(sys_a, pipe_a_->det().snapshot(), "mibench_os");

  sim::SystemConfig cfg_b = fast_test_config();
  cfg_b.tasks = sim::avionics_task_set();
  cfg_b.seed = 72;
  sim::System sys_b(cfg_b);
  monitor.attach(sys_b, pipe_b_->det().snapshot(), "avionics_os");

  EXPECT_EQ(monitor.instance_count(), 2u);
  EXPECT_EQ(monitor.name(0), "mibench_os");
  EXPECT_EQ(monitor.name(1), "avionics_os");

  monitor.run_all(2 * kSecond);
  EXPECT_EQ(monitor.verdicts(0).size(), 200u);
  EXPECT_EQ(monitor.verdicts(1).size(), 200u);
  // Normal operation on both: alarms stay near the calibration floor.
  EXPECT_LT(monitor.alarms().size(), 40u);
}

TEST_F(AmpMonitorTest, AttackOnOneInstanceAlarmsOnlyThatInstance) {
  AmpMonitor monitor;
  sim::SystemConfig cfg_a = fast_test_config();
  cfg_a.seed = 81;
  sim::System sys_a(cfg_a);
  monitor.attach(sys_a, pipe_a_->det().snapshot(), "victim");

  sim::SystemConfig cfg_b = fast_test_config();
  cfg_b.tasks = sim::avionics_task_set();
  cfg_b.seed = 82;
  sim::System sys_b(cfg_b);
  monitor.attach(sys_b, pipe_b_->det().snapshot(), "bystander");

  attacks::ShellcodeAttack attack("bitcount");
  attack.arm(sys_a, 1 * kSecond);
  monitor.run_all(3 * kSecond);

  std::size_t victim_post = 0;
  std::size_t bystander_post = 0;
  for (const auto& alarm : monitor.alarms()) {
    if (alarm.interval_index < 100) continue;
    (alarm.instance == 0 ? victim_post : bystander_post) += 1;
  }
  EXPECT_GT(victim_post, 20u);
  EXPECT_LT(bystander_post, victim_post / 4);
}

TEST_F(AmpMonitorTest, BudgetAccountingScalesWithInstances) {
  AmpMonitor monitor;
  std::vector<std::unique_ptr<sim::System>> systems;
  for (int i = 0; i < 3; ++i) {
    sim::SystemConfig cfg = fast_test_config();
    cfg.seed = 90 + i;
    systems.push_back(std::make_unique<sim::System>(cfg));
    monitor.attach(*systems.back(), pipe_a_->det().snapshot());
  }
  monitor.run_all(1 * kSecond);
  // Sum of three software analyses is far below the 10 ms interval. Judge
  // the mean, not every interval: a parallel test runner can preempt an
  // individual analysis for milliseconds.
  EXPECT_GT(monitor.mean_total_analysis_ns_per_interval(), 0.0);
  EXPECT_LT(monitor.mean_total_analysis_ns_per_interval(),
            static_cast<double>(10 * kMillisecond));
  EXPECT_LT(monitor.budget_overruns(), 5u);
}

TEST_F(AmpMonitorTest, AccessorsValidateInstanceIndex) {
  AmpMonitor monitor;
  sim::SystemConfig cfg = fast_test_config();
  sim::System sys(cfg);
  monitor.attach(sys, pipe_a_->det().snapshot());
  EXPECT_THROW(monitor.verdicts(1), LogicError);
  EXPECT_THROW(monitor.name(1), LogicError);
}

}  // namespace
}  // namespace mhm::pipeline
