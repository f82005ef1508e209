// End-to-end integration tests: one trained pipeline (shared across the
// suite for speed) must reproduce the qualitative results of the paper's
// evaluation (§5.3) on all three attack scenarios, and the baselines must
// behave the way the paper argues they do.

#include <gtest/gtest.h>

#include <cmath>

#include "attacks/attacks.hpp"
#include "common/stats.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

using pipeline::ScenarioRun;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SystemConfig cfg = pipeline::fast_test_config();
    pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
    plan.runs = 4;
    plan.run_duration = 2 * kSecond;
    pipe_ = new pipeline::TrainedPipeline(pipeline::train_pipeline(
        cfg, plan, pipeline::fast_test_detector_options()));
  }
  static void TearDownTestSuite() {
    delete pipe_;
    pipe_ = nullptr;
  }

  static ScenarioRun run_attack(attacks::AttackScenario* attack,
                                std::uint64_t seed) {
    return pipeline::run_scenario(pipeline::fast_test_config(), attack,
                                  /*trigger=*/2 * kSecond,
                                  /*duration=*/4 * kSecond,
                                  pipe_->det().snapshot(), seed);
  }

  static double theta1() { return pipe_->theta_1.log10_value; }

  static pipeline::TrainedPipeline* pipe_;
};

pipeline::TrainedPipeline* IntegrationTest::pipe_ = nullptr;

TEST_F(IntegrationTest, TrainingRetainsAlmostAllVariance) {
  // §5.2: a handful of eigenmemories explains ~all variance.
  EXPECT_GT(pipe_->det().eigenmemory().variance_explained(), 0.99);
}

TEST_F(IntegrationTest, NormalOperationStaysNormal) {
  ScenarioRun run = pipeline::run_scenario(
      pipeline::fast_test_config(), nullptr, 0, 4 * kSecond,
      pipe_->det().snapshot(), /*seed=*/2024);
  const std::vector<double> dens = run.log10_densities();
  std::size_t alarms = 0;
  for (double d : dens) alarms += (d < theta1());
  EXPECT_LT(static_cast<double>(alarms) / static_cast<double>(dens.size()),
            0.08);
}

TEST_F(IntegrationTest, Scenario1AppAdditionIsDetected) {
  attacks::AppAdditionAttack attack;
  ScenarioRun run = run_attack(&attack, 31);
  const auto latency = run.detection_latency(theta1());
  ASSERT_TRUE(latency.has_value());
  EXPECT_LE(*latency, 10u);
  // Persistent abnormality while qsort runs.
  EXPECT_GT(run.detections_after_trigger(theta1()), 30u);
}

TEST_F(IntegrationTest, Scenario1AppDeletionRestoresNormality) {
  // After qsort exits, densities recover — the anomaly is the app itself.
  attacks::AppAdditionAttack attack(sim::qsort_task_spec(),
                                    /*exit_after=*/1 * kSecond);
  ScenarioRun run = run_attack(&attack, 32);
  // Post-exit window: trigger(200) + 100 intervals of qsort + margin.
  double tail_alarm_rate = 0.0;
  std::size_t tail_count = 0;
  const std::vector<double> dens = run.log10_densities();
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    if (run.maps[i].interval_index >= 320) {
      tail_alarm_rate += (dens[i] < theta1());
      ++tail_count;
    }
  }
  ASSERT_GT(tail_count, 0u);
  EXPECT_LT(tail_alarm_rate / static_cast<double>(tail_count), 0.25);
}

TEST_F(IntegrationTest, Scenario2ShellcodeIsDetected) {
  attacks::ShellcodeAttack attack("bitcount");
  ScenarioRun run = run_attack(&attack, 33);
  const auto latency = run.detection_latency(theta1());
  ASSERT_TRUE(latency.has_value());
  EXPECT_LE(*latency, 10u);
  // §5.3-2: the shellcode kills its host -> the change persists.
  EXPECT_GT(run.detections_after_trigger(theta1()), 30u);
}

TEST_F(IntegrationTest, Scenario3RootkitLoadIsDetectedByGmm) {
  attacks::RootkitAttack attack;
  ScenarioRun run = run_attack(&attack, 34);
  const auto latency = run.detection_latency(theta1());
  ASSERT_TRUE(latency.has_value());
  EXPECT_LE(*latency, 2u);  // the load burst itself is a strong anomaly
}

TEST_F(IntegrationTest, Scenario3StealthPhaseEvadesVolumeBaseline) {
  // Figure 9's argument: after the load, traffic volume looks normal, so a
  // volume-band detector sees (almost) nothing, while the GMM still scores
  // some intervals low (Figure 10).
  attacks::RootkitAttack attack(60 * kMicrosecond);
  ScenarioRun run = run_attack(&attack, 35);

  std::vector<double> normal_volumes;
  for (const auto& m : pipe_->training) {
    normal_volumes.push_back(static_cast<double>(m.total_accesses()));
  }
  const TrafficVolumeDetector volume_det(normal_volumes, 0.01);

  std::size_t volume_alarms_stealth = 0;
  std::size_t gmm_alarms_stealth = 0;
  std::size_t stealth_intervals = 0;
  const std::vector<double> dens = run.log10_densities();
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    // Stealth phase: well after the load burst.
    if (run.maps[i].interval_index >= run.trigger_interval + 5) {
      ++stealth_intervals;
      volume_alarms_stealth += volume_det.anomalous(run.traffic_volumes[i]);
      gmm_alarms_stealth += (dens[i] < theta1());
    }
  }
  ASSERT_GT(stealth_intervals, 100u);
  const double volume_rate = static_cast<double>(volume_alarms_stealth) /
                             static_cast<double>(stealth_intervals);
  const double gmm_rate = static_cast<double>(gmm_alarms_stealth) /
                          static_cast<double>(stealth_intervals);
  // Volume baseline: blind (at most noise-level alarms).
  EXPECT_LT(volume_rate, 0.05);
  // GMM: not always distinguishable (paper's own wording), but clearly
  // above the false-positive floor.
  EXPECT_GT(gmm_rate, volume_rate);
}

TEST_F(IntegrationTest, Scenario3VolumeSpikesOnlyAtLoad) {
  attacks::RootkitAttack attack;
  ScenarioRun run = run_attack(&attack, 36);
  std::vector<double> normal_volumes;
  for (const auto& m : pipe_->training) {
    normal_volumes.push_back(static_cast<double>(m.total_accesses()));
  }
  const TrafficVolumeDetector volume_det(normal_volumes, 0.005);
  // The load interval itself must trip the volume detector.
  bool load_tripped = false;
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    const auto idx = run.maps[i].interval_index;
    if (idx == run.trigger_interval || idx == run.trigger_interval + 1) {
      load_tripped |= volume_det.anomalous(run.traffic_volumes[i]);
    }
  }
  EXPECT_TRUE(load_tripped);
}

TEST_F(IntegrationTest, AnalysisTimeIsTinyComparedToInterval) {
  // §5.4: hundreds of microseconds against a 10 ms interval. Our software
  // implementation is faster still; assert the real-time property.
  ScenarioRun run = pipeline::run_scenario(
      pipeline::fast_test_config(), nullptr, 0, 1 * kSecond,
      pipe_->det().snapshot(), 37);
  // Judge the distribution, not each sample: under a parallel test run the
  // host OS can occasionally preempt one analysis for milliseconds.
  std::vector<double> times_ns;
  for (const auto& v : run.verdicts) {
    times_ns.push_back(static_cast<double>(v.analysis_time.count()));
  }
  EXPECT_LT(mean_of(times_ns), 1e6);                 // mean << 1 ms
  EXPECT_LT(quantile(times_ns, 0.95),
            static_cast<double>(10 * kMillisecond)); // p95 within interval
}

TEST_F(IntegrationTest, RawNearestNeighborAgreesButCostsMore) {
  // §4.1: raw-space matching works but is storage/compute prohibitive.
  std::vector<std::vector<double>> train_raw;
  for (const auto& m : pipe_->training) train_raw.push_back(m.as_vector());
  std::vector<std::vector<double>> valid_raw;
  for (const auto& m : pipe_->validation) valid_raw.push_back(m.as_vector());
  const NearestNeighborDetector nn(train_raw, valid_raw, 0.01);

  attacks::ShellcodeAttack attack("bitcount");
  ScenarioRun run = run_attack(&attack, 38);
  std::size_t nn_detections = 0;
  for (std::size_t i = 0; i < run.maps.size(); ++i) {
    if (run.maps[i].interval_index >= run.trigger_interval) {
      nn_detections += nn.anomalous(run.maps[i].as_vector());
    }
  }
  EXPECT_GT(nn_detections, 10u);
  // Storage cost: full training set vs (basis + mean + GMM params).
  const std::size_t gmm_floats =
      pipe_->det().eigenmemory().components() *
          pipe_->det().eigenmemory().input_dim() +
      pipe_->det().eigenmemory().input_dim() +
      pipe_->det().gmm().parameter_count();
  EXPECT_GT(nn.storage_bytes(), gmm_floats * sizeof(double));
}

TEST_F(IntegrationTest, DetectorScoresAreReproducible) {
  attacks::RootkitAttack a1;
  attacks::RootkitAttack a2;
  ScenarioRun r1 = run_attack(&a1, 40);
  ScenarioRun r2 = run_attack(&a2, 40);
  const std::vector<double> d1 = r1.log10_densities();
  const std::vector<double> d2 = r2.log10_densities();
  ASSERT_EQ(d1.size(), d2.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_DOUBLE_EQ(d1[i], d2[i]);
  }
}

}  // namespace
}  // namespace mhm
