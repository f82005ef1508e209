#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace mhm {
namespace {

/// Normal "reduced MHM"-like data: 3 activity patterns in 20 dimensions.
struct SyntheticWorld {
  std::vector<std::vector<double>> patterns;
  Rng rng{1234};

  explicit SyntheticWorld(std::uint64_t seed) : rng(seed) {
    for (int p = 0; p < 3; ++p) {
      std::vector<double> pattern(20);
      for (double& v : pattern) v = rng.uniform(0.0, 100.0);
      patterns.push_back(std::move(pattern));
    }
  }

  std::vector<double> normal_sample() {
    const auto& p =
        patterns[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    std::vector<double> x = p;
    for (double& v : x) v += rng.normal(0.0, 2.0);
    return x;
  }

  std::vector<double> anomalous_sample() {
    std::vector<double> x = patterns[0];
    for (double& v : x) v += rng.normal(0.0, 2.0);
    // A new activity the training never saw: shift a block of cells.
    for (int i = 5; i < 12; ++i) x[i] += 40.0;
    return x;
  }

  std::vector<std::vector<double>> batch(std::size_t n, bool anomalous) {
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(anomalous ? anomalous_sample() : normal_sample());
    }
    return out;
  }
};

AnomalyDetector::Options small_options() {
  AnomalyDetector::Options opts;
  opts.pca.components = 5;
  opts.gmm.components = 3;
  opts.gmm.restarts = 3;
  return opts;
}

std::shared_ptr<const ModelSnapshot> train_model(
    const std::vector<std::vector<double>>& training,
    const std::vector<std::vector<double>>& validation,
    const TrainOptions& options) {
  return std::make_shared<const ModelSnapshot>(
      train_snapshot(training, validation, options));
}

engine::Session open_session(std::shared_ptr<const ModelSnapshot> model) {
  return engine::DetectionEngine(std::move(model)).new_session();
}

TEST(ThresholdCalibrator, QuantileSemantics) {
  std::vector<double> scores;
  for (int i = 0; i < 1000; ++i) scores.push_back(static_cast<double>(i));
  const ThresholdCalibrator cal(scores);
  EXPECT_NEAR(cal.at(0.01).log10_value, 9.99, 0.5);
  EXPECT_NEAR(cal.at(0.5).log10_value, 499.5, 1.0);
  EXPECT_LT(cal.theta_05().log10_value, cal.theta_1().log10_value);
  EXPECT_DOUBLE_EQ(cal.theta_05().p, 0.005);
  EXPECT_DOUBLE_EQ(cal.theta_1().p, 0.01);
}

TEST(ThresholdCalibrator, RejectsBadInput) {
  EXPECT_THROW(ThresholdCalibrator({}), ConfigError);
  const ThresholdCalibrator cal({1.0, 2.0});
  EXPECT_THROW(cal.at(0.0), ConfigError);
  EXPECT_THROW(cal.at(1.0), ConfigError);
}

TEST(AnomalyDetector, TrainRejectsEmptySets) {
  SyntheticWorld world(1);
  const auto normal = world.batch(50, false);
  EXPECT_THROW(train_snapshot({}, normal, {}), ConfigError);
  EXPECT_THROW(train_snapshot(normal, {}, {}), ConfigError);
}

TEST(AnomalyDetector, NormalScoresAboveAnomalousScores) {
  SyntheticWorld world(2);
  const auto model = train_model(world.batch(600, false),
                                 world.batch(200, false), small_options());
  std::vector<std::vector<double>> normal;
  std::vector<std::vector<double>> anomalous;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    normal.push_back(world.normal_sample());
    anomalous.push_back(world.anomalous_sample());
  }
  double normal_mean = 0.0;
  double anomaly_mean = 0.0;
  for (double s : log10_scores(model->pca, model->gmm, normal)) {
    normal_mean += s;
  }
  for (double s : log10_scores(model->pca, model->gmm, anomalous)) {
    anomaly_mean += s;
  }
  EXPECT_GT(normal_mean / n, anomaly_mean / n + 5.0);
}

TEST(AnomalyDetector, FalsePositiveRateTracksP) {
  // The paper's construction: θ_p is the p-quantile of held-out normal
  // scores, so fresh normal data should alarm at a rate near p.
  SyntheticWorld world(3);
  AnomalyDetector::Options opts = small_options();
  opts.primary_p = 0.05;
  engine::Session session = open_session(
      train_model(world.batch(800, false), world.batch(400, false), opts));
  std::size_t alarms = 0;
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    alarms += session.analyze(world.normal_sample(), i).anomalous;
  }
  const double fp_rate = static_cast<double>(alarms) / n;
  EXPECT_GT(fp_rate, 0.01);
  EXPECT_LT(fp_rate, 0.12);
}

TEST(AnomalyDetector, DetectsDistributionShift) {
  SyntheticWorld world(4);
  engine::Session session = open_session(train_model(
      world.batch(600, false), world.batch(300, false), small_options()));
  std::size_t detected = 0;
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    detected += session.analyze(world.anomalous_sample(), i).anomalous;
  }
  EXPECT_GT(static_cast<double>(detected) / n, 0.9);
}

TEST(AnomalyDetector, VerdictCarriesMetadata) {
  SyntheticWorld world(5);
  const auto model = train_model(world.batch(300, false),
                                 world.batch(150, false), small_options());
  engine::Session session = open_session(model);
  const auto v = session.analyze(world.normal_sample(), 42);
  EXPECT_EQ(v.interval_index, 42u);
  EXPECT_TRUE(std::isfinite(v.log10_density));
  EXPECT_LT(v.nearest_pattern, model->gmm.component_count());
  EXPECT_GT(v.analysis_time.count(), 0);
}

TEST(AnomalyDetector, TimingHistogramAccumulates) {
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";

  SyntheticWorld world(6);
  engine::Session session = open_session(train_model(
      world.batch(300, false), world.batch(150, false), small_options()));
  obs::Histogram& hist = StreamObserver::analysis_time_histogram();
  hist.reset();
  for (std::uint64_t i = 0; i < 10; ++i) {
    (void)session.analyze(world.normal_sample(), i);
  }
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_GT(hist.sum(), 0.0);

  obs::set_enabled(obs_was_enabled);
}

TEST(AnomalyDetector, JournalMatchesVerdictsBitForBit) {
  // The decision journal must be a faithful record of what analyze()
  // returned — same density bits, same alarm, same pattern — plus the
  // reduced coordinates of the projection that produced that density.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";

  SyntheticWorld world(11);
  const auto model = train_model(world.batch(500, false),
                                 world.batch(200, false), small_options());
  engine::Session session = open_session(model);

  std::vector<std::vector<double>> samples;
  std::vector<Verdict> verdicts;
  for (std::uint64_t i = 0; i < 50; ++i) {
    samples.push_back(i % 5 == 4 ? world.anomalous_sample()
                                 : world.normal_sample());
    verdicts.push_back(session.analyze(samples.back(), i));
  }

  const auto records = session.journal().snapshot();
  ASSERT_EQ(records.size(), verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const auto& rec = records[i];
    const auto& v = verdicts[i];
    EXPECT_EQ(rec.interval_index, v.interval_index);
    EXPECT_EQ(rec.log10_density, v.log10_density);  // bit-for-bit
    EXPECT_EQ(rec.alarm, v.anomalous);
    EXPECT_EQ(rec.nearest_pattern, v.nearest_pattern);
    EXPECT_EQ(rec.threshold, model->primary.log10_value);
    // The stored projection is exactly what the eigenmemory produces.
    EXPECT_EQ(rec.reduced_coords, model->pca.project(samples[i]));
    if (rec.alarm) {
      EXPECT_FALSE(rec.top_cells.empty());
    } else {
      EXPECT_TRUE(rec.top_cells.empty());
    }
  }

  std::size_t journal_alarms = session.journal().alarms().size();
  std::size_t verdict_alarms = 0;
  for (const auto& v : verdicts) verdict_alarms += v.anomalous;
  EXPECT_EQ(journal_alarms, verdict_alarms);
  EXPECT_GT(verdict_alarms, 0u);  // the injected samples must trip alarms

  obs::set_enabled(obs_was_enabled);
}

TEST(AnomalyDetector, AnalyzeHeatMapOverload) {
  // Build maps whose cells follow a fixed pattern.
  Rng rng(7);
  HeatMapTrace train_maps;
  HeatMapTrace valid_maps;
  auto make_map = [&](std::uint64_t idx) {
    HeatMap m(16);
    for (std::size_t c = 0; c < 16; ++c) {
      m.increment(c, rng.poisson(50.0 + 10.0 * static_cast<double>(c % 4)));
    }
    m.interval_index = idx;
    return m;
  };
  for (std::uint64_t i = 0; i < 200; ++i) train_maps.push_back(make_map(i));
  for (std::uint64_t i = 0; i < 100; ++i) valid_maps.push_back(make_map(i));

  AnomalyDetector::Options opts;
  opts.pca.components = 4;
  opts.gmm.components = 2;
  opts.gmm.restarts = 2;
  const auto det = AnomalyDetector::train(train_maps, valid_maps, opts);
  engine::Session session = open_session(det.snapshot());
  const auto v = session.analyze(train_maps.front());
  EXPECT_EQ(v.interval_index, 0u);
  EXPECT_FALSE(v.anomalous);  // training data must look normal
}

TEST(TrafficVolumeDetector, BandContainsNormalVolumes) {
  Rng rng(8);
  std::vector<double> volumes;
  for (int i = 0; i < 500; ++i) volumes.push_back(rng.normal(1e5, 5e3));
  const TrafficVolumeDetector det(volumes, 0.01);
  EXPECT_LT(det.lower_bound(), 1e5);
  EXPECT_GT(det.upper_bound(), 1e5);
  EXPECT_FALSE(det.anomalous(1e5));
  EXPECT_TRUE(det.anomalous(2e5));
  EXPECT_TRUE(det.anomalous(1e4));
}

TEST(TrafficVolumeDetector, RejectsBadParameters) {
  EXPECT_THROW(TrafficVolumeDetector({}, 0.01), ConfigError);
  EXPECT_THROW(TrafficVolumeDetector({1.0}, 0.0), ConfigError);
  EXPECT_THROW(TrafficVolumeDetector({1.0}, 0.5), ConfigError);
}

TEST(TrafficVolumeDetector, FromTraceUsesTotals) {
  HeatMapTrace maps;
  for (int i = 0; i < 50; ++i) {
    HeatMap m(4);
    m.increment(0, 100 + (i % 5));
    maps.push_back(m);
  }
  const auto det = TrafficVolumeDetector::from_trace(maps, 0.05);
  EXPECT_FALSE(det.anomalous(maps.front()));
  HeatMap burst(4);
  burst.increment(0, 100000);
  EXPECT_TRUE(det.anomalous(burst));
}

TEST(NearestNeighborDetector, FlagsFarPoints) {
  SyntheticWorld world(9);
  const NearestNeighborDetector det(world.batch(300, false),
                                    world.batch(100, false), 0.01);
  EXPECT_FALSE(det.anomalous(world.normal_sample()));
  EXPECT_TRUE(det.anomalous(world.anomalous_sample()));
}

TEST(NearestNeighborDetector, NearestDistanceIsZeroForStoredPoint) {
  const std::vector<std::vector<double>> train = {{1.0, 2.0}, {3.0, 4.0}};
  const NearestNeighborDetector det(train, train, 0.1);
  EXPECT_DOUBLE_EQ(det.nearest_distance({1.0, 2.0}), 0.0);
}

TEST(NearestNeighborDetector, StorageCostIsRawTrainingSet) {
  SyntheticWorld world(10);
  const auto train = world.batch(100, false);
  const NearestNeighborDetector det(train, world.batch(20, false), 0.01);
  EXPECT_EQ(det.stored_maps(), 100u);
  EXPECT_EQ(det.storage_bytes(), 100u * 20u * sizeof(double));
}

TEST(NearestNeighborDetector, RejectsEmptySets) {
  const std::vector<std::vector<double>> some = {{1.0}};
  EXPECT_THROW(NearestNeighborDetector({}, some, 0.1), ConfigError);
  EXPECT_THROW(NearestNeighborDetector(some, {}, 0.1), ConfigError);
}

}  // namespace
}  // namespace mhm
