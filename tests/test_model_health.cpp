// Model-health telemetry: P² quantile sketches, CUSUM / Page–Hinkley drift
// detectors, Wilson-interval calibration tracking, and the monitor's
// end-to-end behaviour on the fast-scale pipeline (normal replay stays OK,
// an attack replay leaves OK only after its trigger).
//
// The primitives (P2Quantile, CusumDetector, PageHinkleyDetector,
// wilson_interval) are pure and stay available even when the obs layer is
// compiled out, so those tests never skip; monitor-level tests need the
// runtime obs switch and skip under MHM_OBS_DISABLE.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "common/rng.hpp"
#include "gtest/gtest.h"
#include "obs/model_health.hpp"
#include "obs/obs.hpp"
#include "pipeline/experiment.hpp"

namespace mhm::obs {
namespace {

/// Exact type-7 (sorted, linearly interpolated) quantile — the reference
/// the P² sketch is judged against.
double exact_quantile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const double h = (static_cast<double>(xs.size()) - 1.0) * p;
  const std::size_t lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (h - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

class EnabledGuard {
 public:
  EnabledGuard() : was_(enabled()) { set_enabled(true); }
  ~EnabledGuard() { set_enabled(was_); }

 private:
  bool was_;
};

/// A monitor whose training baseline is N(-25, 2) scores; drift and
/// calibration options come from the caller.
struct MonitorFixture {
  std::vector<double> training;
  double train_mean = 0.0;
  ModelHealthMonitor monitor;

  explicit MonitorFixture(const ModelHealthOptions& opts,
                          std::size_t components = 3)
      : training(make_training()),
        train_mean(mean_of(training)),
        monitor(training, std::vector<double>(components, 1.0 / 3.0), opts) {}

  static std::vector<double> make_training() {
    Rng rng(7);
    std::vector<double> xs;
    xs.reserve(500);
    for (int i = 0; i < 500; ++i) xs.push_back(rng.normal(-25.0, 2.0));
    return xs;
  }
  static double mean_of(const std::vector<double>& xs) {
    double s = 0.0;
    for (double x : xs) s += x;
    return s / static_cast<double>(xs.size());
  }

  /// One observation with a benign row; z==0 when x is the training mean.
  void feed(double x, bool alarm, std::uint64_t interval) {
    static const std::vector<double> row(16, 1.0);
    monitor.observe(x, 0.5, interval % 3, alarm, interval, row);
  }
};

TEST(P2Quantile, MatchesExactQuantilesOnNormalData) {
  Rng rng(42);
  P2Quantile q05(0.05);
  P2Quantile q50(0.50);
  P2Quantile q95(0.95);
  std::vector<double> xs;
  xs.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.normal(-25.0, 2.0);
    xs.push_back(x);
    q05.add(x);
    q50.add(x);
    q95.add(x);
  }
  // 0.15σ tolerance: P² on 4000 iid samples is typically within a few
  // hundredths of a σ; the slack keeps the test seed-robust.
  EXPECT_NEAR(q05.value(), exact_quantile(xs, 0.05), 0.3);
  EXPECT_NEAR(q50.value(), exact_quantile(xs, 0.50), 0.3);
  EXPECT_NEAR(q95.value(), exact_quantile(xs, 0.95), 0.3);
  EXPECT_EQ(q50.count(), 4000u);
}

TEST(P2Quantile, MatchesExactQuantilesOnSkewedData) {
  Rng rng(43);
  P2Quantile q95(0.95);
  std::vector<double> xs;
  xs.reserve(4000);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.exponential(1.0);
    xs.push_back(x);
    q95.add(x);
  }
  const double exact = exact_quantile(xs, 0.95);  // ≈ ln 20 ≈ 3.0
  EXPECT_NEAR(q95.value(), exact, 0.25 * exact);
}

TEST(P2Quantile, ExactBeforeFiveSamples) {
  P2Quantile q50(0.50);
  q50.add(3.0);
  EXPECT_DOUBLE_EQ(q50.value(), 3.0);
  q50.add(1.0);
  EXPECT_DOUBLE_EQ(q50.value(), 2.0);  // interpolated midpoint of {1,3}
  q50.add(2.0);
  EXPECT_DOUBLE_EQ(q50.value(), 2.0);  // middle of {1,2,3}
}

TEST(CusumDetector, SilentOnStationaryStream) {
  Rng rng(44);
  CusumDetector cusum(0.5, 10.0);
  for (int i = 0; i < 2000; ++i) EXPECT_FALSE(cusum.add(rng.normal()));
  EXPECT_FALSE(cusum.fired());
}

TEST(CusumDetector, FiresOnInjectedMeanShift) {
  Rng rng(45);
  CusumDetector cusum(0.5, 10.0);
  for (int i = 0; i < 500; ++i) cusum.add(rng.normal());
  EXPECT_FALSE(cusum.fired());
  // 1.5σ downward shift: s⁻ drifts up ~1.0/sample, so h=10 trips fast.
  int fired_after = -1;
  for (int i = 0; i < 100 && fired_after < 0; ++i) {
    if (cusum.add(rng.normal(-1.5, 1.0))) fired_after = i;
  }
  EXPECT_GE(fired_after, 0);
  EXPECT_LE(fired_after, 60);
  EXPECT_TRUE(cusum.fired());  // latched
  cusum.reset();
  EXPECT_FALSE(cusum.fired());
  EXPECT_DOUBLE_EQ(cusum.negative_sum(), 0.0);
}

TEST(PageHinkleyDetector, SilentOnStationaryStream) {
  Rng rng(46);
  PageHinkleyDetector ph(0.5, 20.0);
  for (int i = 0; i < 2000; ++i) EXPECT_FALSE(ph.add(rng.normal()));
  EXPECT_FALSE(ph.fired());
}

TEST(PageHinkleyDetector, FiresOnInjectedMeanShift) {
  Rng rng(47);
  PageHinkleyDetector ph(0.5, 20.0);
  for (int i = 0; i < 500; ++i) ph.add(rng.normal());
  EXPECT_FALSE(ph.fired());
  int fired_after = -1;
  for (int i = 0; i < 200 && fired_after < 0; ++i) {
    if (ph.add(rng.normal(2.0, 1.0))) fired_after = i;
  }
  EXPECT_GE(fired_after, 0);
  EXPECT_TRUE(ph.fired());
  ph.reset();
  EXPECT_FALSE(ph.fired());
  EXPECT_DOUBLE_EQ(ph.statistic(), 0.0);
}

TEST(WilsonIntervalTest, MatchesReferenceValues) {
  // 5/100 at z=1.96 — the standard worked example: [0.0215, 0.1118].
  const WilsonInterval w = wilson_interval(5, 100, 1.96);
  EXPECT_NEAR(w.low, 0.02152, 5e-4);
  EXPECT_NEAR(w.high, 0.11175, 5e-4);
  // Degenerate cases: no data is maximally uncertain, all-success has a
  // high bound of exactly 1.
  const WilsonInterval none = wilson_interval(0, 0, 3.0);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_DOUBLE_EQ(none.high, 1.0);
  const WilsonInterval all = wilson_interval(50, 50, 2.0);
  EXPECT_GT(all.low, 0.8);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
}

TEST(ModelHealthMonitorTest, CalibrationFlipsExactlyAtWilsonBoundary) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  // With zero alarms and z=2 the Wilson upper bound is z²/(n+z²) = 4/(n+4),
  // so expected_p = 0.2 leaves the interval exactly at n = 17 (4/21 < 0.2).
  ModelHealthOptions opts;
  opts.expected_p = 0.2;
  opts.wilson_z = 2.0;
  opts.min_intervals = 1;
  MonitorFixture fx(opts);
  for (std::uint64_t n = 1; n <= 16; ++n) {
    fx.feed(fx.train_mean, /*alarm=*/false, n);
    EXPECT_EQ(fx.monitor.status(), ModelHealthStatus::kOk) << "n=" << n;
  }
  fx.feed(fx.train_mean, /*alarm=*/false, 17);
  EXPECT_EQ(fx.monitor.status(), ModelHealthStatus::kMiscalibrated);
  const ModelHealthSnapshot breached = fx.monitor.snapshot();
  EXPECT_FALSE(breached.calibrated);
  ASSERT_EQ(breached.events.size(), 1u);
  EXPECT_EQ(breached.events[0].to, ModelHealthStatus::kMiscalibrated);
  EXPECT_EQ(breached.events[0].interval, 17u);

  // Miscalibration is live, not latched: alarms at the expected rate pull
  // the observed rate back inside the bound and the status recovers.
  bool recovered = false;
  for (std::uint64_t n = 18; n <= 60 && !recovered; ++n) {
    fx.feed(fx.train_mean, /*alarm=*/true, n);
    recovered = fx.monitor.status() == ModelHealthStatus::kOk;
  }
  EXPECT_TRUE(recovered);
  const ModelHealthSnapshot ok = fx.monitor.snapshot();
  EXPECT_TRUE(ok.calibrated);
  EXPECT_GE(ok.expected_p, ok.wilson.low);
  EXPECT_LE(ok.expected_p, ok.wilson.high);
}

TEST(ModelHealthMonitorTest, WarmupAndWinsorizationGuardDriftDetectors) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  ModelHealthOptions opts;
  opts.warmup = 10;
  opts.z_clamp = 8.0;
  opts.min_intervals = 1u << 30;  // keep calibration out of this test
  MonitorFixture fx(opts);
  // Cold-start outliers (intervals 0..9) never reach the drift detectors.
  for (std::uint64_t n = 0; n < 10; ++n) {
    fx.feed(fx.train_mean - 1000.0, false, n);
  }
  ModelHealthSnapshot snap = fx.monitor.snapshot();
  EXPECT_EQ(snap.status, ModelHealthStatus::kOk);
  EXPECT_DOUBLE_EQ(snap.cusum_neg, 0.0);
  EXPECT_DOUBLE_EQ(snap.ph_stat, 0.0);
  // One post-warmup freak interval is winsorized to z_clamp: the CUSUM
  // negative sum steps to z_clamp − k and stays under h = 10.
  fx.feed(fx.train_mean - 1000.0, false, 10);
  snap = fx.monitor.snapshot();
  EXPECT_EQ(snap.status, ModelHealthStatus::kOk);
  EXPECT_LE(snap.cusum_neg, opts.z_clamp);
  // A sustained 3σ shift accumulates and latches DRIFTING.
  const double sd = [&] {
    double m2 = 0.0;
    for (double x : fx.training) {
      m2 += (x - fx.train_mean) * (x - fx.train_mean);
    }
    return std::sqrt(m2 / static_cast<double>(fx.training.size() - 1));
  }();
  for (std::uint64_t n = 11; n < 30; ++n) {
    fx.feed(fx.train_mean - 3.0 * sd, false, n);
  }
  EXPECT_EQ(fx.monitor.status(), ModelHealthStatus::kDrifting);
}

TEST(ModelHealthMonitorTest, SnapshotBookkeepingAndReset) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  ModelHealthOptions opts;
  opts.history = 4;
  opts.row_stride = 1;
  MonitorFixture fx(opts);
  for (std::uint64_t n = 0; n < 7; ++n) {
    fx.feed(fx.train_mean + static_cast<double>(n), false, n);
  }
  ModelHealthSnapshot snap = fx.monitor.snapshot();
  EXPECT_EQ(snap.intervals, 7u);
  // Ring of 4, oldest first: observations 3, 4, 5, 6.
  ASSERT_EQ(snap.recent_scores.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(snap.recent_scores[i],
                     fx.train_mean + static_cast<double>(i + 3));
  }
  // Patterns cycled 0,1,2,0,1,2,0 → occupancy {3,2,2}.
  ASSERT_EQ(snap.component_occupancy.size(), 3u);
  EXPECT_EQ(snap.component_occupancy[0], 3u);
  EXPECT_EQ(snap.component_occupancy[1], 2u);
  EXPECT_EQ(snap.component_occupancy[2], 2u);
  EXPECT_EQ(snap.last_row_interval, 6u);
  EXPECT_EQ(snap.last_row.size(), 16u);

  fx.monitor.reset();
  snap = fx.monitor.snapshot();
  EXPECT_EQ(snap.intervals, 0u);
  EXPECT_EQ(snap.status, ModelHealthStatus::kOk);
  EXPECT_TRUE(snap.recent_scores.empty());
  EXPECT_EQ(snap.component_occupancy[0], 0u);
  // The training baseline survives a reset.
  EXPECT_NEAR(snap.train_mean, fx.train_mean, 1e-9);
}

TEST(ModelHealthMonitorTest, JsonCarriesTheHeadlineFields) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  MonitorFixture fx(ModelHealthOptions{});
  for (std::uint64_t n = 0; n < 20; ++n) fx.feed(fx.train_mean, false, n);
  const std::string json = model_health_json(fx.monitor.snapshot());
  for (const char* needle :
       {"\"status\":\"OK\"", "\"intervals\":20", "\"drift\":",
        "\"cusum_pos\":", "\"page_hinkley\":", "\"score\":", "\"training\":",
        "\"spe\":", "\"components\":", "\"recent_scores\":",
        "\"heat_row\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

// End-to-end acceptance: on the fast-scale pipeline a normal replay keeps
// the monitor at OK, and an attack replay drives it out of OK — only after
// the trigger interval. Fully deterministic (fixed seeds, seed-free
// monitor state).
TEST(ModelHealthMonitorTest, NormalReplayStaysOkAttackReplayDoesNot) {
  EnabledGuard guard;
  if (!enabled()) GTEST_SKIP() << "obs layer compiled out";
  const sim::SystemConfig cfg = pipeline::fast_test_config(1);
  pipeline::TrainedPipeline pipe = pipeline::train_pipeline(
      cfg, pipeline::fast_test_plan(), pipeline::fast_test_detector_options());
  const SimTime duration = 2 * kSecond;
  const pipeline::ScenarioRun normal = pipeline::run_scenario(
      cfg, nullptr, 0, duration, pipe.det().snapshot(), 4242);
  ASSERT_NE(normal.health, nullptr);
  ASSERT_FALSE(normal.verdicts.empty());
  for (const Verdict& v : normal.verdicts) {
    EXPECT_TRUE(std::isfinite(v.spe));
    EXPECT_GE(v.spe, 0.0);
  }
  ModelHealthSnapshot snap = normal.health->snapshot();
  EXPECT_EQ(snap.status, ModelHealthStatus::kOk)
      << model_health_json(snap);
  EXPECT_EQ(snap.intervals, normal.verdicts.size());

  // Each run scores through a session of its own: a fresh monitor.
  auto attack = attacks::make_scenario("app_addition");
  const SimTime trigger = 1 * kSecond;
  const pipeline::ScenarioRun attacked = pipeline::run_scenario(
      cfg, attack.get(), trigger, duration, pipe.det().snapshot(), 4242);
  ASSERT_NE(attacked.health, nullptr);
  snap = attacked.health->snapshot();
  EXPECT_NE(snap.status, ModelHealthStatus::kOk) << model_health_json(snap);
  ASSERT_FALSE(snap.events.empty());
  // No false transition before the attack fired.
  EXPECT_GE(snap.events.front().interval, attacked.trigger_interval);
}

}  // namespace
}  // namespace mhm::obs
