#include "sim/system.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "engine/sim_source.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/secure_core.hpp"

namespace mhm::sim {
namespace {

SystemConfig small_config(std::uint64_t seed = 1) {
  SystemConfig cfg = SystemConfig::paper_default(seed);
  cfg.monitor.granularity = 8 * 1024;  // fewer cells, faster tests
  return cfg;
}

TEST(System, PaperDefaultConfiguration) {
  const SystemConfig cfg = SystemConfig::paper_default();
  EXPECT_EQ(cfg.monitor.cell_count(), 1472u);
  EXPECT_EQ(cfg.tasks.size(), 4u);
  EXPECT_EQ(cfg.snoop_point, SnoopPoint::PreL1);
  EXPECT_NO_THROW(System{cfg});
}

TEST(System, ProducesOneMapPerInterval) {
  System system(small_config());
  system.run_for(500 * kMillisecond);
  // 10 ms intervals over 500 ms -> 50 completed maps.
  EXPECT_EQ(system.trace().size(), 50u);
  for (std::size_t i = 0; i < system.trace().size(); ++i) {
    EXPECT_EQ(system.trace()[i].interval_index, i);
  }
}

TEST(System, MapsContainPlausibleTraffic) {
  System system(small_config());
  system.run_for(500 * kMillisecond);
  for (const auto& map : system.trace()) {
    // Figure 9 shows roughly 10^4..10^5 accesses per 10 ms interval.
    EXPECT_GT(map.total_accesses(), 1'000u) << summarize(map);
    EXPECT_LT(map.total_accesses(), 10'000'000u) << summarize(map);
    EXPECT_GT(map.active_cells(), 5u);
  }
}

TEST(System, DeterministicForSameSeed) {
  System a(small_config(7));
  System b(small_config(7));
  a.run_for(300 * kMillisecond);
  b.run_for(300 * kMillisecond);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    EXPECT_EQ(a.trace()[i].counts(), b.trace()[i].counts()) << "map " << i;
  }
}

TEST(System, DifferentSeedsDiffer) {
  System a(small_config(1));
  System b(small_config(2));
  a.run_for(200 * kMillisecond);
  b.run_for(200 * kMillisecond);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    any_diff |= a.trace()[i].counts() != b.trace()[i].counts();
  }
  EXPECT_TRUE(any_diff);
}

TEST(System, IntervalObserverSeesEveryMap) {
  // An attached sink sees every map, and the system keeps none of them.
  System system(small_config());
  std::size_t observed = 0;
  system.attach_sink([&](const HeatMap&) { ++observed; });
  system.run_for(200 * kMillisecond);
  EXPECT_EQ(observed, 20u);
  EXPECT_TRUE(system.trace().empty());
  // Detaching restores the collector.
  system.detach_sink();
  system.run_for(100 * kMillisecond);
  EXPECT_EQ(observed, 20u);
  EXPECT_EQ(system.trace().size(), 10u);
}

TEST(System, SecondConsumerAttachThrows) {
  System system(small_config());
  std::size_t first = 0;
  system.attach_sink([&](const HeatMap&) { ++first; });
  EXPECT_THROW(system.attach_sink([](const HeatMap&) {}), ConfigError);
  // The first consumer keeps the slot.
  system.run_for(50 * kMillisecond);
  EXPECT_EQ(first, 5u);
}

TEST(System, SourceOverMonitoredSystemThrows) {
  System profiling(small_config(2));
  profiling.run_for(400 * kMillisecond);
  TrainOptions options;
  options.pca.components = 4;
  options.gmm.components = 2;
  options.gmm.restarts = 1;
  const auto rows = as_rows(profiling.trace());
  const auto model = std::make_shared<const ModelSnapshot>(
      train_snapshot(rows, rows, options));

  System system(small_config());
  pipeline::SecureCoreMonitor monitor(system, model);
  EXPECT_THROW(engine::SimIntervalSource(system, 50 * kMillisecond),
               ConfigError);
  system.run_for(50 * kMillisecond);
  EXPECT_EQ(monitor.verdicts().size(), 5u);
  EXPECT_TRUE(system.trace().empty());
}

TEST(System, ReattachAfterSourceIsDestroyed) {
  System system(small_config());
  {
    engine::SimIntervalSource source(system, 30 * kMillisecond);
    while (source.next()) {
    }
  }
  std::size_t observed = 0;
  EXPECT_NO_THROW(system.attach_sink([&](const HeatMap&) { ++observed; }));
  system.run_for(20 * kMillisecond);
  EXPECT_EQ(observed, 2u);
  EXPECT_TRUE(system.trace().empty());
}

TEST(System, ConcurrentCollectionMatchesCollectedTraces) {
  // collect_normal_trace streams each run through its own source on the
  // pool; the maps must equal each system's collected trace, in order.
  pipeline::ProfilingPlan plan;
  plan.runs = 3;
  plan.run_duration = 60 * kMillisecond;
  plan.warmup_intervals = 2;
  const HeatMapTrace pulled = pipeline::collect_normal_trace(small_config(),
                                                             plan);
  HeatMapTrace expected;
  for (std::size_t run = 0; run < plan.runs; ++run) {
    System system(small_config(plan.seed_base + run));
    system.run_for(plan.run_duration);
    const HeatMapTrace trace = system.take_trace();
    expected.insert(expected.end(), trace.begin() + 2, trace.end());
  }
  ASSERT_EQ(pulled.size(), expected.size());
  for (std::size_t i = 0; i < pulled.size(); ++i) {
    EXPECT_EQ(pulled[i].interval_index, expected[i].interval_index);
    EXPECT_EQ(pulled[i].counts(), expected[i].counts());
  }
}

TEST(System, TakeTraceMovesAndClears) {
  System system(small_config());
  system.run_for(100 * kMillisecond);
  const auto trace = system.take_trace();
  EXPECT_EQ(trace.size(), 10u);
  EXPECT_TRUE(system.trace().empty());
}

TEST(System, RejectsMonitorOutsideKernelText) {
  SystemConfig cfg = small_config();
  cfg.monitor.base = 0x1000;  // not in kernel .text
  EXPECT_THROW(System{cfg}, ConfigError);
}

TEST(System, RejectsIntervalNotMultipleOfTick) {
  SystemConfig cfg = small_config();
  cfg.monitor.interval = 1500 * kMicrosecond;
  EXPECT_THROW(System{cfg}, ConfigError);
}

TEST(System, MonitoredTrafficConfinedToRegion) {
  // Every counted access must come from inside [base, base+size): totals
  // of the memometer must match the sum over all maps.
  System system(small_config());
  system.run_for(300 * kMillisecond);
  std::uint64_t sum = 0;
  for (const auto& m : system.trace()) sum += m.total_accesses();
  // Active (incomplete) interval may hold more counts not yet delivered.
  EXPECT_GE(system.memometer().accesses_counted(), sum);
  EXPECT_GT(system.memometer().accesses_filtered_out(), 0u);  // user traffic
}

TEST(System, HyperperiodPhasesProduceRepeatingPatterns) {
  // The 100 ms hyperperiod spans 10 intervals: interval i and i+10 share
  // the same task phases, so their maps must correlate strongly more often
  // than maps at unrelated phases.
  System system(small_config(3));
  system.run_for(2 * kSecond);
  const auto& trace = system.trace();
  ASSERT_GE(trace.size(), 60u);

  auto correlation = [&](std::size_t a, std::size_t b) {
    return pearson_correlation(trace[a].as_vector(), trace[b].as_vector());
  };
  double same_phase = 0.0;
  double other_phase = 0.0;
  int n = 0;
  for (std::size_t i = 20; i < 50; ++i) {
    same_phase += correlation(i, i + 10);
    other_phase += correlation(i, i + 13);
    ++n;
  }
  EXPECT_GT(same_phase / n, other_phase / n);
}

TEST(System, PostL1SnoopSeesFewerAccesses) {
  // §5.5: below the cache, hits are invisible -> far less traffic.
  SystemConfig pre = small_config(4);
  SystemConfig post = small_config(4);
  post.snoop_point = SnoopPoint::PostL1;

  System sys_pre(pre);
  System sys_post(post);
  sys_pre.run_for(300 * kMillisecond);
  sys_post.run_for(300 * kMillisecond);

  std::uint64_t pre_total = 0;
  std::uint64_t post_total = 0;
  for (const auto& m : sys_pre.trace()) pre_total += m.total_accesses();
  for (const auto& m : sys_post.trace()) post_total += m.total_accesses();
  EXPECT_LT(post_total, pre_total / 2);
  EXPECT_GT(post_total, 0u);
  ASSERT_NE(sys_post.l1_cache(), nullptr);
  EXPECT_GT(sys_post.l1_cache()->hit_rate(), 0.5);
}

TEST(System, PostL2SnoopSeesEvenFewer) {
  SystemConfig post1 = small_config(5);
  post1.snoop_point = SnoopPoint::PostL1;
  SystemConfig post2 = small_config(5);
  post2.snoop_point = SnoopPoint::PostL2;

  System a(post1);
  System b(post2);
  a.run_for(300 * kMillisecond);
  b.run_for(300 * kMillisecond);

  std::uint64_t l1_total = 0;
  std::uint64_t l2_total = 0;
  for (const auto& m : a.trace()) l1_total += m.total_accesses();
  for (const auto& m : b.trace()) l2_total += m.total_accesses();
  EXPECT_LE(l2_total, l1_total);
  ASSERT_NE(b.l2_cache(), nullptr);
}

TEST(System, RuntimeTaskManipulationHooks) {
  System system(small_config());
  system.run_for(100 * kMillisecond);
  system.launch_task(qsort_task_spec());
  system.run_for(100 * kMillisecond);
  EXPECT_GT(system.scheduler().task("qsort").jobs_completed, 0u);
  system.kill_task("qsort");
  const auto jobs = system.scheduler().task("qsort").jobs_completed;
  system.run_for(100 * kMillisecond);
  EXPECT_EQ(system.scheduler().task("qsort").jobs_completed, jobs);
}

TEST(System, ScheduledActionRuns) {
  System system(small_config());
  bool fired = false;
  system.at(50 * kMillisecond, [&] { fired = true; });
  system.run_for(100 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(System, KworkerCanBeDisabled) {
  SystemConfig cfg = small_config(6);
  cfg.kworker_mean_period = 0;
  System system(cfg);
  system.run_for(200 * kMillisecond);
  EXPECT_EQ(system.trace().size(), 20u);
}

TEST(System, EmptyTaskSetStillProducesMaps) {
  // A bare kernel (no application tasks): the tick, idle loop and kworker
  // still touch kernel .text, so MHMs keep flowing — the monitoring plane
  // must not depend on application activity.
  SystemConfig cfg = small_config(9);
  cfg.tasks.clear();
  System system(cfg);
  system.run_for(300 * kMillisecond);
  EXPECT_EQ(system.trace().size(), 30u);
  for (const auto& m : system.trace()) {
    EXPECT_GT(m.total_accesses(), 0u);
  }
  EXPECT_EQ(system.scheduler().stats().jobs_released, 0u);
  EXPECT_EQ(system.scheduler().stats().busy_time, 0u);
}

TEST(System, IdleOnlySystemMapsAreHighlyRegular) {
  // With nothing but periodic kernel housekeeping, same-phase maps should
  // be nearly identical — the degenerate base case of the MHM idea.
  SystemConfig cfg = small_config(10);
  cfg.tasks.clear();
  cfg.kworker_mean_period = 0;
  System system(cfg);
  system.run_for(500 * kMillisecond);
  const auto& trace = system.trace();
  for (std::size_t i = 11; i < 40; ++i) {
    EXPECT_GT(pearson_correlation(trace[i].as_vector(),
                                  trace[i - 1].as_vector()),
              0.99)
        << "interval " << i;
  }
}

TEST(System, NoDeadlineMissesInNormalOperation) {
  System system(small_config(8));
  system.run_for(1 * kSecond);
  EXPECT_EQ(system.scheduler().stats().deadline_misses, 0u);
}

}  // namespace
}  // namespace mhm::sim
