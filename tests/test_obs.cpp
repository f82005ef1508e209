#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

/// Restores the kill switch on scope exit so one test cannot leak a
/// disabled obs layer into the next.
struct EnabledGuard {
  bool saved = obs::enabled();
  ~EnabledGuard() { obs::set_enabled(saved); }
};

TEST(Registry, CounterFoldIsExactAcrossThreadCounts) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  // The same logical workload split over 1, 2 and 8 threads must fold to
  // the same total: shards are integers, so the fold is exact no matter
  // which thread landed on which slot.
  constexpr std::uint64_t kPerThreadAdds = 10'000;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::Counter& c = obs::Registry::instance().counter("test.fold.counter");
    c.reset();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::uint64_t i = 0; i < kPerThreadAdds; ++i) c.add();
      });
    }
    for (auto& t : pool) t.join();
    EXPECT_EQ(c.value(), kPerThreadAdds * threads) << threads << " threads";
  }
}

TEST(Registry, HistogramFoldIsDeterministic) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::Histogram& h = obs::Registry::instance().histogram(
      "test.fold.histogram", {1.0, 10.0, 100.0});
  for (const std::size_t threads : {1u, 2u, 8u}) {
    h.reset();
    // Each thread observes the same integer-valued set, so count, sum and
    // every bucket must match the serial result exactly.
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int i = 0; i < 100; ++i) h.observe(0.5);   // bucket le=1
        for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket le=10
        for (int i = 0; i < 3; ++i) h.observe(1000.0);  // +Inf bucket
      });
    }
    for (auto& t : pool) t.join();
    const auto n = static_cast<std::uint64_t>(threads);
    EXPECT_EQ(h.count(), 113 * n);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n) * (100 * 0.5 + 10 * 5.0 + 3 * 1000.0));
    const auto buckets = h.bucket_counts();
    ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + Inf
    EXPECT_EQ(buckets[0], 100 * n);
    EXPECT_EQ(buckets[1], 10 * n);
    EXPECT_EQ(buckets[2], 0u);
    EXPECT_EQ(buckets[3], 3 * n);
  }
}

TEST(Registry, FindOrCreateReturnsStableHandles) {
  obs::Counter& a = obs::Registry::instance().counter("test.stable");
  obs::Counter& b = obs::Registry::instance().counter("test.stable");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, TypeMismatchThrows) {
  obs::Registry::instance().counter("test.mismatch");
  EXPECT_THROW(obs::Registry::instance().gauge("test.mismatch"),
               std::logic_error);
  EXPECT_THROW(
      obs::Registry::instance().histogram("test.mismatch", {1.0}),
      std::logic_error);
}

TEST(Registry, SnapshotIsLexicographicallyOrdered) {
  obs::Registry::instance().counter("test.order.b");
  obs::Registry::instance().counter("test.order.a");
  const auto snap = obs::Registry::instance().snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
}

TEST(Spans, NestingRecordsParentIds) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::SpanBuffer::instance().clear();
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    obs::SpanScope outer("test.outer");
    outer_id = outer.id();
    {
      obs::SpanScope inner("test.inner");
      inner_id = inner.id();
    }
  }
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  const auto spans = obs::SpanBuffer::instance().snapshot();
  // Children close before parents, so the inner span is recorded first.
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].id, inner_id);
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_STREQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_GE(spans[1].duration_ns, spans[0].duration_ns);
}

TEST(Spans, RingWrapsAroundKeepingNewest) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::SpanBuffer& buffer = obs::SpanBuffer::instance();
  const std::size_t saved_capacity = buffer.capacity();
  buffer.set_capacity(8);
  const std::uint64_t before = buffer.total_recorded();
  for (int i = 0; i < 20; ++i) {
    OBS_SPAN("test.wrap");
  }
  const auto spans = buffer.snapshot();
  EXPECT_EQ(spans.size(), 8u);
  EXPECT_EQ(buffer.total_recorded(), before + 20);
  // Oldest-to-newest: ids must be strictly increasing.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
  }
  buffer.set_capacity(saved_capacity);
}

TEST(Journal, CapturesInjectedAttackAlarms) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  // Fast-scale end-to-end: train on normal behaviour, run the shellcode
  // scenario, and require the journal to explain the alarms the detector
  // returned — interval, density vs threshold, and deviating cells.
  const sim::SystemConfig cfg = pipeline::fast_test_config(1);
  pipeline::TrainedPipeline pipe =
      pipeline::train_pipeline(cfg, pipeline::fast_test_plan(),
                               pipeline::fast_test_detector_options());
  auto attack = attacks::make_scenario("shellcode");
  const pipeline::ScenarioRun run = pipeline::run_scenario(
      cfg, attack.get(), 500 * kMillisecond, 1500 * kMillisecond,
      pipe.det().snapshot(), 42);

  std::size_t verdict_alarms = 0;
  for (const auto& v : run.verdicts) verdict_alarms += v.anomalous;
  ASSERT_GT(verdict_alarms, 0u) << "shellcode must trip the detector";

  const auto alarms = run.journal->alarms();
  EXPECT_EQ(alarms.size(), verdict_alarms);
  for (const auto& rec : alarms) {
    EXPECT_LT(rec.log10_density, rec.threshold);
    EXPECT_DOUBLE_EQ(rec.threshold,
                     pipe.det().primary_threshold().log10_value);
    ASSERT_FALSE(rec.top_cells.empty());
    // Contributions are ranked by |z| descending.
    for (std::size_t i = 1; i < rec.top_cells.size(); ++i) {
      EXPECT_GE(std::abs(rec.top_cells[i - 1].z_score),
                std::abs(rec.top_cells[i].z_score));
    }
  }
  // Every alarm is findable by interval index.
  for (const auto& v : run.verdicts) {
    if (!v.anomalous) continue;
    const auto rec = run.journal->find(v.interval_index);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->log10_density, v.log10_density);  // bit-for-bit
  }
}

TEST(KillSwitch, DisabledLayerRecordsNothing) {
  EnabledGuard guard;
  obs::set_enabled(false);

  obs::Counter& c = obs::Registry::instance().counter("test.disabled.counter");
  c.reset();
  c.add(42);
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge& g = obs::Registry::instance().gauge("test.disabled.gauge");
  g.reset();
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);

  obs::Histogram& h =
      obs::Registry::instance().histogram("test.disabled.histogram", {1.0});
  h.reset();
  h.observe(0.5);
  EXPECT_EQ(h.count(), 0u);

  obs::SpanBuffer::instance().clear();
  {
    obs::SpanScope span("test.disabled.span");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_TRUE(obs::SpanBuffer::instance().snapshot().empty());

  obs::DecisionJournal journal(4);
  journal.append(obs::DecisionRecord{});
  EXPECT_EQ(journal.size(), 0u);
  EXPECT_EQ(journal.total_appended(), 0u);
}

TEST(Exporters, PrometheusTextCarriesFoldedValues) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::Counter& c = obs::Registry::instance().counter(
      "test.export.counter", "help text");
  c.reset();
  c.add(3);
  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE mhm_test_export_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("mhm_test_export_counter 3"), std::string::npos);
  EXPECT_NE(text.find("# HELP mhm_test_export_counter help text"),
            std::string::npos);
}

TEST(Exporters, JournalJsonLinesRoundTripFields) {
  EnabledGuard guard;
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  obs::DecisionJournal journal(4);
  obs::DecisionRecord rec;
  rec.interval_index = 7;
  rec.phase = 3;
  rec.reduced_coords = {1.5, -2.0};
  rec.log10_density = -42.5;
  rec.threshold = -30.0;
  rec.alarm = true;
  rec.nearest_pattern = 2;
  rec.top_cells.push_back(
      obs::CellContribution{.cell = 9, .observed = 100.0, .expected = 1.0,
                            .z_score = 12.0});
  journal.append(rec);
  const std::string lines = obs::journal_json_lines(journal);
  EXPECT_NE(lines.find("\"interval\":7"), std::string::npos);
  EXPECT_NE(lines.find("\"alarm\":true"), std::string::npos);
  EXPECT_NE(lines.find("\"cell\":9"), std::string::npos);
}

}  // namespace
}  // namespace mhm
