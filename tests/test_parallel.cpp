// The deterministic parallel runtime's contract: for a fixed input and seed,
// every result in the repository is bit-identical at any thread count —
// including 1, which must also match the historical serial code. These tests
// sweep thread counts {1, 2, 8} over the ThreadPool primitives and the three
// parallelized hot paths (trace collection, Eigenmemory::fit, Gmm::fit).

#include "common/parallel.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/gmm.hpp"
#include "core/pca.hpp"
#include "obs/export.hpp"
#include "obs/model_health.hpp"
#include "obs/obs.hpp"
#include "pipeline/experiment.hpp"

namespace mhm {
namespace {

/// Restores the global pool default even if a test fails mid-sweep.
class GlobalThreadsGuard {
 public:
  ~GlobalThreadsGuard() { set_global_threads(0); }
};

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::size_t n = 10'000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 37, [&](std::size_t begin, std::size_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, n);
      for (std::size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPool, EmptyAndSingleChunkRanges) {
  ThreadPool pool(4);
  std::size_t calls = 0;
  pool.parallel_for(0, 10, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  pool.parallel_for(5, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, EffectiveGrainIsThreadCountIndependent) {
  // The chunk grid is a pure function of (n, grain) — never the pool width.
  EXPECT_EQ(ThreadPool::effective_grain(1000, 10), 10u);
  EXPECT_EQ(ThreadPool::effective_grain(1000, 0),
            (1000 + ThreadPool::kDefaultChunks - 1) / ThreadPool::kDefaultChunks);
  EXPECT_EQ(ThreadPool::effective_grain(3, 0), 1u);
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(1000, 10,
                          [&](std::size_t begin, std::size_t) {
                            if (begin >= 500) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
  }
}

TEST(ThreadPool, ParallelReduceIsBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 100'000;
  std::vector<double> xs(n);
  Rng rng(42);
  for (double& x : xs) x = rng.uniform(-1.0, 1.0);

  auto sum_with = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.parallel_reduce(
        n, 0, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) s += xs[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_with(1);
  EXPECT_EQ(serial, sum_with(2));
  EXPECT_EQ(serial, sum_with(8));
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, 1, [&](std::size_t, std::size_t) {
    pool.parallel_for(16, 1, [&](std::size_t begin, std::size_t end) {
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

std::vector<std::vector<double>> synthetic_samples(std::size_t n,
                                                   std::size_t d,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> xs(n, std::vector<double>(d));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      // Two offset clusters so a small GMM has real structure to find.
      xs[i][j] = rng.normal() + (i % 2 == 0 ? 0.0 : 4.0);
    }
  }
  return xs;
}

TEST(ParallelDeterminism, EigenmemoryFitBitIdentical) {
  GlobalThreadsGuard guard;
  // Covariance path (N >= L) and Gram path (N < L).
  for (const bool gram : {false, true}) {
    const auto data = gram ? synthetic_samples(12, 40, 7)
                           : synthetic_samples(60, 16, 7);
    Eigenmemory::Options opts;
    opts.components = 5;
    std::vector<Eigenmemory> fits;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      set_global_threads(threads);
      fits.push_back(Eigenmemory::fit(data, opts));
    }
    for (std::size_t f = 1; f < fits.size(); ++f) {
      EXPECT_EQ(fits[0].mean(), fits[f].mean()) << "gram=" << gram;
      EXPECT_EQ(fits[0].eigenvalues(), fits[f].eigenvalues());
      const auto b0 = fits[0].basis().data();
      const auto bf = fits[f].basis().data();
      ASSERT_EQ(b0.size(), bf.size());
      for (std::size_t i = 0; i < b0.size(); ++i) {
        ASSERT_EQ(b0[i], bf[i]) << "basis element " << i << " gram=" << gram;
      }
    }
  }
}

TEST(ParallelDeterminism, GmmFitBitIdentical) {
  GlobalThreadsGuard guard;
  const auto data = synthetic_samples(80, 4, 11);
  Gmm::Options opts;
  opts.components = 2;
  opts.restarts = 3;
  opts.max_iterations = 50;
  std::vector<Gmm> fits;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_global_threads(threads);
    fits.push_back(Gmm::fit(data, opts));
  }
  for (std::size_t f = 1; f < fits.size(); ++f) {
    ASSERT_EQ(fits[0].component_count(), fits[f].component_count());
    for (std::size_t j = 0; j < fits[0].component_count(); ++j) {
      const auto& a = fits[0].components()[j];
      const auto& b = fits[f].components()[j];
      EXPECT_EQ(a.weight, b.weight) << "component " << j;
      EXPECT_EQ(a.mean, b.mean) << "component " << j;
      const auto ca = a.covariance.data();
      const auto cb = b.covariance.data();
      ASSERT_EQ(ca.size(), cb.size());
      for (std::size_t i = 0; i < ca.size(); ++i) {
        ASSERT_EQ(ca[i], cb[i]) << "cov element " << i;
      }
    }
  }
}

TEST(ParallelDeterminism, KmeansPlusPlusInitBitIdentical) {
  GlobalThreadsGuard guard;
  const auto data = synthetic_samples(100, 6, 13);
  std::vector<std::vector<std::vector<double>>> inits;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_global_threads(threads);
    Rng rng(99);
    inits.push_back(kmeans_plus_plus_init(data, 4, rng));
  }
  EXPECT_EQ(inits[0], inits[1]);
  EXPECT_EQ(inits[0], inits[2]);
}

TEST(ParallelDeterminism, CollectNormalTraceBitIdentical) {
  GlobalThreadsGuard guard;
  const sim::SystemConfig cfg = pipeline::fast_test_config();
  pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
  plan.runs = 3;
  plan.run_duration = 300 * kMillisecond;

  std::vector<HeatMapTrace> traces;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    set_global_threads(threads);
    traces.push_back(pipeline::collect_normal_trace(cfg, plan));
  }
  for (std::size_t t = 1; t < traces.size(); ++t) {
    ASSERT_EQ(traces[0].size(), traces[t].size());
    for (std::size_t i = 0; i < traces[0].size(); ++i) {
      ASSERT_EQ(traces[0][i].interval_index, traces[t][i].interval_index);
      ASSERT_EQ(traces[0][i].counts(), traces[t][i].counts()) << "map " << i;
    }
  }
}

TEST(ParallelDeterminism, ScenarioFanOutMatchesSerialRuns) {
  GlobalThreadsGuard guard;
  const sim::SystemConfig cfg = pipeline::fast_test_config();
  pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
  plan.runs = 2;
  plan.run_duration = 300 * kMillisecond;

  set_global_threads(2);
  const auto pipe = pipeline::train_pipeline(
      cfg, plan, pipeline::fast_test_detector_options());

  const SimTime duration = 30 * cfg.monitor.interval;
  std::vector<pipeline::ScenarioSpec> specs = {
      {.attack = "", .trigger_time = 0, .duration = duration, .seed = 501},
      {.attack = "", .trigger_time = 0, .duration = duration, .seed = 502},
      {.attack = "", .trigger_time = 0, .duration = duration, .seed = 503},
  };
  const auto batch = pipeline::run_scenarios(cfg, specs, pipe.det().snapshot());
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto serial = pipeline::run_scenario(
        cfg, nullptr, 0, duration, pipe.det().snapshot(), specs[s].seed);
    EXPECT_EQ(batch[s].log10_densities(), serial.log10_densities())
        << "scenario " << s;
  }
}

// Each scenario scores through a session of its own, so its journal and
// its model-health monitor see its intervals only, in interval order — the
// same records and the same final health at any thread count.
TEST(ParallelDeterminism, ScenarioJournalsAndHealthMatchAcrossThreadCounts) {
  GlobalThreadsGuard guard;
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs layer compiled out";
  const sim::SystemConfig cfg = pipeline::fast_test_config();
  pipeline::ProfilingPlan plan = pipeline::fast_test_plan();
  plan.runs = 2;
  plan.run_duration = 300 * kMillisecond;
  const auto pipe = pipeline::train_pipeline(
      cfg, plan, pipeline::fast_test_detector_options());

  const SimTime interval = cfg.monitor.interval;
  const std::vector<pipeline::ScenarioSpec> specs = {
      {.attack = "shellcode", .trigger_time = 20 * interval,
       .duration = 60 * interval, .seed = 601},
      {.attack = "", .trigger_time = 0, .duration = 60 * interval,
       .seed = 602},
      {.attack = "app_addition", .trigger_time = 20 * interval,
       .duration = 60 * interval, .seed = 603},
      {.attack = "", .trigger_time = 0, .duration = 60 * interval,
       .seed = 604},
  };
  std::vector<std::vector<pipeline::ScenarioRun>> batches;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    batches.push_back(
        pipeline::run_scenarios(cfg, specs, pipe.det().snapshot()));
  }
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const pipeline::ScenarioRun& one = batches[0][s];
    const pipeline::ScenarioRun& four = batches[1][s];
    ASSERT_NE(one.journal, nullptr);
    ASSERT_NE(four.journal, nullptr);
    EXPECT_EQ(one.journal->size(), one.verdicts.size()) << "scenario " << s;
    EXPECT_EQ(obs::journal_json_lines(*one.journal),
              obs::journal_json_lines(*four.journal))
        << "scenario " << s;
    ASSERT_NE(one.health, nullptr);
    ASSERT_NE(four.health, nullptr);
    const obs::ModelHealthSnapshot health = one.health->snapshot();
    EXPECT_EQ(health.intervals, one.verdicts.size()) << "scenario " << s;
    EXPECT_EQ(obs::model_health_json(health),
              obs::model_health_json(four.health->snapshot()))
        << "scenario " << s;
  }
  obs::set_enabled(obs_was_enabled);
}

}  // namespace
}  // namespace mhm
