// Workload `train`: the batch job that turns profiling runs into a
// calibrated model. PCA and GMM fitting do almost all the work; scoring
// does almost none. The seed picks the profiling runs and the held-out
// normal run the trained model is checked on.

#include <sstream>

#include "common/parallel.hpp"
#include "core/model_io.hpp"
#include "engine/engine.hpp"
#include "engine/sim_source.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace prof = mhm::obs::prof;

/// Held-out normal run: 60 s of device time.
constexpr std::size_t kHeldOutIntervals = 6000;
/// Passes over the held-out run after each training. One pass takes about
/// 0.15 s, too short a window for its median latency to be steady on a
/// shared host; eight passes spread the samples over about a second.
constexpr int kHeldOutPasses = 8;
/// Window of verdict_p50_us (util.hpp, lowest_window_median): about 20 ms
/// of scoring, six windows a pass.
constexpr std::size_t kLatencyWindow = 1000;

std::uint64_t profiling_seed_base(std::uint64_t seed) {
  return 100 + seed * 10000;
}

mhm::HeatMapTrace held_out_maps(std::uint64_t seed) {
  mhm::sim::SystemConfig cfg = paper_config();
  cfg.seed = 0x48454c44ULL ^ (seed * 0x9e3779b97f4a7c15ULL);
  mhm::sim::System system(cfg);
  mhm::engine::SimIntervalSource source(
      system, static_cast<mhm::SimTime>(kHeldOutIntervals) *
                  cfg.monitor.interval);
  mhm::HeatMapTrace maps;
  maps.reserve(kHeldOutIntervals);
  while (auto item = source.next()) maps.push_back(std::move(item->map));
  return maps;
}

std::string model_digest(const mhm::AnomalyDetector& detector) {
  std::ostringstream os;
  mhm::save_model(mhm::DetectorModel::from_detector(detector), os);
  Digest d;
  d.add(os.str());
  return d.hex();
}

struct Training {
  std::unique_ptr<mhm::AnomalyDetector> detector;
  std::size_t maps = 0;
  double collect_s = 0.0;  ///< Both profiling collections (traced only).
  double fit_s = 0.0;      ///< AnomalyDetector::train (traced only).
};

/// One training. Untraced, it calls the system-of-record routine as is.
/// Traced, it makes the same calls train_pipeline makes, one span each;
/// the caller checks that both paths produce the same model bytes.
Training train_once(std::uint64_t seed_base, Tracer& tracer,
                    std::uint64_t index) {
  Training t;
  if (!tracer.enabled()) {
    mhm::pipeline::TrainedPipeline pipe = mhm::pipeline::train_pipeline(
        paper_config(), paper_plan(seed_base), paper_options());
    t.maps = pipe.training.size() + pipe.validation.size();
    t.detector = std::move(pipe.detector);
    return t;
  }
  Tracer::Scope root(tracer, "pipeline.train_pipeline", Layer::kPipeline,
                     index);
  const mhm::pipeline::ProfilingPlan plan = paper_plan(seed_base);
  mhm::pipeline::ProfilingPlan validation_plan = plan;
  validation_plan.runs = std::max<std::size_t>(1, plan.runs / 5);
  validation_plan.seed_base = plan.seed_base + plan.runs + 1000;
  auto t0 = Clock::now();
  mhm::HeatMapTrace training;
  mhm::HeatMapTrace validation;
  {
    Tracer::Scope s(tracer, "pipeline.collect_normal_trace", Layer::kSim,
                    index);
    training = mhm::pipeline::collect_normal_trace(paper_config(), plan);
  }
  {
    Tracer::Scope s(tracer, "pipeline.collect_normal_trace", Layer::kSim,
                    index);
    validation =
        mhm::pipeline::collect_normal_trace(paper_config(), validation_plan);
  }
  auto t1 = Clock::now();
  {
    Tracer::Scope s(tracer, "core.AnomalyDetector::train", Layer::kCore,
                    index);
    t.detector = std::make_unique<mhm::AnomalyDetector>(
        mhm::AnomalyDetector::train(training, validation, paper_options()));
  }
  t.collect_s = seconds_between(t0, t1);
  t.fit_s = seconds_between(t1, Clock::now());
  t.maps = training.size() + validation.size();
  return t;
}

struct TrainPhase {
  std::vector<double> train_s;
  std::vector<double> collect_s;
  std::vector<double> fit_s;
  std::size_t maps = 0;
  std::string model_digest;
  std::string verdict_digest;
  std::unique_ptr<mhm::AnomalyDetector> detector;
  std::vector<mhm::Verdict> verdicts;  ///< Last held-out pass.
  std::vector<double> verdict_us;      ///< Every held-out pass.
  std::vector<double> score_us;
  std::vector<double> observe_us;
  std::vector<double> observe_alarm_us;
  std::uint64_t journal_records = 0;
  std::size_t alarms = 0;
  std::size_t scored = 0;
  double accesses = 0.0;
  StageTotals train_stages;
  StageTotals score_stages;
};

/// Score the held-out run through a fresh session of `detector`'s model.
void score_held_out(const mhm::HeatMapTrace& held_out, Tracer& tracer,
                    TrainPhase& phase) {
  const mhm::engine::DetectionEngine engine(phase.detector->snapshot());
  mhm::engine::Session session = engine.new_session();
  phase.verdicts.clear();
  phase.verdicts.reserve(held_out.size());
  Digest digest;
  for (const mhm::HeatMap& map : held_out) {
    const std::uint64_t i = map.interval_index;
    const auto t0 = Clock::now();
    mhm::Verdict v;
    {
      Tracer::Scope s(tracer, "engine.Session::analyze", Layer::kEngine, i);
      v = session.analyze(map);
    }
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    phase.verdict_us.push_back(us);
    if (tracer.enabled()) {
      const double score = static_cast<double>(v.analysis_time.count()) * 1e-3;
      phase.score_us.push_back(score);
      phase.observe_us.push_back(us - score);
      if (v.anomalous) phase.observe_alarm_us.push_back(us - score);
      Tracer::Scope s(tracer, "hw.HeatMap::total_accesses", Layer::kHw, i);
      phase.accesses += static_cast<double>(map.total_accesses());
    }
    phase.alarms += v.anomalous ? 1 : 0;
    digest_verdict(digest, v);
    phase.verdicts.push_back(v);
  }
  phase.scored += held_out.size();
  phase.journal_records += session.journal().total_appended();
  phase.verdict_digest = digest.hex();
}

/// Train repeatedly until `seconds` have passed (at least once), scoring
/// the held-out run kHeldOutPasses times after each training. Every
/// training of one seed must produce the same model bytes, and every pass
/// the same held-out verdicts.
TrainPhase train_phase(std::uint64_t seed_base, double seconds,
                       const mhm::HeatMapTrace& held_out, Tracer& tracer,
                       Result& result) {
  TrainPhase phase;
  prof::reset();
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    Training t;
    try {
      t = train_once(seed_base, tracer, phase.train_s.size());
    } catch (const std::exception& e) {
      ++result.attempted;
      result.fail(std::string("training threw: ") + e.what());
      break;
    }
    phase.train_s.push_back(seconds_between(t0, Clock::now()));
    phase.train_stages.take();
    phase.collect_s.push_back(t.collect_s);
    phase.fit_s.push_back(t.fit_s);
    phase.maps = t.maps;
    ++result.attempted;
    const std::string model = model_digest(*t.detector);
    const std::string verdicts = phase.verdict_digest;
    phase.detector = std::move(t.detector);
    CpuRotation cpus;  // Scoring is single-threaded; training is not.
    for (int pass = 0; pass < kHeldOutPasses; ++pass) {
      const std::string previous = phase.verdict_digest;
      cpus.next();
      score_held_out(held_out, tracer, phase);
      if (pass > 0 && phase.verdict_digest != previous) {
        result.fail("held-out passes gave different verdicts");
      }
    }
    phase.score_stages.take();
    if (phase.model_digest.empty()) {
      phase.model_digest = model;
    } else if (model != phase.model_digest ||
               verdicts != phase.verdict_digest) {
      result.fail("two trainings of one seed gave different models");
    }
  } while (seconds_between(start, Clock::now()) < seconds);
  return phase;
}

}  // namespace

Result run_train(const RunOptions& options, Tracer& tracer) {
  Result result;
  mhm::set_global_threads(host_threads());
  const std::uint64_t seed_base = profiling_seed_base(options.seed);

  // Set-up: generate the held-out normal run the trained model is checked
  // on (the last set-up makes the run's own).
  std::vector<double> setup_s;
  mhm::HeatMapTrace held_out;
  for (int k = 0; k < kTrainSetups; ++k) {
    const auto t0 = Clock::now();
    held_out = held_out_maps(setup_seed(options.seed, k, kTrainSetups));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // A traced run first measures half its time untraced, so the tracing
  // overhead is the difference of two phases of one process.
  Tracer off(false);
  const double phase_s =
      tracer.enabled() ? options.seconds / 2 : options.seconds;
  TrainPhase untraced;
  if (tracer.enabled()) {
    untraced = train_phase(seed_base, phase_s, held_out, off, result);
  }
  tracer.this_thread();
  const auto traced_begin = Clock::now();
  TrainPhase phase =
      train_phase(seed_base, phase_s, held_out, tracer, result);
  if (phase.detector == nullptr) return result;
  if (tracer.enabled() && untraced.model_digest != phase.model_digest) {
    result.fail("traced training diverged from train_pipeline");
  }

  // Check the last held-out pass against the batch kernel.
  {
    std::vector<std::vector<double>> raws;
    raws.reserve(held_out.size());
    for (const mhm::HeatMap& map : held_out) raws.push_back(map.as_vector());
    Tracer::Scope s(tracer, "core.score_snapshot_batch", Layer::kCore, 0);
    const std::size_t bad =
        batch_mismatches(*phase.detector->snapshot(), raws, phase.verdicts);
    result.attempted += held_out.size();
    for (std::size_t k = 0; k < bad; ++k) {
      result.fail("held-out verdict differs from the batch kernel");
    }
  }
  const auto traced_end = Clock::now();
  result.digests.push_back({"model", phase.model_digest});
  result.digests.push_back({"held_out_verdicts", phase.verdict_digest});

  const double train_s = median(phase.train_s);
  const double n = static_cast<double>(phase.scored);
  // The fastest training is the least disturbed one, as with the windows
  // of verdict_p50_us (util.hpp).
  const double fastest_s =
      *std::min_element(phase.train_s.begin(), phase.train_s.end());
  result.e2e = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1048576.0,
       "MB"},
      {"intervals_per_s", static_cast<double>(phase.maps) / fastest_s,
       "1/s"},
      {"verdict_p50_us",
       lowest_window_median(phase.verdict_us, kLatencyWindow), "us"},
  };
  result.info = {
      {"train_s", train_s, "s"},
      {"run_verdict_p50_us", quantile(phase.verdict_us, 0.5), "us"},
      {"verdict_p99_us", quantile(phase.verdict_us, 0.99), "us"},
      {"false_alarm_pct", 100.0 * static_cast<double>(phase.alarms) / n, "%"},
      {"trainings", static_cast<double>(phase.train_s.size()), "count"},
      {"held_out_intervals", static_cast<double>(held_out.size()), "count"},
  };
  if (!tracer.enabled()) return result;

  using prof::Stage;
  const double trainings = static_cast<double>(phase.train_s.size());
  const auto& em = phase.detector->eigenmemory();
  const StageTotals& sc = phase.score_stages;
  result.layer = {
      {"sim.collect_s", median(phase.collect_s), "s"},
      {"core.train_s", median(phase.fit_s), "s"},
      {"core.components", static_cast<double>(em.components()), "count"},
      {"core.variance_explained_pct", 100.0 * em.variance_explained(), "%"},
      {"core.score_p50_us", quantile(phase.score_us, 0.5), "us"},
      {"core.score_p99_us", quantile(phase.score_us, 0.99), "us"},
      {"obs.observe_us", quantile(phase.observe_us, 0.5), "us"},
      {"obs.observe_alarm_us", quantile(phase.observe_alarm_us, 0.5), "us"},
      {"obs.journal_records", static_cast<double>(phase.journal_records),
       "count"},
      {"hw.accesses_per_interval", phase.accesses / n, "count"},
      {"prof.train.covariance_s",
       phase.train_stages.per(Stage::kTrainCovariance, trainings), "s"},
      {"prof.train.eigensolve_s",
       phase.train_stages.per(Stage::kTrainEigensolve, trainings), "s"},
      {"prof.train.em_s", phase.train_stages.per(Stage::kTrainEm, trainings),
       "s"},
      {"prof.score.project_us", 1e6 * sc.per(Stage::kScoreProject, n), "us"},
      {"prof.score.gmm_us", 1e6 * sc.per(Stage::kScoreGmm, n), "us"},
      {"prof.score.spe_us", 1e6 * sc.per(Stage::kScoreSpe, n), "us"},
      {"prof.score.observe_us", 1e6 * sc.per(Stage::kScoreObserve, n), "us"},
  };
  const double base = median(untraced.train_s);
  add_attribution(result, tracer.attribute(traced_begin, traced_end),
                  100.0 * (train_s - base) / base);
  return result;
}

}  // namespace perfbench
