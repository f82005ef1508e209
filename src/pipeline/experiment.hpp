#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "core/detector.hpp"
#include "core/heatmap.hpp"
#include "engine/engine.hpp"
#include "sim/system.hpp"

namespace mhm::pipeline {

/// Parameters of the paper's profiling procedure (§5.2): N runs of a fresh
/// system, each `run_duration` long, MHMs concatenated into one set.
struct ProfilingPlan {
  std::size_t runs = 10;                    ///< Paper: 10 sets.
  SimTime run_duration = 3 * kSecond;       ///< Paper: 3 s each.
  std::uint64_t seed_base = 100;            ///< Run i uses seed_base + i.
  /// Skip this many leading intervals of every run (cold-start transient
  /// while first jobs align). 0 reproduces the paper exactly.
  std::size_t warmup_intervals = 0;
};

/// Collect normal-behaviour MHMs per the profiling plan.
HeatMapTrace collect_normal_trace(const sim::SystemConfig& config,
                                  const ProfilingPlan& plan);

/// Outcome of running one (possibly attacked) monitored system.
struct ScenarioRun {
  std::string scenario;                 ///< "normal" or the attack name.
  HeatMapTrace maps;                    ///< Every completed interval.
  std::vector<Verdict> verdicts;        ///< One per interval (if a model).
  std::vector<double> traffic_volumes;  ///< Total accesses per interval.
  std::uint64_t trigger_interval = 0;   ///< First attacked interval index.
  SimTime interval = 0;
  /// The scoring session's decision journal and model-health monitor —
  /// this scenario's intervals only. Null when the run had no model (and
  /// `health` also when the monitor is detached, MHM_DRIFT_DISABLE=1).
  std::shared_ptr<const obs::DecisionJournal> journal;
  std::shared_ptr<obs::ModelHealthMonitor> health;

  /// Scores in interval order, derived from the verdicts (empty when the
  /// run had no model).
  std::vector<double> log10_densities() const;

  /// False-positive count among intervals strictly before the trigger,
  /// according to `threshold` (log10).
  std::size_t false_positives_before_trigger(double threshold) const;
  /// Anomalous (detected) count at/after the trigger.
  std::size_t detections_after_trigger(double threshold) const;
  /// Intervals from trigger to the first detection (nullopt = never).
  std::optional<std::uint64_t> detection_latency(double threshold) const;
  std::size_t intervals_before_trigger() const;
  std::size_t intervals_after_trigger() const;
};

/// Run a scenario: simulate `duration`, optionally arming `attack` at
/// `trigger_time`, scoring every interval through one engine::Session on
/// `model` (null for collection-only runs).
ScenarioRun run_scenario(const sim::SystemConfig& config,
                         attacks::AttackScenario* attack,
                         SimTime trigger_time, SimTime duration,
                         std::shared_ptr<const ModelSnapshot> model,
                         std::uint64_t seed);

/// One entry of a scenario fan-out batch.
struct ScenarioSpec {
  /// Name for attacks::make_scenario(); "" or "normal" runs unattacked.
  std::string attack;
  SimTime trigger_time = 0;
  SimTime duration = 0;
  std::uint64_t seed = 1;
};

/// Run a batch of scenarios concurrently — one independent seeded
/// sim::System and one Session each — returning results in spec order.
/// Equivalent to (and bit-identical with) calling run_scenario() in a
/// loop, journals and model health included, at any MHM_THREADS.
std::vector<ScenarioRun> run_scenarios(
    const sim::SystemConfig& config, const std::vector<ScenarioSpec>& specs,
    const std::shared_ptr<const ModelSnapshot>& model);

/// Everything needed to reproduce the paper's evaluation: a trained
/// model plus the thresholds and the traces that produced it.
struct TrainedPipeline {
  std::unique_ptr<AnomalyDetector> detector;
  HeatMapTrace training;
  HeatMapTrace validation;
  Threshold theta_05;  ///< θ_{0.5}
  Threshold theta_1;   ///< θ_1

  const AnomalyDetector& det() const { return *detector; }

  /// A serving engine sharing the trained snapshot (not a copy): vend
  /// sessions from it to score streams concurrently, or swap_model() to
  /// roll the deployment forward.
  engine::DetectionEngine make_engine() const {
    return engine::DetectionEngine(detector->snapshot());
  }
};

/// Train the full pipeline the way §5.2 does: profile `plan.runs` normal
/// runs for training, one extra run (different seeds) for threshold
/// calibration.
TrainedPipeline train_pipeline(const sim::SystemConfig& config,
                               const ProfilingPlan& plan,
                               const AnomalyDetector::Options& options);

/// Smaller defaults for unit/integration tests (coarser cells, shorter
/// runs) so the full pipeline stays fast while behaving identically.
sim::SystemConfig fast_test_config(std::uint64_t seed = 1);
ProfilingPlan fast_test_plan();
AnomalyDetector::Options fast_test_detector_options();

}  // namespace mhm::pipeline
