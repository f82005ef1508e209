#pragma once

// The three benchmark workloads and what they share: the system-of-record
// training routine, verdict checks against the batch kernel, and the
// profiler-stage readout.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "obs/prof.hpp"
#include "pipeline/experiment.hpp"
#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

/// Each workload records spans into `tracer` when it is enabled.
Result run_train(const RunOptions& options, Tracer& tracer);
Result run_monitor(const RunOptions& options, Tracer& tracer);
Result run_fleet(const RunOptions& options, Tracer& tracer);

/// Set-ups per run, by workload; setup_s reports their median. A monitor
/// set-up takes milliseconds, a train or fleet one a fraction of a second.
inline constexpr int kTrainSetups = 9;
inline constexpr int kMonitorSetups = 201;
inline constexpr int kFleetSetups = 9;

/// Seed of set-up `k` of `setups`. What a set-up costs depends on the
/// inputs it makes (how busy the simulated systems are), so each set-up
/// makes those of its own seed and setup_s is the median over several
/// inputs. The last set-up, whose state the run keeps, uses the run's seed.
inline std::uint64_t setup_seed(std::uint64_t seed, int k, int setups) {
  return k + 1 == setups
             ? seed
             : (seed * 0x9e3779b97f4a7c15ULL) ^ (0x5E7A0000ULL + k);
}

/// The routine `mhm_tool train` and pipeline::train_pipeline run, at paper
/// scale: SystemConfig::paper_default, 10 × 3 s profiling runs plus the
/// calibration run, L' = 9, J = 5, 10 EM restarts, θ_1.
mhm::sim::SystemConfig paper_config();
mhm::pipeline::ProfilingPlan paper_plan(std::uint64_t seed_base);
mhm::AnomalyDetector::Options paper_options();

/// Worker count of the whole host (MHM_THREADS = nproc for training).
std::size_t host_threads();

/// The model monitor and fleet deploy: trained by the paper routine from
/// the default profiling seeds (those of `mhm_tool train` and the benches)
/// and saved as a model file, the way `mhm_tool train` hands a model to
/// `mhm_tool monitor`. The file is made once per build, by a process of
/// its own (`perfbench --make-model`), so no workload run pays for it.
void make_deployed_model(const std::string& path);
/// Load the deployed model file (the monitor's cold start); throws when
/// it has not been made.
std::shared_ptr<const mhm::ModelSnapshot> load_deployed_model(
    const std::string& path);

/// Rescore `raws` through score_snapshot_batch and compare every verdict
/// field except timing with `expected`, bit for bit. Returns mismatches.
std::size_t batch_mismatches(const mhm::ModelSnapshot& model,
                             std::span<const std::vector<double>> raws,
                             std::span<const mhm::Verdict> expected);

/// Fold the verdict fields covered by the bit-identity contract.
void digest_verdict(Digest& digest, const mhm::Verdict& v);

/// Profiler stage wall times summed over several readouts.
struct StageTotals {
  double wall_s[mhm::obs::prof::kStageCount] = {};

  /// Add the stages recorded since the last prof::reset(), then reset.
  void take();
  /// Wall time of `stage` divided by `per` (intervals or trainings).
  double per(mhm::obs::prof::Stage stage, double count) const;
};

/// Append the tracer's per-layer self-time shares, the unattributed share
/// and the tracing overhead to `result.layer`.
void add_attribution(Result& result, const Attribution& attribution,
                     double trace_overhead_pct);

}  // namespace perfbench
