#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace mhm::obs {

/// Online model-health telemetry.
///
/// The detector's θ_p calibration assumes the trained GMM stays
/// representative of normal behaviour; in a long-running deployment the
/// normal MHM distribution drifts and the model goes stale silently. The
/// ModelHealthMonitor rides on engine::Session::analyze and keeps four
/// independent views of the live score stream, all deterministic and
/// seed-free:
///
///  1. streaming P² quantile sketches of the log10 density (and the PCA
///     residual / SPE) compared against the training-time validation scores;
///  2. per-component arg-max responsibility occupancy, so a mixture
///     component going dark or starting to dominate is visible;
///  3. CUSUM and Page–Hinkley change detectors on the standardized score;
///  4. calibration: the empirical alarm rate vs the configured quantile p,
///     with Wilson-interval bounds.
///
/// The verdict is a three-state `model_health.status` gauge —
/// OK / DRIFTING / MISCALIBRATED — exported through the registry, served as
/// JSON by the /model route, embedded in flight-recorder dumps, and rendered
/// live by `mhm_tool watch`. Like the rest of the obs layer the monitor
/// never feeds back into detection, so the determinism guarantees of the
/// pipeline are untouched; under MHM_OBS_DISABLE the monitor compiles down
/// to an empty shell while the pure primitives below stay available.

/// Streaming quantile estimate by the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers tracked with parabolic interpolation, O(1)
/// per observation, no stored samples, no randomness. Exact for the first
/// five observations.
class P2Quantile {
 public:
  /// `p` in (0,1): the quantile to track (clamped to [0.001, 0.999]).
  explicit P2Quantile(double p);

  void add(double x);
  /// Current estimate (exact while fewer than five samples; 0 when empty).
  double value() const;
  std::uint64_t count() const { return n_; }
  double probability() const { return p_; }

 private:
  double parabolic(int i, double sign) const;
  double linear(int i, int sign) const;

  double p_;
  std::uint64_t n_ = 0;
  double q_[5] = {0, 0, 0, 0, 0};     ///< Marker heights.
  double pos_[5] = {1, 2, 3, 4, 5};   ///< Actual marker positions.
  double want_[5] = {1, 2, 3, 4, 5};  ///< Desired marker positions.
  double step_[5] = {0, 0, 0, 0, 0};  ///< Desired-position increments.
};

/// Two-sided CUSUM on an already-standardized stream z = (x−μ₀)/σ₀:
/// s⁺ = max(0, s⁺ + z − k), s⁻ = max(0, s⁻ − z − k); fires (and latches)
/// when either sum exceeds h. k and h are in σ units — k is the slack
/// (half the shift deemed worth detecting), h the decision threshold.
class CusumDetector {
 public:
  CusumDetector(double k, double h) : k_(k), h_(h) {}

  /// Feed one standardized observation; returns true when this observation
  /// fires the detector (the `fired` latch then stays set until reset()).
  bool add(double z);

  double positive_sum() const { return s_pos_; }
  double negative_sum() const { return s_neg_; }
  double threshold() const { return h_; }
  bool fired() const { return fired_; }
  void reset();

 private:
  double k_;
  double h_;
  double s_pos_ = 0.0;
  double s_neg_ = 0.0;
  bool fired_ = false;
};

/// Two-sided Page–Hinkley test: cumulative deviation from the running mean
/// with slack δ, tracked against its running minimum; fires (and latches)
/// when the excursion exceeds λ. Feed standardized observations so δ and λ
/// are in σ units.
class PageHinkleyDetector {
 public:
  PageHinkleyDetector(double delta, double lambda)
      : delta_(delta), lambda_(lambda) {}

  bool add(double z);

  /// Largest current excursion over both directions.
  double statistic() const;
  double lambda() const { return lambda_; }
  bool fired() const { return fired_; }
  void reset();

 private:
  double delta_;
  double lambda_;
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m_up_ = 0.0;    ///< Cumulative (z − mean − δ): upward shifts.
  double m_dn_ = 0.0;    ///< Cumulative (mean − z − δ): downward shifts.
  double min_up_ = 0.0;
  double min_dn_ = 0.0;
  bool fired_ = false;
};

/// Wilson score interval for a binomial proportion at `z` standard normal
/// quantiles — the calibration check asks whether the configured alarm
/// quantile p is a plausible value for the observed alarm rate.
struct WilsonInterval {
  double low = 0.0;
  double high = 1.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z);

/// A double as a JSON number (%.17g). JSON has no literal for non-finite
/// values, so they render as the strings "nan", "inf" and "-inf".
std::string json_num(double v);

enum class ModelHealthStatus {
  kOk = 0,
  kDrifting = 1,       ///< A drift detector on the score stream has fired.
  kMiscalibrated = 2,  ///< Configured p outside the Wilson alarm-rate bound.
};
const char* to_string(ModelHealthStatus status);

struct ModelHealthOptions {
  double expected_p = 0.01;   ///< Configured alarm quantile (θ_p's p).
  double cusum_k = 0.5;       ///< CUSUM slack, σ units.
  double cusum_h = 10.0;      ///< CUSUM decision threshold, σ units.
  /// Page–Hinkley slack, σ units. On a unit-variance stream the excursion
  /// statistic has an ~exp(−2δλ) stationary tail, so δ·λ must be large:
  /// 0.5 × 20 keeps the false-fire chance near e⁻²⁰ while a sustained 3σ
  /// shift still accumulates ~2.5σ per interval and fires within ten.
  double ph_delta = 0.5;
  double ph_lambda = 20.0;    ///< Page–Hinkley threshold, σ units.
  double wilson_z = 3.0;      ///< Calibration interval width (≈3σ).
  std::uint64_t min_intervals = 64;  ///< Calibration verdicts need this many.
  /// Intervals at the start of each run (interval_index < warmup) excluded
  /// from the drift detectors. Cold-start heat maps score as extreme
  /// outliers; Page–Hinkley's running mean would latch on them even though
  /// steady-state behaviour is healthy. Quantiles, occupancy and
  /// calibration still see every interval.
  std::uint64_t warmup = 10;
  /// Winsorization bound for the standardized score fed to CUSUM /
  /// Page–Hinkley, σ units: one freak interval cannot poison the running
  /// mean, while a sustained shift still accumulates |z| ≤ z_clamp per
  /// interval and fires within a few intervals.
  double z_clamp = 8.0;
  /// Recent-score ring for the watch sparkline (0 keeps no history — the
  /// fleet preset, where 10k sessions cannot each afford a ring).
  std::size_t history = 240;
  /// Copy the raw heat-map row every Nth interval; 0 disables the copy
  /// entirely (no per-session O(L) row buffer — the fleet preset).
  std::size_t row_stride = 8;
  std::size_t max_events = 32;  ///< Status-transition records kept.
  bool attach = true;  ///< MHM_DRIFT_DISABLE=1 leaves detectors bare.

  /// Defaults overridden by the MHM_DRIFT_* environment knobs:
  /// MHM_DRIFT_CUSUM_K, MHM_DRIFT_CUSUM_H, MHM_DRIFT_PH_DELTA,
  /// MHM_DRIFT_PH_LAMBDA, MHM_DRIFT_WILSON_Z, MHM_DRIFT_MIN_INTERVALS,
  /// MHM_DRIFT_WARMUP, MHM_DRIFT_Z_CLAMP, MHM_DRIFT_DISABLE,
  /// MHM_DRIFT_HISTORY, MHM_DRIFT_ROW_STRIDE, MHM_DRIFT_MAX_EVENTS.
  static ModelHealthOptions from_env();
};

/// One status transition, kept in a bounded list and exported via /model.
struct ModelHealthEvent {
  std::uint64_t interval = 0;
  ModelHealthStatus from = ModelHealthStatus::kOk;
  ModelHealthStatus to = ModelHealthStatus::kOk;
  std::string detail;
};

/// Point-in-time copy of the monitor state (everything /model serves).
struct ModelHealthSnapshot {
  ModelHealthStatus status = ModelHealthStatus::kOk;
  std::uint64_t intervals = 0;
  std::uint64_t alarms = 0;
  double alarm_rate = 0.0;
  double expected_p = 0.0;
  WilsonInterval wilson;
  bool calibrated = true;
  double cusum_pos = 0.0;
  double cusum_neg = 0.0;
  double cusum_threshold = 0.0;
  bool cusum_fired = false;
  double ph_stat = 0.0;
  double ph_lambda = 0.0;
  bool ph_fired = false;
  double score_mean = 0.0;
  double score_stddev = 0.0;
  double score_q05 = 0.0;
  double score_q50 = 0.0;
  double score_q95 = 0.0;
  double train_mean = 0.0;
  double train_stddev = 0.0;
  double train_q05 = 0.0;
  double train_q50 = 0.0;
  double train_q95 = 0.0;
  double spe_last = 0.0;
  double spe_q50 = 0.0;
  double spe_q95 = 0.0;
  std::vector<double> component_weights;
  std::vector<std::uint64_t> component_occupancy;
  std::vector<ModelHealthEvent> events;
  std::vector<double> recent_scores;   ///< Oldest first.
  std::vector<double> last_row;        ///< Raw heat-map cells (may be stale).
  std::uint64_t last_row_interval = 0;
};

class ModelHealthMonitor {
 public:
  /// `training_scores_log10` — the validation log10 densities persisted by
  /// model_io (the same vector θ_p is calibrated from); its mean/σ/quantiles
  /// form the reference every live statistic is compared against.
  /// `component_weights` — the mixture weights λ_j, for the occupancy view.
  ModelHealthMonitor(const std::vector<double>& training_scores_log10,
                     std::vector<double> component_weights,
                     const ModelHealthOptions& options);
  ~ModelHealthMonitor();

  ModelHealthMonitor(const ModelHealthMonitor&) = delete;
  ModelHealthMonitor& operator=(const ModelHealthMonitor&) = delete;

  /// Per-interval hook (detector, under obs::enabled()): the score and SPE
  /// are the ones analyze() already computed — the monitor never re-scores.
  /// Returns the status *after* this observation, so callers feeding the
  /// score history and the incident recorder see transitions without a
  /// second lock acquisition. Thread-safe; state is order-dependent under
  /// parallel scoring but, like every obs metric, never feeds back into
  /// detection.
  ModelHealthStatus observe(double log10_density, double spe,
                            std::size_t pattern, bool alarm,
                            std::uint64_t interval_index,
                            std::span<const double> raw);

  ModelHealthStatus status() const;
  ModelHealthSnapshot snapshot() const;

  /// Clear the streaming state (sketches, drift sums, occupancy, events)
  /// while keeping the training baseline — tests and benches replay several
  /// scenarios against one trained detector.
  void reset();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< Null when obs is compiled out.
};

/// JSON object for a snapshot — the /model response body, one line.
std::string model_health_json(const ModelHealthSnapshot& snapshot);

}  // namespace mhm::obs
