#pragma once

// AnomalyDetector, a trained-model handle, and the two baselines the
// ablations compare against it. The handle scores nothing: every verdict
// comes from an engine::Session. It remains because the benchmark program
// (perfbench/) compiles against exactly this surface: train(), Options,
// snapshot(), the read-only model accessors, DetectorModel::from_detector
// and pipeline::TrainedPipeline::detector. New code calls train_snapshot()
// and keeps the ModelSnapshot.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/gmm.hpp"
#include "core/heatmap.hpp"
#include "core/pca.hpp"
#include "core/snapshot.hpp"

namespace mhm {

/// A trained model of the paper's pipeline (§4): eigenmemory projection,
/// GMM density and the calibrated thresholds, held as one immutable shared
/// ModelSnapshot. Score it through an engine::Session opened on snapshot().
class AnomalyDetector {
 public:
  using Options = TrainOptions;

  /// Train from normal-behaviour maps and calibrate thresholds on a second,
  /// disjoint set of normal maps: train_snapshot() behind a shared handle.
  static AnomalyDetector train(const HeatMapTrace& training,
                               const HeatMapTrace& validation,
                               const Options& options = {});

  const Eigenmemory& eigenmemory() const { return snap_->pca; }
  const Gmm& gmm() const { return snap_->gmm; }
  const ThresholdCalibrator& thresholds() const { return snap_->calibrator; }
  Threshold primary_threshold() const { return snap_->primary; }

  /// The immutable model — the handle a DetectionEngine (or a
  /// ModelRegistry save) takes, shared, not copied.
  std::shared_ptr<const ModelSnapshot> snapshot() const { return snap_; }

 private:
  explicit AnomalyDetector(std::shared_ptr<const ModelSnapshot> snapshot)
      : snap_(std::move(snapshot)) {}

  std::shared_ptr<const ModelSnapshot> snap_;
};

/// Baseline detector from Figure 9's discussion: watch only the total
/// memory-traffic volume per interval and flag values outside a calibrated
/// band. Cheap, but blind to compositional changes that keep volume steady —
/// which is exactly why the rootkit's post-load phase evades it.
class TrafficVolumeDetector {
 public:
  /// Calibrate on normal traffic volumes: the band is
  /// [q_{p} − margin·IQR, q_{1−p} + margin·IQR].
  TrafficVolumeDetector(const std::vector<double>& normal_volumes, double p,
                        double margin = 0.5);

  static TrafficVolumeDetector from_trace(const HeatMapTrace& normal, double p,
                                          double margin = 0.5);

  bool anomalous(double volume) const;
  bool anomalous(const HeatMap& map) const;

  double lower_bound() const { return lower_; }
  double upper_bound() const { return upper_; }

 private:
  double lower_ = 0.0;
  double upper_ = 0.0;
};

/// Baseline the paper dismisses as "computationally prohibitive" (§4.1):
/// keep every training MHM and score a test map by its distance to the
/// nearest neighbour in the raw L-dimensional space. Used in the ablation
/// benches to quantify the cost/accuracy trade-off against eigenmemory+GMM.
class NearestNeighborDetector {
 public:
  /// Stores the training set; calibrates the distance threshold as the
  /// p-quantile of validation nearest-neighbour distances.
  NearestNeighborDetector(std::vector<std::vector<double>> training,
                          const std::vector<std::vector<double>>& validation,
                          double p);

  /// Distance of `x` to the nearest stored map (O(N·L) per query).
  double nearest_distance(const std::vector<double>& x) const;

  bool anomalous(const std::vector<double>& x) const;

  double threshold() const { return threshold_; }
  std::size_t stored_maps() const { return training_.size(); }
  /// Bytes of storage the raw training set occupies — the cost the paper
  /// calls prohibitive for on-chip secure-core memory.
  std::size_t storage_bytes() const;

 private:
  std::vector<std::vector<double>> training_;
  double threshold_ = 0.0;
};

}  // namespace mhm
