#include "core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/vector_ops.hpp"

namespace mhm {

AnomalyDetector AnomalyDetector::train(const HeatMapTrace& training,
                                       const HeatMapTrace& validation,
                                       const Options& options) {
  return AnomalyDetector(std::make_shared<const ModelSnapshot>(
      train_snapshot(as_rows(training), as_rows(validation), options)));
}

TrafficVolumeDetector::TrafficVolumeDetector(
    const std::vector<double>& normal_volumes, double p, double margin) {
  if (normal_volumes.empty()) {
    throw ConfigError("TrafficVolumeDetector: empty calibration set");
  }
  if (p <= 0.0 || p >= 0.5) {
    throw ConfigError("TrafficVolumeDetector: p must be in (0, 0.5)");
  }
  const double q_lo = quantile(normal_volumes, p);
  const double q_hi = quantile(normal_volumes, 1.0 - p);
  const double iqr = quantile(normal_volumes, 0.75) -
                     quantile(normal_volumes, 0.25);
  lower_ = q_lo - margin * iqr;
  upper_ = q_hi + margin * iqr;
}

TrafficVolumeDetector TrafficVolumeDetector::from_trace(
    const HeatMapTrace& normal, double p, double margin) {
  std::vector<double> volumes;
  volumes.reserve(normal.size());
  for (const auto& m : normal) {
    volumes.push_back(static_cast<double>(m.total_accesses()));
  }
  return TrafficVolumeDetector(volumes, p, margin);
}

bool TrafficVolumeDetector::anomalous(double volume) const {
  return volume < lower_ || volume > upper_;
}

bool TrafficVolumeDetector::anomalous(const HeatMap& map) const {
  return anomalous(static_cast<double>(map.total_accesses()));
}

NearestNeighborDetector::NearestNeighborDetector(
    std::vector<std::vector<double>> training,
    const std::vector<std::vector<double>>& validation, double p)
    : training_(std::move(training)) {
  if (training_.empty()) {
    throw ConfigError("NearestNeighborDetector: empty training set");
  }
  if (validation.empty()) {
    throw ConfigError("NearestNeighborDetector: empty validation set");
  }
  std::vector<double> distances;
  distances.reserve(validation.size());
  for (const auto& v : validation) distances.push_back(nearest_distance(v));
  // Large distance = anomalous, so the threshold sits at the (1-p) quantile.
  threshold_ = quantile(distances, 1.0 - p);
}

double NearestNeighborDetector::nearest_distance(
    const std::vector<double>& x) const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : training_) {
    best = std::min(best, linalg::squared_distance(x, t));
  }
  return std::sqrt(best);
}

bool NearestNeighborDetector::anomalous(const std::vector<double>& x) const {
  return nearest_distance(x) > threshold_;
}

std::size_t NearestNeighborDetector::storage_bytes() const {
  return training_.size() *
         (training_.empty() ? 0 : training_.front().size()) * sizeof(double);
}

}  // namespace mhm
