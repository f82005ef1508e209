#include "core/explainer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "linalg/vector_ops.hpp"

namespace mhm {

SpeDetector::SpeDetector(const Eigenmemory& basis,
                         const std::vector<std::vector<double>>& validation,
                         double p)
    : basis_(&basis) {
  if (validation.empty()) {
    throw ConfigError("SpeDetector: empty validation set");
  }
  if (p <= 0.0 || p >= 1.0) {
    throw ConfigError("SpeDetector: p must be in (0,1)");
  }
  std::vector<double> spes;
  spes.reserve(validation.size());
  for (const auto& v : validation) spes.push_back(spe(v));
  threshold_ = quantile(spes, 1.0 - p);
}

double SpeDetector::spe(const std::vector<double>& map) const {
  MHM_ASSERT(map.size() == basis_->input_dim(),
             "SpeDetector::spe: dimension mismatch");
  const auto approx = basis_->reconstruct(basis_->project(map));
  double energy = 0.0;
  for (std::size_t i = 0; i < map.size(); ++i) {
    const double r = map[i] - approx[i];
    energy += r * r;
  }
  return energy;
}

bool SpeDetector::anomalous(const std::vector<double>& map) const {
  return spe(map) > threshold_;
}

AnomalyExplainer::AnomalyExplainer(
    const std::vector<std::vector<double>>& training) {
  if (training.empty()) {
    throw ConfigError("AnomalyExplainer: empty training set");
  }
  const std::size_t l = training.front().size();
  mean_.assign(l, 0.0);
  stddev_.assign(l, 0.0);
  for (const auto& x : training) {
    if (x.size() != l) throw ConfigError("AnomalyExplainer: ragged input");
    for (std::size_t c = 0; c < l; ++c) mean_[c] += x[c];
  }
  const double n = static_cast<double>(training.size());
  for (double& m : mean_) m /= n;
  for (const auto& x : training) {
    for (std::size_t c = 0; c < l; ++c) {
      const double d = x[c] - mean_[c];
      stddev_[c] += d * d;
    }
  }
  for (double& s : stddev_) s = std::sqrt(s / std::max(1.0, n - 1.0));
}

AnomalyExplainer AnomalyExplainer::from_trace(const HeatMapTrace& training) {
  return AnomalyExplainer(as_rows(training));
}

std::vector<CellDeviation> AnomalyExplainer::explain(
    const std::vector<double>& map, std::size_t k) const {
  MHM_ASSERT(map.size() == mean_.size(),
             "AnomalyExplainer::explain: dimension mismatch");
  // Floor the per-cell std so cold-but-touched cells do not produce
  // infinite z-scores; the floor is a fraction of the global scale.
  double global_std = 0.0;
  for (double s : stddev_) global_std = std::max(global_std, s);
  const double floor = std::max(1.0, 0.01 * global_std);

  std::vector<CellDeviation> all(map.size());
  for (std::size_t c = 0; c < map.size(); ++c) {
    all[c].cell = c;
    all[c].observed = map[c];
    all[c].expected = mean_[c];
    all[c].z_score = (map[c] - mean_[c]) / std::max(stddev_[c], floor);
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const CellDeviation& a, const CellDeviation& b) {
                      return std::abs(a.z_score) > std::abs(b.z_score);
                    });
  all.resize(k);
  return all;
}

}  // namespace mhm
