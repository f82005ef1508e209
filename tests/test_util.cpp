#include "test_util.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"

namespace mhm::testing {

linalg::Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

linalg::Matrix random_spd(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  linalg::Matrix spd = multiply(a, a.transposed());
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += 0.5 * static_cast<double>(n);
  }
  return spd;
}

std::vector<std::vector<double>> subspace_data(std::size_t n, std::size_t dim,
                                               std::size_t rank, double noise,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> patterns(rank, std::vector<double>(dim));
  for (auto& p : patterns) {
    for (double& v : p) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<std::vector<double>> data(n, std::vector<double>(dim, 0.0));
  for (auto& x : data) {
    for (const auto& p : patterns) {
      const double w = rng.uniform(0.0, 10.0);
      for (std::size_t i = 0; i < dim; ++i) x[i] += w * p[i];
    }
    for (double& v : x) v += rng.normal(0.0, noise);
  }
  return data;
}

double max_principal_angle_sin(const linalg::Matrix& exact,
                               const linalg::Matrix& fast, std::size_t k) {
  double worst = 0.0;
  for (std::size_t a = 0; a < k; ++a) {
    const auto u = exact.row(a);
    double captured = 0.0;
    for (std::size_t b = 0; b < k; ++b) {
      const double c = linalg::dot(u, fast.row(b));
      captured += c * c;
    }
    const double s2 = std::max(0.0, 1.0 - captured);
    worst = std::max(worst, std::sqrt(s2));
  }
  return worst;
}

}  // namespace mhm::testing
