#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace mhm::testing {

/// Assert two matrices are elementwise close.
inline void expect_matrix_near(const linalg::Matrix& a,
                               const linalg::Matrix& b, double tol,
                               const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a(i, j), b(i, j), tol)
          << what << " at (" << i << "," << j << ")";
    }
  }
}

/// Assert two vectors are elementwise close.
inline void expect_vector_near(const std::vector<double>& a,
                               const std::vector<double>& b, double tol,
                               const char* what = "") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << what << " at [" << i << "]";
  }
}

/// Vectors equal up to a global sign flip (eigenvector comparisons).
inline void expect_vector_near_up_to_sign(const std::vector<double>& a,
                                          const std::vector<double>& b,
                                          double tol) {
  ASSERT_EQ(a.size(), b.size());
  double dot = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
  const double sign = dot >= 0.0 ? 1.0 : -1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], sign * b[i], tol) << "at [" << i << "]";
  }
}

/// A random symmetric matrix with entries in [-1, 1].
linalg::Matrix random_symmetric(std::size_t n, std::uint64_t seed);

/// A random symmetric positive-definite matrix (A A^T + n·I scaled).
linalg::Matrix random_spd(std::size_t n, std::uint64_t seed);

/// Synthetic data living (mostly) in a low-dimensional subspace: a mixture
/// of `rank` fixed activity patterns plus noise — the structure MHMs have.
std::vector<std::vector<double>> subspace_data(std::size_t n, std::size_t dim,
                                               std::size_t rank, double noise,
                                               std::uint64_t seed);

/// sin of the largest principal angle between the spans of the first k
/// rows of two orthonormal bases: for each `exact` direction u, project
/// onto the `fast` subspace and measure what is lost.
double max_principal_angle_sin(const linalg::Matrix& exact,
                               const linalg::Matrix& fast, std::size_t k);

}  // namespace mhm::testing
