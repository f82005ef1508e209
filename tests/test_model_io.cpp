#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace mhm {
namespace {

/// Small trained detector shared across tests.
struct Fixture {
  AnomalyDetector detector;

  static Fixture make() {
    Rng rng(1);
    auto sample = [&](double shift) {
      std::vector<double> x(12);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = shift + 10.0 * static_cast<double>(i % 4) + rng.normal(0.0, 1.0);
      }
      return x;
    };
    std::vector<std::vector<double>> train;
    std::vector<std::vector<double>> valid;
    for (int i = 0; i < 300; ++i) train.push_back(sample(i % 3 * 5.0));
    for (int i = 0; i < 150; ++i) valid.push_back(sample(i % 3 * 5.0));
    AnomalyDetector::Options opts;
    opts.pca.components = 4;
    opts.gmm.components = 3;
    opts.gmm.restarts = 2;
    return Fixture{AnomalyDetector::train(train, valid, opts)};
  }
};

TEST(ModelIo, RoundTripPreservesScores) {
  const Fixture fx = Fixture::make();
  const DetectorModel model = DetectorModel::from_detector(fx.detector);

  std::stringstream buffer;
  save_model(model, buffer);
  const DetectorModel loaded = load_model(buffer);
  const AnomalyDetector restored = loaded.to_detector();

  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> probe(12);
    for (double& v : probe) v = rng.uniform(0.0, 40.0);
    EXPECT_DOUBLE_EQ(fx.detector.score(probe), restored.score(probe))
        << "probe " << i;
  }
  EXPECT_DOUBLE_EQ(fx.detector.primary_threshold().log10_value,
                   restored.primary_threshold().log10_value);
  EXPECT_DOUBLE_EQ(fx.detector.primary_threshold().p,
                   restored.primary_threshold().p);
}

TEST(ModelIo, RoundTripPreservesEigenmemory) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_eigenmemory(fx.detector.eigenmemory(), buffer);
  const Eigenmemory em = load_eigenmemory(buffer);
  EXPECT_EQ(em.input_dim(), fx.detector.eigenmemory().input_dim());
  EXPECT_EQ(em.components(), fx.detector.eigenmemory().components());
  EXPECT_EQ(em.mean(), fx.detector.eigenmemory().mean());
  EXPECT_EQ(em.eigenvalues(), fx.detector.eigenmemory().eigenvalues());
  EXPECT_DOUBLE_EQ(em.variance_explained(),
                   fx.detector.eigenmemory().variance_explained());
}

TEST(ModelIo, RoundTripPreservesGmm) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_gmm(fx.detector.gmm(), buffer);
  const Gmm gmm = load_gmm(buffer);
  ASSERT_EQ(gmm.component_count(), fx.detector.gmm().component_count());
  const std::vector<double> probe(4, 1.0);
  EXPECT_DOUBLE_EQ(gmm.log_density(probe),
                   fx.detector.gmm().log_density(probe));
}

TEST(ModelIo, FileRoundTrip) {
  const Fixture fx = Fixture::make();
  const std::string path =
      (std::filesystem::temp_directory_path() / "mhm_model_test.bin").string();
  save_model_file(DetectorModel::from_detector(fx.detector), path);
  const AnomalyDetector restored = load_model_file(path).to_detector();
  const std::vector<double> probe(12, 3.0);
  EXPECT_DOUBLE_EQ(fx.detector.score(probe), restored.score(probe));
  std::filesystem::remove(path);
}

TEST(ModelIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOPE and then some bytes";
  EXPECT_THROW(load_model(buffer), SerializationError);
}

TEST(ModelIo, RejectsUnsupportedVersion) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_model(DetectorModel::from_detector(fx.detector), buffer);
  std::string bytes = buffer.str();
  bytes[4] = 0x7F;  // clobber the version field
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_model(corrupted), SerializationError);
}

TEST(ModelIo, ReadsVersionOneFiles) {
  // A version 1 file is today's bytes without the eigenmemory record's
  // trailing total variance, under version word 1.
  const Fixture fx = Fixture::make();
  const DetectorModel model = DetectorModel::from_detector(fx.detector);
  std::stringstream current;
  save_model(model, current);
  std::stringstream record;
  save_eigenmemory(model.eigenmemory, record);
  std::string bytes = current.str();
  const std::size_t total_at = 8 + record.str().size() - sizeof(double);
  bytes.erase(total_at, sizeof(double));
  bytes[4] = 1;
  std::stringstream v1(bytes);
  const AnomalyDetector restored = load_model(v1).to_detector();
  EXPECT_EQ(restored.eigenmemory().variance_explained(),
            fx.detector.eigenmemory().variance_explained());
  EXPECT_EQ(restored.primary_threshold().log10_value,
            fx.detector.primary_threshold().log10_value);
}

TEST(ModelIo, EigenmemoryRecordKeepsTheTotalVariance) {
  // A top-k fit's spectrum is its Ritz values alone; the trace is larger.
  linalg::Matrix basis(1, 3, 0.0);
  basis(0, 0) = 1.0;
  const Eigenmemory em =
      Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0, 1.0}, 6.0);
  std::stringstream buffer;
  save_eigenmemory(em, buffer);
  const std::string bytes = buffer.str();
  std::stringstream current(bytes);
  EXPECT_EQ(load_eigenmemory(current).variance_explained(), 2.0 / 6.0);
  // Version 1 had no such field: the total is the spectrum's sum.
  std::stringstream v1(bytes.substr(0, bytes.size() - sizeof(double)));
  EXPECT_EQ(load_eigenmemory(v1, 1).variance_explained(), 2.0 / 3.0);
}

TEST(ModelIo, RejectsTruncatedStream) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_model(DetectorModel::from_detector(fx.detector), buffer);
  const std::string bytes = buffer.str();
  for (std::size_t cut : {std::size_t{3}, std::size_t{9}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(load_model(truncated), SerializationError) << "cut=" << cut;
  }
}

TEST(ModelIo, RejectsCorruptGmmWeights) {
  // Corrupt the first component's weight bits inside a serialized GMM
  // payload: load_gmm revalidates through from_components and must reject.
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_gmm(fx.detector.gmm(), buffer);
  std::string bytes = buffer.str();
  // Layout: tag(4) + dim(8) + count(8) + weight(8)...; overwrite the weight
  // with the bits of 7.0 so weights no longer sum to 1.
  const double bogus = 7.0;
  std::memcpy(bytes.data() + 20, &bogus, sizeof bogus);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_gmm(corrupted), SerializationError);
}

TEST(ModelIo, MissingFileThrowsConfigError) {
  EXPECT_THROW(load_model_file("/nonexistent_zzz/model.bin"), ConfigError);
  const Fixture fx = Fixture::make();
  EXPECT_THROW(save_model_file(DetectorModel::from_detector(fx.detector),
                               "/nonexistent_zzz/model.bin"),
               ConfigError);
}

TEST(GmmFromComponents, ValidatesInput) {
  EXPECT_THROW(Gmm::from_components({}), ConfigError);

  GmmComponent c;
  c.mean = {0.0, 0.0};
  c.covariance = linalg::Matrix::identity(2);
  c.weight = 0.7;  // does not sum to 1
  EXPECT_THROW(Gmm::from_components({c}), ConfigError);

  c.weight = 1.0;
  EXPECT_NO_THROW(Gmm::from_components({c}));

  GmmComponent bad = c;
  bad.covariance = linalg::Matrix::identity(3);  // dimension mismatch
  bad.weight = 0.5;
  GmmComponent good = c;
  good.weight = 0.5;
  EXPECT_THROW(Gmm::from_components({good, bad}), ConfigError);
}

TEST(EigenmemoryFromParts, ValidatesInput) {
  linalg::Matrix basis(1, 3, 0.0);
  basis(0, 0) = 1.0;
  EXPECT_NO_THROW(
      Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {2.0, 1.0, 0.0}));

  // Non-unit basis row.
  linalg::Matrix bad_basis(1, 3, 0.0);
  bad_basis(0, 0) = 2.0;
  EXPECT_THROW(Eigenmemory::from_parts({0.0, 0.0, 0.0}, bad_basis, {2.0},
                                       {2.0, 1.0, 0.0}),
               ConfigError);

  // Mismatched widths.
  EXPECT_THROW(
      Eigenmemory::from_parts({0.0, 0.0}, basis, {2.0}, {2.0, 1.0, 0.0}),
      ConfigError);
  // Negative eigenvalue.
  EXPECT_THROW(
      Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {-1.0}, {2.0, 1.0, 0.0}),
      ConfigError);
  // Spectrum shorter than retained values.
  EXPECT_THROW(Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0}, {}),
               ConfigError);
  // Negative total variance.
  EXPECT_THROW(Eigenmemory::from_parts({0.0, 0.0, 0.0}, basis, {2.0},
                                       {2.0, 1.0, 0.0}, -1.0),
               ConfigError);
}

TEST(AnomalyDetectorAssemble, ValidatesDimensions) {
  const Fixture fx = Fixture::make();
  // GMM over the wrong dimensionality must be rejected.
  GmmComponent c;
  c.mean = {0.0, 0.0};  // 2-D, but the eigenmemory has 4 components
  c.covariance = linalg::Matrix::identity(2);
  c.weight = 1.0;
  EXPECT_THROW(
      AnomalyDetector::assemble(fx.detector.eigenmemory(),
                                Gmm::from_components({c}),
                                ThresholdCalibrator({-1.0, -2.0}), 0.01),
      ConfigError);
}

}  // namespace
}  // namespace mhm
