#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace mhm {
namespace {

/// log10 density of one probe under `model`.
double score(const ModelSnapshot& model, const std::vector<double>& probe) {
  return log10_scores(model.pca, model.gmm, {probe}).front();
}

/// Small trained model shared across tests.
struct Fixture {
  ModelSnapshot model;

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
    TrainOptions opts;
    opts.pca.components = 4;
    opts.gmm.components = 3;
    opts.gmm.restarts = 2;
    return Fixture{train_snapshot(train, valid, opts)};
  }
};

TEST(ModelIo, RoundTripPreservesScores) {
  const Fixture fx = Fixture::make();
  const DetectorModel model = DetectorModel::from_snapshot(fx.model);

  std::stringstream buffer;
  save_model(model, buffer);
  const DetectorModel loaded = load_model(buffer);
  const auto restored = loaded.to_snapshot();

  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> probe(12);
    for (double& v : probe) v = rng.uniform(0.0, 40.0);
    EXPECT_DOUBLE_EQ(score(fx.model, probe), score(*restored, probe))
        << "probe " << i;
  }
  EXPECT_DOUBLE_EQ(fx.model.primary.log10_value,
                   restored->primary.log10_value);
  EXPECT_DOUBLE_EQ(fx.model.primary.p, restored->primary.p);
}

TEST(ModelIo, RoundTripPreservesEigenmemory) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_eigenmemory(fx.model.pca, buffer);
  const Eigenmemory em = load_eigenmemory(buffer);
  EXPECT_EQ(em.input_dim(), fx.model.pca.input_dim());
  EXPECT_EQ(em.components(), fx.model.pca.components());
  EXPECT_EQ(em.mean(), fx.model.pca.mean());
  EXPECT_EQ(em.eigenvalues(), fx.model.pca.eigenvalues());
  EXPECT_DOUBLE_EQ(em.variance_explained(),
                   fx.model.pca.variance_explained());
}

TEST(ModelIo, RoundTripPreservesGmm) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_gmm(fx.model.gmm, buffer);
  const Gmm gmm = load_gmm(buffer);
  ASSERT_EQ(gmm.component_count(), fx.model.gmm.component_count());
  const std::vector<double> probe(4, 1.0);
  EXPECT_DOUBLE_EQ(gmm.log_density(probe),
                   fx.model.gmm.log_density(probe));
}

TEST(ModelIo, FileRoundTrip) {
  const Fixture fx = Fixture::make();
  const std::string path =
      (std::filesystem::temp_directory_path() / "mhm_model_test.bin").string();
  save_model_file(DetectorModel::from_snapshot(fx.model), path);
  const auto restored = load_model_file(path).to_snapshot();
  const std::vector<double> probe(12, 3.0);
  EXPECT_DOUBLE_EQ(score(fx.model, probe), score(*restored, probe));
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
  save_model(DetectorModel::from_snapshot(fx.model), buffer);
  std::string bytes = buffer.str();
  bytes[4] = 0x7F;  // clobber the version field
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_model(corrupted), SerializationError);
}

TEST(ModelIo, ReadsVersionOneFiles) {
  // A version 1 file is today's bytes without the eigenmemory record's
  // trailing total variance, under version word 1.
  const Fixture fx = Fixture::make();
  const DetectorModel model = DetectorModel::from_snapshot(fx.model);
  std::stringstream current;
  save_model(model, current);
  std::stringstream record;
  save_eigenmemory(model.eigenmemory, record);
  std::string bytes = current.str();
  const std::size_t total_at = 8 + record.str().size() - sizeof(double);
  bytes.erase(total_at, sizeof(double));
  bytes[4] = 1;
  std::stringstream v1(bytes);
  const auto restored = load_model(v1).to_snapshot();
  EXPECT_EQ(restored->pca.variance_explained(),
            fx.model.pca.variance_explained());
  EXPECT_EQ(restored->primary.log10_value, fx.model.primary.log10_value);
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
  save_model(DetectorModel::from_snapshot(fx.model), buffer);
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
  save_gmm(fx.model.gmm, buffer);
  std::string bytes = buffer.str();
  // Layout: tag(4) + dim(8) + count(8) + weight(8)...; overwrite the weight
  // with the bits of 7.0 so weights no longer sum to 1.
  const double bogus = 7.0;
  std::memcpy(bytes.data() + 20, &bogus, sizeof bogus);
  std::stringstream corrupted(bytes);
  EXPECT_THROW(load_gmm(corrupted), SerializationError);
}

/// Little-endian header words for hand-built section payloads.
void put_u32(std::string& bytes, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& bytes, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
}

/// Loading `bytes` with `load` must fail on the header's claim, as a
/// truncated stream, not after allocating for it.
template <typename Load>
void expect_truncated(const std::string& bytes, Load load) {
  std::stringstream in(bytes);
  try {
    load(in);
    ADD_FAILURE() << "inflated header loaded";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated stream"),
              std::string::npos)
        << e.what();
  }
}

constexpr std::uint64_t kInflated = std::uint64_t{1} << 24;

TEST(ModelIo, InflatedEigenmemoryCountsFailOnTheClaim) {
  std::string bytes;
  put_u32(bytes, 0x454D454D);  // "MEME"
  put_u64(bytes, kInflated);   // dim
  put_u64(bytes, 1);           // components
  put_u64(bytes, kInflated);   // mean length, no doubles follow
  expect_truncated(bytes, [](std::istream& in) { load_eigenmemory(in); });
}

TEST(ModelIo, InflatedGmmCountsFailOnTheClaim) {
  std::string components;
  put_u32(components, 0x004D4D47);  // "GMM\0"
  put_u64(components, 1);           // dim
  put_u64(components, kInflated);   // component count
  expect_truncated(components, [](std::istream& in) { load_gmm(in); });

  std::string dim;
  put_u32(dim, 0x004D4D47);
  put_u64(dim, kInflated);  // dim: one covariance is 2^48 doubles
  put_u64(dim, 1);
  expect_truncated(dim, [](std::istream& in) { load_gmm(in); });
}

TEST(ModelIo, InflatedValidationScoreCountFailsOnTheClaim) {
  const Fixture fx = Fixture::make();
  std::stringstream buffer;
  save_model(DetectorModel::from_snapshot(fx.model), buffer);
  std::string bytes = buffer.str();
  // The detector section ends with the length-prefixed validation scores.
  const std::size_t scores = fx.model.calibrator.validation_scores().size();
  const std::size_t count_at = bytes.size() - 8 * scores - 8;
  std::string count;
  put_u64(count, kInflated);
  bytes.replace(count_at, 8, count);
  expect_truncated(bytes, [](std::istream& in) { load_model(in); });
}

TEST(ModelIo, MissingFileThrowsConfigError) {
  EXPECT_THROW(load_model_file("/nonexistent_zzz/model.bin"), ConfigError);
  const Fixture fx = Fixture::make();
  EXPECT_THROW(save_model_file(DetectorModel::from_snapshot(fx.model),
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
      ModelSnapshot::assemble(fx.model.pca, Gmm::from_components({c}),
                              ThresholdCalibrator({-1.0, -2.0}), 0.01),
      ConfigError);
}

}  // namespace
}  // namespace mhm
