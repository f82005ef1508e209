// The one training routine, train_snapshot(), on the route paper-scale
// training takes: N > L and N > gram_limit, so fit_topk runs its randomized
// range finder instead of the exact Gram eigensolve. The model must be
// byte-identical across thread counts and between train_snapshot and the
// AnomalyDetector::train wrapper, and must span the exact solver's subspace.

#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/detector.hpp"
#include "core/model_io.hpp"
#include "test_util.hpp"

namespace mhm {
namespace {

using mhm::testing::max_principal_angle_sin;
using mhm::testing::subspace_data;

constexpr std::size_t kTrainRows = 1200;  ///< > gram_limit (1,024) and > L.
constexpr std::size_t kCalibRows = 200;
constexpr std::size_t kCells = 368;
constexpr std::size_t kRank = 9;

using Rows = std::vector<std::vector<double>>;

/// Training and calibration rows drawn from the same activity patterns.
struct Data {
  Rows train;
  Rows calib;

  Data(std::size_t train_n, std::size_t cells) {
    train = subspace_data(train_n + kCalibRows, cells, kRank, 0.05, 20150607);
    calib.assign(train.end() - static_cast<std::ptrdiff_t>(kCalibRows),
                 train.end());
    train.resize(train_n);
  }
};

const Data& paper_shaped() {
  static const Data data(kTrainRows, kCells);
  return data;
}

TrainOptions options() {
  TrainOptions opts;
  opts.pca.components = kRank;
  opts.gmm.components = 3;
  opts.gmm.restarts = 2;
  return opts;
}

std::string model_bytes(const ModelSnapshot& snapshot) {
  std::ostringstream os;
  save_model(DetectorModel::from_snapshot(snapshot), os);
  return os.str();
}

TEST(TrainSnapshot, TakesTheRandomizedRoute) {
  const Data& d = paper_shaped();
  const ModelSnapshot snap = train_snapshot(d.train, d.calib, options());
  // The randomized route keeps the k + oversample Ritz values; the exact
  // routes keep a full spectrum of min(N, L) values.
  EXPECT_EQ(snap.pca.spectrum().size(),
            kRank + Eigenmemory::TopkOptions{}.oversample);
  EXPECT_EQ(snap.pca.components(), kRank);
}

TEST(TrainSnapshot, SaveAndLoadKeepVarianceExplained) {
  // The randomized route's spectrum is its Ritz values alone, so the
  // model file must carry the exact trace for variance_explained to
  // survive the round trip.
  const Data& d = paper_shaped();
  const ModelSnapshot snap = train_snapshot(d.train, d.calib, options());
  std::stringstream buffer(model_bytes(snap));
  const DetectorModel loaded = load_model(buffer);
  EXPECT_EQ(loaded.eigenmemory.total_variance(), snap.pca.total_variance());
  EXPECT_EQ(loaded.eigenmemory.variance_explained(),
            snap.pca.variance_explained());
}

TEST(TrainSnapshot, ByteIdenticalAcrossThreadCounts) {
  const Data& d = paper_shaped();
  set_global_threads(1);
  const std::string serial =
      model_bytes(train_snapshot(d.train, d.calib, options()));
  set_global_threads(4);
  const std::string parallel =
      model_bytes(train_snapshot(d.train, d.calib, options()));
  set_global_threads(0);
  EXPECT_EQ(serial, parallel);
}

TEST(TrainSnapshot, DetectorWrapperTrainsTheSameModel) {
  const Data& d = paper_shaped();
  AnomalyDetector::Options detector_opts;
  static_cast<TrainOptions&>(detector_opts) = options();
  const AnomalyDetector detector =
      AnomalyDetector::train(d.train, d.calib, detector_opts);
  const ModelSnapshot snap = train_snapshot(d.train, d.calib, options());
  EXPECT_EQ(model_bytes(*detector.snapshot()), model_bytes(snap));
  ASSERT_NE(detector.snapshot()->baseline, nullptr);
  EXPECT_EQ(detector.snapshot()->baseline->mean, snap.baseline->mean);
  EXPECT_EQ(detector.snapshot()->baseline->stddev, snap.baseline->stddev);
}

TEST(TrainSnapshot, SpansTheExactSolversSubspace) {
  const Data& d = paper_shaped();
  const ModelSnapshot snap = train_snapshot(d.train, d.calib, options());
  Eigenmemory::Options exact_opts;
  exact_opts.components = kRank;
  exact_opts.allow_gram_trick = false;  // the oracle: full L×L eigensolve
  const Eigenmemory exact = Eigenmemory::fit(d.train, exact_opts);
  // The tolerance test_pca's exact-vs-top-k cross-check uses.
  EXPECT_LT(max_principal_angle_sin(exact.basis(), snap.pca.basis(), kRank),
            1e-6);
}

TEST(TrainSnapshot, CalibratesOnCalibrationRowsAndBaselinesTrainingRows) {
  const Data& d = paper_shaped();
  const TrainOptions opts = options();
  const ModelSnapshot snap = train_snapshot(d.train, d.calib, opts);
  EXPECT_EQ(snap.calibrator.validation_scores(),
            log10_scores(snap.pca, snap.gmm, d.calib));
  EXPECT_EQ(snap.primary.log10_value,
            snap.calibrator.at(opts.primary_p).log10_value);
  EXPECT_EQ(snap.version, 0u);
  ASSERT_NE(snap.baseline, nullptr);
  ASSERT_EQ(snap.baseline->mean.size(), kCells);
  double mean0 = 0.0;
  for (const auto& row : d.train) mean0 += row[0];
  EXPECT_DOUBLE_EQ(snap.baseline->mean[0],
                   mean0 * (1.0 / static_cast<double>(kTrainRows)));
}

TEST(TrainSnapshot, VarianceTargetModeKeepsTheExactSolver) {
  const Data d(300, 40);
  TrainOptions opts = options();
  opts.pca.components = 0;
  opts.pca.variance_target = 0.99;
  const ModelSnapshot snap = train_snapshot(d.train, d.calib, opts);
  const Eigenmemory exact = Eigenmemory::fit(d.train, opts.pca);
  EXPECT_EQ(snap.pca.spectrum(), exact.spectrum());  // full spectrum
  ASSERT_EQ(snap.pca.components(), exact.components());
  for (std::size_t k = 0; k < exact.components(); ++k) {
    const auto a = snap.pca.basis().row(k);
    const auto b = exact.basis().row(k);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "row " << k;
  }
}

TEST(TrainSnapshot, RejectsEmptySets) {
  const Data& d = paper_shaped();
  EXPECT_THROW(train_snapshot(Rows{}, d.calib, options()), ConfigError);
  EXPECT_THROW(train_snapshot(d.train, Rows{}, options()), ConfigError);
}

}  // namespace
}  // namespace mhm
