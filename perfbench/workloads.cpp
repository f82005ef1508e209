#include "workloads.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "core/model_io.hpp"

namespace perfbench {

namespace {

/// Profiling seed base of the deployed model: the default of
/// `mhm_tool train` and of the benches.
constexpr std::uint64_t kDeployedSeedBase = 100;

}  // namespace

mhm::sim::SystemConfig paper_config() {
  return mhm::sim::SystemConfig::paper_default(1);
}

mhm::pipeline::ProfilingPlan paper_plan(std::uint64_t seed_base) {
  mhm::pipeline::ProfilingPlan plan;
  plan.runs = 10;
  plan.run_duration = 3 * mhm::kSecond;
  plan.seed_base = seed_base;
  return plan;
}

mhm::AnomalyDetector::Options paper_options() {
  mhm::AnomalyDetector::Options opts;
  opts.pca.components = 9;
  opts.gmm.components = 5;
  opts.gmm.restarts = 10;
  opts.primary_p = 0.01;
  return opts;
}

std::size_t host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void make_deployed_model(const std::string& path) {
  mhm::set_global_threads(host_threads());
  const mhm::pipeline::TrainedPipeline pipe = mhm::pipeline::train_pipeline(
      paper_config(), paper_plan(kDeployedSeedBase), paper_options());
  // Write beside the target and rename, so a reader never sees half a file.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  mhm::save_model_file(mhm::DetectorModel::from_detector(pipe.det()), tmp);
  std::filesystem::rename(tmp, path);
}

std::shared_ptr<const mhm::ModelSnapshot> load_deployed_model(
    const std::string& path) {
  if (!std::filesystem::is_regular_file(path)) {
    throw std::runtime_error("no deployed model " + path +
                             "; make it with --make-model");
  }
  return mhm::load_model_file(path).to_snapshot();
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::size_t batch_mismatches(const mhm::ModelSnapshot& model,
                             std::span<const std::vector<double>> raws,
                             std::span<const mhm::Verdict> expected) {
  mhm::ScoreBatch batch;
  mhm::BatchScoreScratch scratch;
  std::size_t mismatches = 0;
  constexpr std::size_t kBatch = 256;
  for (std::size_t b0 = 0; b0 < raws.size(); b0 += kBatch) {
    const std::size_t b1 = std::min(raws.size(), b0 + kBatch);
    batch.clear(model.pca.input_dim());
    for (std::size_t i = b0; i < b1; ++i) {
      batch.push(raws[i], expected[i].interval_index);
    }
    mhm::score_snapshot_batch(model, batch, scratch);
    for (std::size_t i = b0; i < b1; ++i) {
      const mhm::Verdict got = batch.verdict(i - b0);
      const mhm::Verdict& want = expected[i];
      const bool same = got.interval_index == want.interval_index &&
                        same_bits(got.log10_density, want.log10_density) &&
                        same_bits(got.spe, want.spe) &&
                        got.anomalous == want.anomalous &&
                        got.nearest_pattern == want.nearest_pattern &&
                        got.model_version == want.model_version;
      if (!same) ++mismatches;
    }
  }
  return mismatches;
}

void digest_verdict(Digest& digest, const mhm::Verdict& v) {
  digest.add_u64(v.interval_index);
  digest.add_double(v.log10_density);
  digest.add_double(v.spe);
  digest.add_u64(v.anomalous ? 1 : 0);
  digest.add_u64(v.nearest_pattern);
}

void StageTotals::take() {
  const auto stages = mhm::obs::prof::snapshot_stages();
  for (std::size_t i = 0; i < stages.size() && i < mhm::obs::prof::kStageCount;
       ++i) {
    wall_s[i] += static_cast<double>(stages[i].wall_ns) * 1e-9;
  }
  mhm::obs::prof::reset();
}

double StageTotals::per(mhm::obs::prof::Stage stage, double count) const {
  return count > 0.0 ? wall_s[static_cast<std::size_t>(stage)] / count : 0.0;
}

void add_attribution(Result& result, const Attribution& a,
                     double trace_overhead_pct) {
  const double wall = a.wall_s > 0.0 ? a.wall_s : 1.0;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (a.self_s[l] <= 0.0) continue;  // never entered
    result.layer.push_back(
        {std::string("self.") + layer_name(static_cast<Layer>(l)) + "_pct",
         100.0 * a.self_s[l] / wall, "%"});
  }
  result.layer.push_back(
      {"unattributed_pct", 100.0 * a.unattributed_s / wall, "%"});
  result.layer.push_back({"trace_overhead_pct", trace_overhead_pct, "%"});
}

}  // namespace perfbench
