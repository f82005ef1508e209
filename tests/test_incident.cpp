// Incident black box (src/obs/incident): trigger logic, crash-safe bundle
// commit + parse round trip, rate limiting, the JSON surfaces, and the
// parser's behaviour on hostile or damaged bundles.

#include "obs/incident.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace mhm::obs {
namespace {

class IncidentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("mhm_incident_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->line()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    IncidentStore::Options opts;
    opts.dir = dir_.string();
    store_ = std::make_shared<IncidentStore>(opts);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static IncidentOptions small_options() {
    IncidentOptions o;
    o.pre = 2;
    o.post = 2;
    o.burst_count = 2;
    o.burst_window = 4;
    o.min_gap = 1000;
    o.top_cells = 4;
    return o;
  }

  /// One interval with a deterministic 4-cell row.
  static void feed(IncidentRecorder& rec, std::uint64_t interval, bool alarm,
                   std::uint8_t status = 0) {
    const double row[4] = {static_cast<double>(interval), 1.0, 2.0, 3.0};
    const double mean[4] = {0.0, 1.0, 2.0, 3.0};
    const double stddev[4] = {1.0, 1.0, 1.0, 1.0};
    rec.note(interval, -20.0 - static_cast<double>(interval) / 3.0,
             0.25 * static_cast<double>(interval), alarm, 2, 9, -25.5, status,
             row, mean, stddev);
  }

  /// Commit one alarm_burst bundle through the recorder; returns its path.
  std::string commit_burst() {
    IncidentRecorder rec(small_options(), store_);
    for (std::uint64_t i = 0; i < 5; ++i) feed(rec, i, false);
    feed(rec, 5, true);
    feed(rec, 6, true);
    feed(rec, 7, false);
    feed(rec, 8, false);
    const auto summaries = store_->summaries();
    return summaries.empty() ? "" : summaries.back().path;
  }

  void write_text(const std::string& path, const std::string& text) const {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  }

  static std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::filesystem::path dir_;
  std::shared_ptr<IncidentStore> store_;
};

TEST_F(IncidentTest, AlarmBurstCommitsParseableBundle) {
  IncidentRecorder rec(small_options(), store_);
  for (std::uint64_t i = 0; i < 5; ++i) feed(rec, i, false);
  feed(rec, 5, true);
  feed(rec, 6, true);  // Second alarm in the window: trigger.
  EXPECT_TRUE(rec.pending());
  feed(rec, 7, false);
  feed(rec, 8, false);  // Post window filled: commit.
  EXPECT_FALSE(rec.pending());
  ASSERT_EQ(rec.committed(), 1u);
  ASSERT_EQ(store_->total_committed(), 1u);

  const auto summaries = store_->summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].reason, "alarm_burst");
  EXPECT_EQ(summaries[0].trigger_interval, 6u);
  EXPECT_EQ(summaries[0].model_version, 9u);

  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(summaries[0].path, &bundle, &error))
      << error;
  EXPECT_FALSE(bundle.truncated);
  const Incident& inc = bundle.incident;
  EXPECT_EQ(inc.reason, "alarm_burst");
  EXPECT_EQ(inc.trigger_interval, 6u);
  EXPECT_EQ(inc.model_version, 9u);
  EXPECT_EQ(inc.cells, 4u);
  // pre=2 before the trigger + trigger + post=2.
  ASSERT_EQ(inc.window.size(), 5u);
  EXPECT_EQ(inc.window.front().interval, 4u);
  EXPECT_EQ(inc.window.back().interval, 8u);
  EXPECT_FALSE(bundle.build_info.empty());
  // Hexfloat round trip: the parsed doubles are bit-identical to what the
  // recorder saw, and the captured rows came back whole.
  for (const auto& e : inc.window) {
    EXPECT_EQ(e.score, -20.0 - static_cast<double>(e.interval) / 3.0);
    EXPECT_EQ(e.spe, 0.25 * static_cast<double>(e.interval));
    ASSERT_EQ(e.row.size(), 4u);
    EXPECT_EQ(e.row[0], static_cast<double>(e.interval));
  }
  EXPECT_EQ(inc.threshold, -25.5);
  EXPECT_FALSE(inc.top_cells.empty());
}

TEST_F(IncidentTest, HealthTransitionTriggers) {
  IncidentRecorder rec(small_options(), store_);
  feed(rec, 0, false, 0);
  feed(rec, 1, false, 1);  // OK -> DRIFTING.
  feed(rec, 2, false, 1);
  feed(rec, 3, false, 1);
  ASSERT_EQ(rec.committed(), 1u);
  const auto summaries = store_->summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].reason, "health_transition");
  EXPECT_EQ(summaries[0].trigger_interval, 1u);
}

TEST_F(IncidentTest, MinGapRateLimitsRepeatTriggers) {
  IncidentRecorder rec(small_options(), store_);
  for (std::uint64_t i = 0; i < 20; ++i) feed(rec, i, true);
  // One sustained alarm wave: exactly one bundle, the rest suppressed.
  EXPECT_EQ(rec.committed(), 1u);
  EXPECT_GT(rec.suppressed(), 0u);
  EXPECT_EQ(store_->total_committed(), 1u);
}

TEST_F(IncidentTest, PartialWriteParsesAsTruncated) {
  Incident incident;
  incident.reason = "alarm_burst";
  incident.trigger_interval = 10;
  incident.model_version = 2;
  incident.cells = 4;
  incident.pre = 1;
  incident.post = 1;
  for (std::uint64_t i = 9; i <= 11; ++i) {
    IncidentEntry e;
    e.interval = i;
    e.score = -30.0;
    e.alarm = i == 10;
    e.row.assign(4, 1.0);
    incident.window.push_back(e);
  }
  const std::string path = store_->debug_commit_partial(std::move(incident));
  ASSERT_FALSE(path.empty());
  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.truncated);
  EXPECT_EQ(bundle.incident.trigger_interval, 10u);
}

TEST_F(IncidentTest, JsonSurfacesAndUnknownId) {
  IncidentRecorder rec(small_options(), store_);
  for (std::uint64_t i = 0; i < 5; ++i) feed(rec, i, false);
  feed(rec, 5, true);
  feed(rec, 6, true);
  feed(rec, 7, false);
  feed(rec, 8, false);
  ASSERT_EQ(store_->total_committed(), 1u);

  const std::string list = store_->json_list();
  EXPECT_NE(list.find("\"total\":1"), std::string::npos);
  EXPECT_NE(list.find("\"reason\":\"alarm_burst\""), std::string::npos);

  const auto one = store_->json_one(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_NE(one->find("\"verdicts\":["), std::string::npos);
  EXPECT_NE(one->find("\"score_hex\":\""), std::string::npos);
  EXPECT_FALSE(store_->json_one(999).has_value());

  const std::string dump = store_->dump_section();
  EXPECT_NE(dump.find("committed 1"), std::string::npos);
  EXPECT_NE(dump.find("reason=alarm_burst"), std::string::npos);
}

TEST_F(IncidentTest, NullStoreRunsTriggerLogicWithoutWriting) {
  // The trigger machinery still runs (the window completes and counts), but
  // with no store attached nothing reaches disk.
  IncidentRecorder rec(small_options(), nullptr);
  for (std::uint64_t i = 0; i < 10; ++i) feed(rec, i, true);
  EXPECT_EQ(rec.committed(), 1u);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(IncidentTest, InflatedCellsFailOnTheRowNotTheAllocation) {
  // The header claims 2^40 cells (8 TB of row); the one row has 3. The
  // parser must size the row from its tokens and reject the mismatch.
  const std::string path = (dir_ / "inflated.mhmi").string();
  write_text(path,
             "MHMI 1\nid 1\nreason alarm_burst\ndetail -\n"
             "trigger_interval 5\nmodel_version 1\nthreshold 0x0p+0\n"
             "cells 1099511627776\npre 0\npost 0\nentries 1\n"
             "== verdicts ==\n5 0x0p+0 0x0p+0 1 0 1\n== cells top=0 ==\n"
             "== rows n=1 cells=1099511627776 ==\n5 0x1p+0 0x1p+1 0x1p+2\n"
             "== end ==\n");
  IncidentBundle bundle;
  std::string error;
  bool ok = true;
  EXPECT_NO_THROW(ok = parse_incident_file(path, &bundle, &error));
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("has 3 cells, header says 1099511627776"),
            std::string::npos)
      << error;
}

TEST_F(IncidentTest, RowCutMidLineParsesAsTruncated) {
  const std::string full = read_text(commit_burst());
  // Cut inside the last row: the line has no newline, so it is a crash
  // mid-write (truncated), not a malformed row (error).
  const std::size_t rows = full.find("== rows");
  ASSERT_NE(rows, std::string::npos);
  const std::size_t cut = full.find(' ', full.find('\n', rows) + 1) + 3;
  const std::string path = (dir_ / "cut.mhmi").string();
  write_text(path, full.substr(0, cut));
  IncidentBundle bundle;
  std::string error;
  ASSERT_TRUE(parse_incident_file(path, &bundle, &error)) << error;
  EXPECT_TRUE(bundle.truncated);
}

TEST_F(IncidentTest, ArmedRefreshAsksForFreshRows) {
  if (!store_->arm(nullptr, /*handle_signals=*/false)) {
    GTEST_SKIP() << "obs layer compiled out";
  }
  IncidentOptions opts = small_options();
  opts.min_gap = 4;  // Commits keep racing the refresh thread.
  IncidentRecorder rec(opts, store_);
  // Arming asks for one row; only the refresh thread asks again. Score
  // until a state bundle carries a row newer than the first one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t row_interval = 0;
  for (std::uint64_t i = 0;
       row_interval == 0 && std::chrono::steady_clock::now() < deadline;
       ++i) {
    feed(rec, i, i % 2 == 0);
    const double row[4] = {static_cast<double>(i), 1.0, 2.0, 3.0};
    note_state_row(row, i);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (i % 50 != 49) continue;
    IncidentBundle bundle;
    std::string error;
    ASSERT_TRUE(
        parse_incident_file(store_->write_state("flush"), &bundle, &error))
        << error;
    ASSERT_FALSE(bundle.truncated);
    row_interval = bundle.incident.trigger_interval;
  }
  store_->disarm();
  EXPECT_GT(row_interval, 0u);
  EXPECT_GT(store_->total_committed(), 1u);
}

/// True when some line of `text` is exactly the end marker.
bool has_end_line(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line == "== end ==") return true;
  }
  return false;
}

TEST_F(IncidentTest, MutatedBundlesNeverThrowAndReportTruncation) {
  // Seeds: one committed alarm_burst bundle and, where the obs layer is
  // compiled in, one process-state (flush) bundle.
  std::vector<std::string> seeds = {read_text(commit_burst())};
  ASSERT_FALSE(seeds[0].empty());
  if (store_->arm(nullptr, /*handle_signals=*/false)) {
    const double row[4] = {1.0, 2.0, 3.0, 4.0};
    note_state_row(row, 8);
    seeds.push_back(read_text(store_->write_state("flush")));
    store_->disarm();
    ASSERT_NE(seeds[1].find("reason flush"), std::string::npos);
  }

  std::vector<std::string> mutants;
  const std::vector<std::string> numeric = {
      "id",    "trigger_interval", "model_version", "threshold",
      "cells", "pre",              "post",          "entries"};
  for (const std::string& seed : seeds) {
    // Truncation at every line boundary.
    for (std::size_t i = 0; i < seed.size(); ++i) {
      if (seed[i] == '\n' && i + 1 < seed.size()) {
        mutants.push_back(seed.substr(0, i + 1));
      }
    }
    // Each numeric header field inflated to 2^40.
    for (const std::string& key : numeric) {
      const std::size_t at = seed.find("\n" + key + " ");
      ASSERT_NE(at, std::string::npos) << key;
      const std::size_t value = at + key.size() + 2;
      const std::size_t eol = seed.find('\n', value);
      std::string m = seed;
      m.replace(value, eol - value, "1099511627776");
      mutants.push_back(std::move(m));
    }
  }
  // Seeded byte flips.
  std::mt19937_64 rng(0x5EEDu);
  for (int k = 0; k < 300; ++k) {
    std::string m = seeds[static_cast<std::size_t>(k) % seeds.size()];
    const std::size_t at = rng() % m.size();
    m[at] = static_cast<char>(m[at] ^ static_cast<char>(1 + rng() % 255));
    mutants.push_back(std::move(m));
  }

  const std::string path = (dir_ / "mutant.mhmi").string();
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    write_text(path, mutants[i]);
    IncidentBundle bundle;
    std::string error;
    EXPECT_NO_THROW(parse_incident_file(path, &bundle, &error))
        << "mutant " << i;
    if (!has_end_line(mutants[i])) {
      EXPECT_TRUE(bundle.truncated) << "mutant " << i;
    }
  }
}

}  // namespace
}  // namespace mhm::obs
