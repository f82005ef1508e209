#include "fleet/aggregator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"

namespace mhm::fleet {

namespace {

/// Severity EWMA weight: ~4 intervals of memory, so a stream that recovers
/// decays out of the top-K within a few rounds while a persistently
/// anomalous one keeps its rank.
constexpr double kSeverityAlpha = 0.25;

/// Sentinel for "this device has never marked an incident".
constexpr std::uint64_t kNeverMarked = ~0ULL;

/// Folded incident marks kept per shard — bounds a pathological fleet where
/// every device alarms forever to a fixed scrape-side footprint.
constexpr std::size_t kMaxFoldedMarks = 256;

}  // namespace

/// Per-shard aggregation cell. The atomics take the per-interval traffic;
/// the mutex only guards the folded (scrape-visible) state.
struct FleetAggregator::Shard {
  std::size_t begin = 0;
  std::size_t end = 0;

  alignas(64) std::atomic<std::uint64_t> intervals{0};
  std::atomic<std::uint64_t> alarms{0};
  /// Profiler work (cycles or thread-CPU ns) spent scoring this shard.
  std::atomic<std::uint64_t> work{0};

  /// Owner-only staging: marks produced by record_chunk since the last
  /// fold (the owning worker's thread, no lock needed).
  std::vector<IncidentMark> pending_marks;

  mutable std::mutex mu;
  std::array<std::uint64_t, 3> status_counts{};  ///< OK/DRIFT/MISCAL devices.
  std::vector<TopStream> top;                    ///< Local top-K, folded.
  std::vector<IncidentMark> marks;  ///< Folded, newest-trimmed ring.
  double intervals_per_sec = 0.0;
  double cycles_per_interval = 0.0;

  obs::Gauge* g_intervals = nullptr;
  obs::Gauge* g_rate = nullptr;
  obs::Gauge* g_work = nullptr;
};

FleetAggregator::FleetAggregator(const FleetSpec& spec,
                                 std::vector<std::string> archetype_names,
                                 std::vector<std::uint8_t> archetype_of,
                                 std::vector<std::size_t> shard_of_begin)
    : spec_(spec),
      archetype_names_(std::move(archetype_names)),
      archetype_of_(std::move(archetype_of)),
      shard_of_begin_(std::move(shard_of_begin)) {
  MHM_ASSERT(shard_of_begin_.size() >= 2 &&
                 shard_of_begin_.front() == 0 &&
                 shard_of_begin_.back() == archetype_of_.size(),
             "FleetAggregator: shard ranges must cover [0, devices)");
  severity_.assign(archetype_of_.size(), 0.0);
  device_alarms_.assign(archetype_of_.size(), 0);
  last_mark_.assign(archetype_of_.size(), kNeverMarked);

  auto& reg = obs::Registry::instance();
  reg.gauge("fleet.devices", "simulated device streams in the fleet")
      .set(static_cast<double>(device_count()));
  reg.gauge("fleet.shards", "worker shards the fleet is scored across")
      .set(static_cast<double>(shard_count()));

  shards_.reserve(shard_count());
  for (std::size_t s = 0; s < shard_count(); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->begin = shard_of_begin_[s];
    shard->end = shard_of_begin_[s + 1];
    // Until the first fold every device reads OK — the rollup never
    // undercounts the fleet.
    shard->status_counts[0] = shard->end - shard->begin;
    const std::string prefix = "fleet.shard." + std::to_string(s);
    shard->g_intervals = &reg.gauge(
        prefix + ".intervals_scored",
        "intervals scored by fleet shard " + std::to_string(s));
    shard->g_rate = &reg.gauge(
        prefix + ".intervals_per_sec",
        "scoring rate of fleet shard " + std::to_string(s));
    shard->g_work = &reg.gauge(
        prefix + ".cycles_per_interval",
        "profiler work (cycles or thread-CPU ns, per the counter source) "
        "per interval scored by fleet shard " + std::to_string(s));
    shards_.push_back(std::move(shard));
  }
}

FleetAggregator::~FleetAggregator() = default;

void FleetAggregator::record_chunk(std::size_t shard,
                                   std::size_t first_device,
                                   std::span<const Verdict> verdicts,
                                   double threshold) {
  Shard& sh = *shards_[shard];
  MHM_ASSERT(first_device >= sh.begin &&
                 first_device + verdicts.size() <= sh.end,
             "record_chunk: devices outside the shard's range");
  std::uint64_t alarm_count = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const Verdict& v = verdicts[i];
    const std::size_t d = first_device + i;
    if (v.anomalous) {
      ++alarm_count;
      ++device_alarms_[d];
      // Rate-limited incident mark: one per device per incident_gap. The
      // mark is the unit co-temporal grouping chains at snapshot time.
      if (last_mark_[d] == kNeverMarked ||
          v.interval_index - last_mark_[d] >= spec_.incident_gap) {
        last_mark_[d] = v.interval_index;
        sh.pending_marks.push_back(IncidentMark{
            .interval = v.interval_index,
            .device = static_cast<std::uint64_t>(d),
            .archetype = archetype_of_[d]});
      }
    }
    const double deficit = std::max(0.0, threshold - v.log10_density);
    severity_[d] += kSeverityAlpha * (deficit - severity_[d]);
  }
  sh.intervals.fetch_add(verdicts.size(), std::memory_order_relaxed);
  if (alarm_count > 0) {
    sh.alarms.fetch_add(alarm_count, std::memory_order_relaxed);
  }
}

void FleetAggregator::record_work(std::size_t shard, std::uint64_t work) {
  shards_[shard]->work.fetch_add(work, std::memory_order_relaxed);
}

void FleetAggregator::fold_shard(std::size_t shard,
                                 std::span<const std::uint8_t> statuses,
                                 double elapsed_seconds) {
  Shard& sh = *shards_[shard];
  const std::size_t n = sh.end - sh.begin;

  // Rank the shard's devices by (severity desc, device asc). A clean fleet
  // still publishes a (zero-severity) top list — ranking covers every
  // stream, exactly like the scoring engine it models.
  const std::size_t keep = std::min(spec_.top_k, n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), sh.begin);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (severity_[a] != severity_[b]) {
                        return severity_[a] > severity_[b];
                      }
                      return a < b;
                    });

  std::array<std::uint64_t, 3> counts{};
  if (statuses.size() == n) {
    for (std::uint8_t st : statuses) ++counts[std::min<std::size_t>(st, 2)];
  } else {
    counts[0] = n;  // No health monitors: everything reads OK.
  }

  std::vector<TopStream> top;
  top.reserve(keep);
  for (std::size_t r = 0; r < keep; ++r) {
    const std::size_t d = order[r];
    TopStream entry;
    entry.device = d;
    entry.archetype = archetype_names_[archetype_of_[d]];
    entry.severity = severity_[d];
    entry.alarms = device_alarms_[d];
    entry.status =
        statuses.size() == n ? static_cast<int>(statuses[d - sh.begin]) : 0;
    top.push_back(std::move(entry));
  }

  const std::uint64_t shard_intervals =
      sh.intervals.load(std::memory_order_relaxed);
  const std::uint64_t shard_work = sh.work.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.status_counts = counts;
    sh.top = std::move(top);
    sh.cycles_per_interval =
        shard_intervals == 0 ? 0.0
                             : static_cast<double>(shard_work) /
                                   static_cast<double>(shard_intervals);
    // Publish the owner-side marks to the scrape-visible folded list,
    // newest-trimmed so a perpetually alarming fleet stays bounded.
    sh.marks.insert(sh.marks.end(), sh.pending_marks.begin(),
                    sh.pending_marks.end());
    if (sh.marks.size() > kMaxFoldedMarks) {
      sh.marks.erase(sh.marks.begin(),
                     sh.marks.begin() + static_cast<std::ptrdiff_t>(
                                            sh.marks.size() -
                                            kMaxFoldedMarks));
    }
    if (elapsed_seconds > 0.0) {
      sh.intervals_per_sec =
          static_cast<double>(shard_intervals) / elapsed_seconds;
    }
    sh.g_intervals->set(static_cast<double>(shard_intervals));
    sh.g_rate->set(sh.intervals_per_sec);
    sh.g_work->set(sh.cycles_per_interval);
  }
  sh.pending_marks.clear();

  // Fleet-level series: O(shards) refresh from the folded cells. Concurrent
  // folds race benignly on the gauges (last write wins; each writer
  // publishes a complete, near-current total).
  std::uint64_t intervals = 0;
  std::uint64_t alarms = 0;
  std::array<std::uint64_t, 3> rollup{};
  double rate = 0.0;
  double top_severity = 0.0;
  std::size_t folded_marks = 0;
  for (const auto& other : shards_) {
    intervals += other->intervals.load(std::memory_order_relaxed);
    alarms += other->alarms.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(other->mu);
    for (std::size_t i = 0; i < 3; ++i) rollup[i] += other->status_counts[i];
    rate += other->intervals_per_sec;
    folded_marks += other->marks.size();
    if (!other->top.empty()) {
      top_severity = std::max(top_severity, other->top.front().severity);
    }
  }
  auto& reg = obs::Registry::instance();
  reg.gauge("fleet.intervals_scored", "intervals scored fleet-wide")
      .set(static_cast<double>(intervals));
  reg.gauge("fleet.alarms", "anomalous intervals fleet-wide")
      .set(static_cast<double>(alarms));
  reg.gauge("fleet.devices_ok", "devices whose model health reads OK")
      .set(static_cast<double>(rollup[0]));
  reg.gauge("fleet.devices_drifting", "devices whose model health is DRIFTING")
      .set(static_cast<double>(rollup[1]));
  reg.gauge("fleet.devices_miscalibrated",
            "devices whose model health is MISCALIBRATED")
      .set(static_cast<double>(rollup[2]));
  reg.gauge("fleet.top_severity",
            "severity of the most anomalous stream in the fleet")
      .set(top_severity);
  reg.gauge("fleet.intervals_per_sec", "fleet-wide scoring rate").set(rate);
  reg.gauge("fleet.incident_marks",
            "rate-limited per-device incident marks held in the folded "
            "rings")
      .set(static_cast<double>(folded_marks));
}

FleetSnapshot FleetAggregator::snapshot() const {
  FleetSnapshot snap;
  snap.devices = device_count();
  snap.shards = shard_count();
  snap.model_version = model_version_.load(std::memory_order_relaxed);
  snap.prof_source = obs::prof::counter_source();
  snap.shard_summaries.reserve(shards_.size());

  std::vector<TopStream> merged;
  std::vector<IncidentMark> all_marks;
  for (const auto& sh : shards_) {
    ShardSummary summary;
    summary.devices = sh->end - sh->begin;
    summary.intervals = sh->intervals.load(std::memory_order_relaxed);
    summary.alarms = sh->alarms.load(std::memory_order_relaxed);
    snap.intervals += summary.intervals;
    snap.alarms += summary.alarms;
    {
      std::lock_guard<std::mutex> lk(sh->mu);
      summary.intervals_per_sec = sh->intervals_per_sec;
      summary.cycles_per_interval = sh->cycles_per_interval;
      snap.devices_ok += sh->status_counts[0];
      snap.devices_drifting += sh->status_counts[1];
      snap.devices_miscalibrated += sh->status_counts[2];
      merged.insert(merged.end(), sh->top.begin(), sh->top.end());
      all_marks.insert(all_marks.end(), sh->marks.begin(), sh->marks.end());
    }
    snap.intervals_per_sec += summary.intervals_per_sec;
    snap.shard_summaries.push_back(summary);
  }

  // Co-temporal grouping: chain marks whose interval is within
  // incident_window of the previous mark in the group. The sort makes the
  // result a function of the folded marks alone — bit-identical at any
  // MHM_THREADS.
  std::sort(all_marks.begin(), all_marks.end(),
            [](const IncidentMark& a, const IncidentMark& b) {
              if (a.interval != b.interval) return a.interval < b.interval;
              return a.device < b.device;
            });
  std::vector<std::uint64_t> group_devices;
  std::vector<std::uint8_t> group_archetypes;
  const auto flush_group = [&](IncidentGroup& g) {
    std::sort(group_devices.begin(), group_devices.end());
    g.devices = static_cast<std::size_t>(
        std::unique(group_devices.begin(), group_devices.end()) -
        group_devices.begin());
    std::sort(group_archetypes.begin(), group_archetypes.end());
    group_archetypes.erase(
        std::unique(group_archetypes.begin(), group_archetypes.end()),
        group_archetypes.end());
    for (std::uint8_t a : group_archetypes) {
      g.archetypes.push_back(archetype_names_[a]);
    }
    snap.incident_groups.push_back(std::move(g));
    group_devices.clear();
    group_archetypes.clear();
  };
  IncidentGroup current;
  for (const IncidentMark& m : all_marks) {
    if (current.marks != 0 &&
        m.interval - current.last_interval > spec_.incident_window) {
      flush_group(current);
      current = IncidentGroup{};
    }
    if (current.marks == 0) current.first_interval = m.interval;
    current.last_interval = m.interval;
    ++current.marks;
    group_devices.push_back(m.device);
    group_archetypes.push_back(m.archetype);
  }
  if (current.marks != 0) flush_group(current);

  // Deterministic merge of the ≤ shards × K folded candidates.
  std::sort(merged.begin(), merged.end(),
            [](const TopStream& a, const TopStream& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              return a.device < b.device;
            });
  if (merged.size() > spec_.top_k) merged.resize(spec_.top_k);
  snap.top = std::move(merged);
  return snap;
}

std::string fleet_json(const FleetSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"devices\":" << snapshot.devices
     << ",\"shards\":" << snapshot.shards
     << ",\"intervals\":" << snapshot.intervals
     << ",\"alarms\":" << snapshot.alarms
     << ",\"model_version\":" << snapshot.model_version
     << ",\"rollup\":{\"ok\":"
     << snapshot.devices_ok << ",\"drifting\":" << snapshot.devices_drifting
     << ",\"miscalibrated\":" << snapshot.devices_miscalibrated
     << "},\"intervals_per_sec\":" << obs::json_num(snapshot.intervals_per_sec)
     << ",\"prof_source\":\"" << snapshot.prof_source
     << "\",\"shards_detail\":[";
  for (std::size_t s = 0; s < snapshot.shard_summaries.size(); ++s) {
    const ShardSummary& sh = snapshot.shard_summaries[s];
    if (s > 0) os << ",";
    os << "{\"shard\":" << s << ",\"devices\":" << sh.devices
       << ",\"intervals\":" << sh.intervals << ",\"alarms\":" << sh.alarms
       << ",\"intervals_per_sec\":" << obs::json_num(sh.intervals_per_sec)
       << ",\"cycles_per_interval\":" << obs::json_num(sh.cycles_per_interval)
       << "}";
  }
  os << "],\"top\":[";
  for (std::size_t i = 0; i < snapshot.top.size(); ++i) {
    const TopStream& t = snapshot.top[i];
    if (i > 0) os << ",";
    os << "{\"device\":" << t.device << ",\"archetype\":\"" << t.archetype
       << "\",\"severity\":" << obs::json_num(t.severity)
       << ",\"alarms\":" << t.alarms << ",\"status\":\""
       << obs::to_string(static_cast<obs::ModelHealthStatus>(t.status))
       << "\"}";
  }
  os << "],\"incident_groups\":[";
  for (std::size_t i = 0; i < snapshot.incident_groups.size(); ++i) {
    const IncidentGroup& g = snapshot.incident_groups[i];
    if (i > 0) os << ",";
    os << "{\"first_interval\":" << g.first_interval
       << ",\"last_interval\":" << g.last_interval
       << ",\"devices\":" << g.devices << ",\"marks\":" << g.marks
       << ",\"archetypes\":[";
    for (std::size_t a = 0; a < g.archetypes.size(); ++a) {
      if (a > 0) os << ",";
      os << "\"" << g.archetypes[a] << "\"";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

}  // namespace mhm::fleet
