// Workload `monitor`: one device, closed loop, single-threaded (the secure
// core's shape). A live paper_default system is drained through
// SimIntervalSource into one engine::Session with default options and the
// incident black box attached; shellcode is armed at the stream's midpoint.
// The simulator and Memometer do most of the work, the serial scoring path
// and the alarm-path observer carry the verdict latency, and the batch
// kernel and fleet fold are not used.

#include <filesystem>

#include "attacks/attacks.hpp"
#include "common/parallel.hpp"
#include "engine/engine.hpp"
#include "engine/sim_source.hpp"
#include "obs/incident.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace prof = mhm::obs::prof;

/// One stream is 10 minutes of device time. The length is fixed, not
/// scaled to the run, so that System::trace_ retention (about 6 KB per
/// interval) shows in peak_rss_mb at the same size on every commit.
constexpr std::size_t kStreamIntervals = 60000;
/// Every this many intervals one map is rescored through the batch kernel.
constexpr std::size_t kCheckStride = 16;
constexpr double kDeadlineUs = 10000.0;
/// Windows of the bounded figures (util.hpp, lowest_window_*): about
/// 50 ms and 100 ms of fetch → verdict loop, some 300 windows in 30 s. The
/// loop moves to the next CPU at the start of each rate window.
constexpr std::size_t kLatencyWindow = 1000;
constexpr std::size_t kRateWindow = 2000;

struct Stats {
  std::uint64_t intervals = 0;
  double loop_s = 0.0;  ///< Wall time inside the fetch → verdict loops.
  std::vector<double> verdict_us;
  std::vector<double> step_us;  ///< Fetch → verdict, per interval.
  std::vector<double> next_us;
  std::vector<double> score_us;
  std::vector<double> observe_us;
  std::vector<double> observe_alarm_us;
  std::vector<double> detect_delay;
  std::uint64_t pre_trigger = 0;
  std::uint64_t pre_trigger_alarms = 0;
  std::uint64_t late = 0;
  double accesses = 0.0;
  double trace_bytes = 0.0;
  std::uint64_t journal_records = 0;
  std::uint64_t incidents = 0;
  StageTotals stages;  ///< Stream loops only, not the batch checks.
};

/// One monitored device: a fresh seeded system with shellcode armed at
/// the midpoint, its interval source and one session.
struct Stream {
  std::uint64_t seed = 0;
  std::uint64_t trigger = 0;
  std::unique_ptr<mhm::attacks::AttackScenario> attack;  ///< Outlives system.
  std::unique_ptr<mhm::sim::System> system;
  std::unique_ptr<mhm::engine::SimIntervalSource> source;
  std::optional<mhm::engine::Session> session;
};

std::unique_ptr<Stream> open_stream(
    const mhm::engine::DetectionEngine& engine,
    const std::shared_ptr<mhm::obs::IncidentStore>& store,
    std::uint64_t seed) {
  auto st = std::make_unique<Stream>();
  mhm::sim::SystemConfig cfg = paper_config();
  cfg.seed = seed;
  const mhm::SimTime interval = cfg.monitor.interval;
  st->seed = seed;
  st->trigger = kStreamIntervals / 2;
  st->system = std::make_unique<mhm::sim::System>(cfg);
  st->attack = mhm::attacks::make_scenario("shellcode");
  st->attack->arm(*st->system,
                  static_cast<mhm::SimTime>(st->trigger) * interval);
  st->source = std::make_unique<mhm::engine::SimIntervalSource>(
      *st->system, static_cast<mhm::SimTime>(kStreamIntervals) * interval);
  st->session.emplace(engine.new_session());
  st->session->attach_incidents(mhm::obs::IncidentOptions{}, store);
  return st;
}

/// Drain one stream through its session, then rescore a sample of its maps
/// through the batch kernel. Returns false when it threw.
bool drain_stream(Stream& stream, const mhm::engine::DetectionEngine& engine,
                  Tracer& tracer, Stats& st, Result& result) {
  // Every kCheckStride-th map and its verdict, kept by the benchmark for
  // the batch-kernel check (the system's own trace is not relied on).
  std::vector<mhm::Verdict> checked;
  std::vector<mhm::HeatMap> checked_maps;
  Digest digest;
  try {
    mhm::engine::Session& session = *stream.session;
    const std::uint64_t trigger = stream.trigger;
    checked.reserve(kStreamIntervals / kCheckStride + 1);
    checked_maps.reserve(kStreamIntervals / kCheckStride + 1);
    bool detected = false;
    const bool traced = tracer.enabled();
    CpuRotation cpus;
    const auto loop0 = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
      if (i % kRateWindow == 0) cpus.next();
      std::optional<mhm::engine::SourceItem> item;
      const auto t0 = Clock::now();
      {
        Tracer::Scope s(tracer, "engine.SimIntervalSource::next",
                        Layer::kSim, i);
        item = stream.source->next();
      }
      const auto t1 = Clock::now();
      if (!item) break;
      mhm::Verdict v;
      {
        Tracer::Scope s(tracer, "engine.Session::analyze", Layer::kEngine,
                        item->interval_index);
        v = session.analyze(item->map);
      }
      const auto t2 = Clock::now();
      ++result.attempted;
      const double us = seconds_between(t1, t2) * 1e6;
      st.verdict_us.push_back(us);
      st.step_us.push_back(seconds_between(t0, t2) * 1e6);
      if (us > kDeadlineUs) ++st.late;
      digest_verdict(digest, v);
      if (v.interval_index < trigger) {
        ++st.pre_trigger;
        st.pre_trigger_alarms += v.anomalous ? 1 : 0;
      } else if (v.anomalous && !detected) {
        detected = true;
        st.detect_delay.push_back(
            static_cast<double>(v.interval_index - trigger));
      }
      if (i % kCheckStride == 0) {
        checked.push_back(v);
        checked_maps.push_back(item->map);
      }
      if (traced) {
        const double score =
            static_cast<double>(v.analysis_time.count()) * 1e-3;
        st.next_us.push_back(seconds_between(t0, t1) * 1e6);
        st.score_us.push_back(score);
        st.observe_us.push_back(us - score);
        if (v.anomalous) st.observe_alarm_us.push_back(us - score);
        Tracer::Scope s(tracer, "hw.HeatMap::total_accesses", Layer::kHw,
                        item->interval_index);
        st.accesses += static_cast<double>(item->map.total_accesses());
      }
      ++st.intervals;
    }
    st.loop_s += seconds_between(loop0, Clock::now());
    st.stages.take();
    st.journal_records += session.journal().total_appended();

    // What the system retains of the stream (every map it produced).
    st.trace_bytes = std::max(
        st.trace_bytes,
        static_cast<double>(stream.system->trace().size() *
                            stream.system->config().monitor.cell_count() * 4));
    // Rescore the sampled maps through the batch kernel.
    std::vector<std::vector<double>> raws;
    raws.reserve(checked_maps.size());
    for (const mhm::HeatMap& map : checked_maps) {
      raws.push_back(map.as_vector());
    }
    checked_maps = {};
    Tracer::Scope s(tracer, "core.score_snapshot_batch", Layer::kCore,
                    stream.seed);
    const std::size_t bad =
        batch_mismatches(*engine.current_model(), raws, checked);
    result.attempted += checked.size();
    for (std::size_t k = 0; k < bad; ++k) {
      result.fail("session verdict differs from the batch kernel");
    }
    prof::reset();
  } catch (const std::exception& e) {
    result.fail(std::string("stream threw: ") + e.what());
    return false;
  }
  result.digests.push_back(
      {"verdicts.stream" + std::to_string(result.digests.size()),
       digest.hex()});
  return true;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return (seed << 20) + 0x51ED0000ULL + stream;
}

/// Drain whole streams until the next one would overrun `seconds` (at
/// least one), starting with `first` when the set-up opened it.
Stats monitor_phase(const mhm::engine::DetectionEngine& engine,
                    const std::shared_ptr<mhm::obs::IncidentStore>& store,
                    std::unique_ptr<Stream> first, std::uint64_t seed,
                    std::uint64_t& stream, double seconds, Tracer& tracer,
                    Result& result) {
  Stats st;
  prof::reset();
  const std::uint64_t incidents0 = store->total_committed();
  const auto start = Clock::now();
  double last = 0.0;
  do {
    const auto t0 = Clock::now();
    std::unique_ptr<Stream> s = std::move(first);
    if (s == nullptr) s = open_stream(engine, store, stream_seed(seed, stream));
    ++stream;
    const bool ok = drain_stream(*s, engine, tracer, st, result);
    s.reset();
    if (!ok) break;
    last = seconds_between(t0, Clock::now());
  } while (seconds_between(start, Clock::now()) + last <= seconds);
  st.incidents = store->total_committed() - incidents0;
  return st;
}

}  // namespace

Result run_monitor(const RunOptions& options, Tracer& tracer) {
  Result result;
  const std::filesystem::path incident_dir =
      std::filesystem::path(options.out_dir) / "incidents";
  std::filesystem::remove_all(incident_dir);
  std::filesystem::create_directories(incident_dir);

  // Set-up, the monitor's cold start: load the deployed model, build the
  // engine and the incident store, boot the first monitored system.
  mhm::set_global_threads(1);
  std::vector<double> setup_s;
  std::unique_ptr<mhm::engine::DetectionEngine> engine;
  std::shared_ptr<mhm::obs::IncidentStore> store;
  std::unique_ptr<Stream> first;
  {
    CpuRotation cpus;
    for (int k = 0; k < kMonitorSetups; ++k) {
      cpus.next();
      first.reset();
      engine.reset();
      store.reset();
      const auto t0 = Clock::now();
      engine = std::make_unique<mhm::engine::DetectionEngine>(
          load_deployed_model(options.model_path));
      mhm::obs::IncidentStore::Options store_options;
      store_options.dir = incident_dir.string();
      store = std::make_shared<mhm::obs::IncidentStore>(store_options);
      first = open_stream(
          *engine, store,
          stream_seed(setup_seed(options.seed, k, kMonitorSetups), 0));
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  }

  // A traced run first measures half its time untraced, so the tracing
  // overhead is the difference of two phases of one process.
  Tracer off(false);
  const double phase_s =
      tracer.enabled() ? options.seconds / 2 : options.seconds;
  std::uint64_t stream = 0;
  Stats untraced;
  if (tracer.enabled()) {
    untraced = monitor_phase(*engine, store, std::move(first), options.seed,
                             stream, phase_s, off, result);
  }
  tracer.this_thread();
  const auto traced_begin = Clock::now();
  Stats st = monitor_phase(*engine, store, std::move(first), options.seed,
                           stream, phase_s, tracer, result);
  const auto traced_end = Clock::now();
  std::filesystem::remove_all(incident_dir);

  const double n = static_cast<double>(st.intervals);
  const double rate = n / st.loop_s;
  result.e2e = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1048576.0,
       "MB"},
      {"intervals_per_s", 1e6 / lowest_window_mean(st.step_us, kRateWindow),
       "1/s"},
      {"verdict_p50_us", lowest_window_median(st.verdict_us, kLatencyWindow),
       "us"},
  };
  result.info.insert(result.info.end(), {
      {"run_intervals_per_s", rate, "1/s"},
      {"run_verdict_p50_us", quantile(st.verdict_us, 0.5), "us"},
      {"verdict_p99_us", quantile(st.verdict_us, 0.99), "us"},
      {"deadline_miss_pct",
       100.0 * static_cast<double>(st.late + result.failed) / n, "%"},
      {"false_alarm_pct",
       100.0 * static_cast<double>(st.pre_trigger_alarms) /
           static_cast<double>(st.pre_trigger),
       "%"},
      {"detect_delay_intervals", median(st.detect_delay), "intervals"},
      {"streams_detected", static_cast<double>(st.detect_delay.size()),
       "count"},
      {"intervals", n, "count"},
  });
  if (!tracer.enabled()) return result;

  using prof::Stage;
  result.layer = {
      {"sim.next_us", quantile(st.next_us, 0.5), "us"},
      {"sim.trace_bytes", st.trace_bytes, "B"},
      {"hw.accesses_per_interval", st.accesses / n, "count"},
      {"core.score_p50_us", quantile(st.score_us, 0.5), "us"},
      {"core.score_p99_us", quantile(st.score_us, 0.99), "us"},
      {"obs.observe_us", quantile(st.observe_us, 0.5), "us"},
      {"obs.observe_alarm_us", quantile(st.observe_alarm_us, 0.5), "us"},
      {"obs.journal_records", static_cast<double>(st.journal_records),
       "count"},
      {"obs.incidents", static_cast<double>(st.incidents), "count"},
      {"prof.score.project_us",
       1e6 * st.stages.per(Stage::kScoreProject, n), "us"},
      {"prof.score.gmm_us",
       1e6 * st.stages.per(Stage::kScoreGmm, n), "us"},
      {"prof.score.spe_us",
       1e6 * st.stages.per(Stage::kScoreSpe, n), "us"},
      {"prof.score.observe_us",
       1e6 * st.stages.per(Stage::kScoreObserve, n), "us"},
  };
  const double base = static_cast<double>(untraced.intervals) /
                      untraced.loop_s;
  add_attribution(result, tracer.attribute(traced_begin, traced_end),
                  100.0 * (base - rate) / base);
  return result;
}

}  // namespace perfbench
