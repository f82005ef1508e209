#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mhm::obs {

class DecisionJournal;
class ModelHealthMonitor;

/// Incident black box: the one crash-safe evidence format.
///
/// Every alarm burst or health transition becomes a `.mhmi` bundle: the
/// pre/post verdict window, the raw heat-map rows that produced it, the
/// top-|z| cell deltas against the training baseline, and the model
/// version — enough to re-score the whole window through `ModelRegistry`
/// and reproduce the verdicts bit-identically (`mhm_tool incidents replay`).
/// An armed store also writes process-state bundles (reason `signal`,
/// `flush` or `shutdown`) in the same format: the metrics, journal tail,
/// trace, model health, fleet rollup, incident list and newest heat-map
/// row, appended after `== profile ==` (docs/FILE_FORMATS.md).
///
/// Two layers:
///  - IncidentRecorder: per-stream trigger logic + bounded pre-ring. One per
///    Session, fed from StreamObserver::record.
///  - IncidentStore: process-level sink shared by every recorder. Renders
///    every bundle into a preallocated buffer and writes it front to back
///    with `== end ==` last — a crash mid-write leaves a truncated file
///    that parses as truncated, never a corrupt one — rate-limits, and
///    keeps bounded summaries for /incidents.

struct IncidentOptions {
  std::size_t pre = 16;           ///< Intervals retained before the trigger.
  std::size_t post = 16;          ///< Intervals captured after the trigger.
  std::size_t burst_count = 3;    ///< Alarms within burst_window that trigger.
  std::size_t burst_window = 8;   ///< Sliding window, intervals.
  /// Minimum intervals between two incidents on one stream: a sustained
  /// attack produces one bundle per gap, not one per alarm.
  std::uint64_t min_gap = 256;
  std::size_t top_cells = 8;      ///< |z|-ranked cell deltas in the bundle.
  /// Copy the raw heat-map rows into the bundle (the replay payload). Costs
  /// (pre+post+1) × L doubles per recorder — the single-stream default;
  /// fleet sessions keep recorders off entirely.
  bool capture_rows = true;
};

/// One interval inside an incident window.
struct IncidentEntry {
  std::uint64_t interval = 0;
  double score = 0.0;   ///< log10 Pr(M').
  double spe = 0.0;
  bool alarm = false;
  std::size_t nearest_pattern = 0;
  std::uint64_t model_version = 0;
  std::vector<double> row;  ///< Raw heat-map cells; empty unless captured.
};

/// One cell's deviation from the training baseline at the trigger interval.
struct IncidentCellDelta {
  std::size_t cell = 0;
  double observed = 0.0;
  double expected = 0.0;
  double z = 0.0;
};

/// A fully assembled incident, handed from recorder to store.
struct Incident {
  std::uint64_t id = 0;            ///< Assigned by the store on commit.
  std::string reason;              ///< "alarm_burst" | "health_transition".
  std::string detail;              ///< e.g. "OK->DRIFTING".
  std::uint64_t trigger_interval = 0;
  std::uint64_t model_version = 0;
  double threshold = 0.0;          ///< θ_p the window was judged against.
  std::size_t cells = 0;           ///< Heat-map dimension L.
  std::size_t pre = 0;
  std::size_t post = 0;
  std::vector<IncidentEntry> window;      ///< Oldest first.
  std::vector<IncidentCellDelta> top_cells;
  std::string path;                ///< Bundle file; set by the store.
};

/// Bounded scrape-visible record of a committed incident.
struct IncidentSummary {
  std::uint64_t id = 0;
  std::string reason;
  std::string detail;
  std::uint64_t trigger_interval = 0;
  std::uint64_t model_version = 0;
  std::size_t entries = 0;
  std::size_t alarms = 0;
  std::size_t bytes = 0;
  std::string path;
  /// Verdict sequence (no rows): enough for /incidents/<id> to show the
  /// score trajectory without re-reading the bundle file.
  std::vector<IncidentEntry> verdicts;
};

class IncidentStore {
 public:
  struct Options {
    std::string dir = ".";
    std::size_t max_incidents = 32;      ///< Summaries retained (ring).
    std::size_t buffer_bytes = 1 << 20;  ///< Prerender buffer capacity.
  };

  explicit IncidentStore(const Options& options);
  /// Disarms (see arm()).
  ~IncidentStore();
  IncidentStore(const IncidentStore&) = delete;
  IncidentStore& operator=(const IncidentStore&) = delete;

  /// Render + write the bundle, assign its id, retain a summary. Returns
  /// the bundle path ("" when the write failed; nothing is retained then).
  /// Thread-safe.
  std::string commit(Incident incident);

  /// Called by recorders when a trigger was rate-limited away.
  void note_suppressed();

  /// Triggered incidents only: process-state bundles are neither counted
  /// nor summarized.
  std::vector<IncidentSummary> summaries() const;
  std::uint64_t total_committed() const;

  /// JSON array of summaries (the /incidents body).
  std::string json_list() const;
  /// JSON object for one incident, with the verdict sequence in hexfloat.
  /// Nullopt when the id is unknown.
  std::optional<std::string> json_one(std::uint64_t id) const;

  /// Text block for the process-state `== incidents ==` section.
  std::string dump_section() const;

  const Options& options() const { return options_; }

  /// Make this store the process's crash-evidence writer: open the crash
  /// bundle (`mhm-<stamp>-signal-<pid>.mhmi`) now, prerender a process-
  /// state snapshot into a preallocated double buffer, start a thread that
  /// re-renders it every 250 ms, and (with `handle_signals`) install
  /// SIGSEGV/SIGABRT/SIGTERM handlers that write the published snapshot to
  /// the open file — write + fsync, no allocation, no lock — then restore
  /// the previous disposition and re-raise.
  /// `journal` (may be null) feeds the journal-tail section. Returns
  /// false when a store is already armed, the crash file cannot be
  /// created, or the obs layer is compiled out. An unarmed store runs no
  /// thread and installs no handler.
  bool arm(std::shared_ptr<const DecisionJournal> journal,
           bool handle_signals = true);
  /// Stop the refresh thread, restore the previous signal handlers, close
  /// the crash file and remove it if no signal fired. Safe when unarmed.
  void disarm();
  bool armed() const;

  /// Attach (null detaches) the monitor behind `== model_health ==`.
  void set_model_health(std::shared_ptr<const ModelHealthMonitor> monitor);
  /// Attach (empty detaches) the JSON provider behind `== fleet ==` (the
  /// fleet runner's snapshot renderer); it runs on the refresh thread.
  void set_fleet(std::function<std::string()> provider);

  /// Write a process-state bundle now (`mhm-<stamp>-<n>-<reason>-<pid>.mhmi`;
  /// reason `flush` or `shutdown`). Returns the path, or "" when unarmed or
  /// the write failed.
  std::string write_state(const std::string& reason);
  /// Path the signal handler writes to ("" while unarmed).
  std::string crash_file() const;

  /// Test hook: render `incident` and write only the first half of the
  /// bundle, simulating a crash mid-write. The file must still parse (as
  /// truncated). Returns the partial path.
  std::string debug_commit_partial(Incident incident);

 private:
  struct Armed;

  std::string commit_locked(Incident& incident, bool partial);
  /// Prerender one bundle into buffer_ up to and including its
  /// `== profile ==` section; the caller appends the rest and `== end ==`.
  void render_locked(const Incident& incident);
  /// A process-state bundle: the newest row, the state sections, the end.
  void render_state_locked(const std::string& reason);
  /// Render the crash snapshot and publish it to the signal handler.
  void publish_snapshot_locked();
  void append_incidents_locked(std::string& out) const;

  Options options_;
  mutable std::mutex mu_;
  std::string buffer_;  ///< Preallocated render buffer.
  std::uint64_t next_id_ = 1;
  std::uint64_t total_ = 0;
  std::vector<IncidentSummary> ring_;  ///< Bounded, oldest dropped.
  std::unique_ptr<Armed> armed_;       ///< Null while unarmed.
};

/// The armed store's write_state(reason) — what GET /flush calls. "" when
/// no store is armed.
std::string write_armed_state(const std::string& reason);

namespace detail {
/// Set while the armed store's refresh thread wants the newest heat-map row.
extern std::atomic<bool> state_row_wanted;
void offer_state_row(std::span<const double> raw, std::uint64_t interval);
}  // namespace detail

/// Scoring-path hook (StreamObserver::record): hands the armed store the
/// newest heat-map row once per refresh. One relaxed load otherwise.
inline void note_state_row(std::span<const double> raw,
                           std::uint64_t interval) {
  if (detail::state_row_wanted.load(std::memory_order_relaxed)) {
    detail::offer_state_row(raw, interval);
  }
}

class IncidentRecorder {
 public:
  /// `store` may be null: the recorder then runs trigger logic but commits
  /// nothing (used by tests probing the window machinery in isolation).
  IncidentRecorder(const IncidentOptions& options,
                   std::shared_ptr<IncidentStore> store);

  /// Per-interval hook (from StreamObserver::record): `status` is the
  /// model-health status code after this interval (0 OK, 1 DRIFTING,
  /// 2 MISCALIBRATED), `threshold` the primary θ_p, `baseline_mean` /
  /// `baseline_stddev` the per-cell training baseline (empty spans when the
  /// model carries none). Thread-safe.
  void note(std::uint64_t interval, double score, double spe, bool alarm,
            std::size_t nearest_pattern, std::uint64_t model_version,
            double threshold, std::uint8_t status,
            std::span<const double> raw, std::span<const double> baseline_mean,
            std::span<const double> baseline_stddev);

  /// Incidents this recorder has committed / suppressed (rate limit).
  std::uint64_t committed() const;
  std::uint64_t suppressed() const;
  /// An incident is being assembled (post window still filling).
  bool pending() const;

  const IncidentOptions& options() const { return options_; }

 private:
  void trigger_locked(const char* reason, std::string detail,
                      std::uint64_t interval, double threshold,
                      std::span<const double> raw,
                      std::span<const double> baseline_mean,
                      std::span<const double> baseline_stddev);

  IncidentOptions options_;
  std::shared_ptr<IncidentStore> store_;
  mutable std::mutex mu_;
  std::vector<IncidentEntry> ring_;  ///< Pre-window (capacity pre+1).
  std::size_t ring_head_ = 0;
  std::size_t ring_size_ = 0;
  std::vector<std::uint64_t> recent_alarms_;  ///< Intervals, for the burst.
  std::uint8_t prev_status_ = 0;
  bool has_prev_status_ = false;
  std::uint64_t last_trigger_ = 0;
  bool has_triggered_ = false;
  std::optional<Incident> pending_;
  std::size_t post_remaining_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t suppressed_ = 0;
};

/// A section the parser does not interpret (`== profile ==` and the
/// process-state sections), kept verbatim.
struct BundleSection {
  std::string header;  ///< The `== ... ==` line.
  std::vector<std::string> lines;
};

/// A parsed `.mhmi` bundle (mhm_tool incidents list/show/replay).
struct IncidentBundle {
  Incident incident;
  bool truncated = false;       ///< `== end ==` marker missing.
  std::vector<std::string> build_info;  ///< Header `build.*` lines, verbatim.
  std::vector<BundleSection> sections;  ///< In file order.
};

/// Parse a bundle file. Returns false on I/O failure, a malformed header,
/// or a complete heat-map row whose length disagrees with `cells`; a file
/// cut off mid-write parses with `truncated` set and whatever entries were
/// complete. `truncated` is set on every return unless `== end ==` was
/// read.
bool parse_incident_file(const std::string& path, IncidentBundle* out,
                         std::string* error);

}  // namespace mhm::obs
