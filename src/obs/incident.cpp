#include "obs/incident.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/build_info.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/model_health.hpp"
#include "obs/prof.hpp"

namespace mhm::obs {
namespace {

/// printf-append into the preallocated render buffer. The buffer's reserved
/// capacity makes steady-state appends allocation-free; a bundle larger
/// than the reserve degrades to a normal string grow, never to truncation.
void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof buf - 1));
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

Counter& created_counter() {
  return Registry::instance().counter("incident.created",
                                      "incident bundles committed");
}
Counter& suppressed_counter() {
  return Registry::instance().counter(
      "incident.suppressed", "incident triggers dropped by the rate limit");
}
Counter& bytes_counter() {
  return Registry::instance().counter("incident.bytes_written",
                                      "bytes written into .mhmi bundles");
}
Gauge& last_trigger_gauge() {
  return Registry::instance().gauge("incident.last_trigger_interval",
                                    "interval of the newest incident");
}

/// Async-signal-safe: write [p, p + n) front to back, retrying EINTR. The
/// one write loop every bundle goes through — commits, process-state
/// bundles and the crash handler.
bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_file(const std::string& path, const char* data, std::size_t n) {
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = write_all(fd, data, n);
  return ::close(fd) == 0 && ok;
}

/// `<dir>/mhm-<YYYYmmdd-HHMMSS>-<tag>-<pid>.mhmi`: sorts after the
/// `incident-*` bundles, so a directory listing shows triggered ones first.
std::string state_path(const std::string& dir, const std::string& tag) {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  localtime_r(&t, &tm);
  char stamp[32];
  std::strftime(stamp, sizeof stamp, "%Y%m%d-%H%M%S", &tm);
  return dir + "/mhm-" + stamp + "-" + tag + "-" +
         std::to_string(::getpid()) + ".mhmi";
}

constexpr std::size_t kJournalTail = 64;  ///< Decision records per bundle.
constexpr auto kRefreshGap = std::chrono::milliseconds(250);

// Process-wide crash state: the signal handler needs one target, and may
// not lock, allocate or format — it reads only these atomics and buffers.
std::mutex g_arm_mu;  ///< Guards g_armed_store; taken before a store's mu_.
IncidentStore* g_armed_store = nullptr;
std::atomic<int> g_crash_fd{-1};
std::vector<char> g_snapshot[2];
std::atomic<std::size_t> g_snapshot_len[2] = {0, 0};
std::atomic<int> g_published{-1};

/// Signals that write the crash snapshot: faults, aborts and termination
/// requests (an operator's `kill`). Arming keeps each one's previous
/// disposition, by signal number, for the handler to chain to and for
/// disarm to restore.
constexpr int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGTERM};
struct sigaction g_old_actions[NSIG];

// Newest heat-map row handed over by the scoring path (leaf lock).
std::mutex g_row_mu;
std::vector<double> g_row;
std::uint64_t g_row_interval = 0;

/// Write the published prerendered snapshot to the crash file opened at
/// arm time, fsync, then restore the previous disposition and re-raise, so
/// the signal ends the process (or reaches the handler it had) as before.
void crash_handler(int sig) {
  static std::atomic<bool> entered{false};
  if (!entered.exchange(true, std::memory_order_relaxed)) {
    const int fd = g_crash_fd.load(std::memory_order_relaxed);
    const int idx = g_published.load(std::memory_order_acquire);
    if (fd >= 0 && idx >= 0) {
      write_all(fd, g_snapshot[idx].data(),
                g_snapshot_len[idx].load(std::memory_order_acquire));
      ::fsync(fd);
    }
  }
  ::sigaction(sig, &g_old_actions[sig], nullptr);
  ::raise(sig);
}

}  // namespace

namespace detail {

std::atomic<bool> state_row_wanted{false};

void offer_state_row(std::span<const double> raw, std::uint64_t interval) {
  if (!state_row_wanted.exchange(false, std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(g_row_mu);
  g_row.assign(raw.begin(), raw.end());
  g_row_interval = interval;
}

}  // namespace detail

/// What arming adds to a store: the process-state sources, the crash file
/// and the refresh thread.
struct IncidentStore::Armed {
  std::shared_ptr<const DecisionJournal> journal;
  std::shared_ptr<const ModelHealthMonitor> model_health;
  std::function<std::string()> fleet;
  std::string crash_path;
  std::uint64_t writes = 0;  ///< Process-state bundles written so far.
  std::vector<double> row;   ///< Copy of g_row for the render in progress.
  std::uint64_t row_interval = 0;
  bool handlers = false;
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  std::thread refresher;
};

IncidentStore::IncidentStore(const Options& options) : options_(options) {
  options_.max_incidents = std::max<std::size_t>(1, options_.max_incidents);
  buffer_.reserve(options_.buffer_bytes);
}

IncidentStore::~IncidentStore() { disarm(); }

std::string IncidentStore::commit(Incident incident) {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_locked(incident, /*partial=*/false);
}

std::string IncidentStore::debug_commit_partial(Incident incident) {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_locked(incident, /*partial=*/true);
}

void IncidentStore::render_locked(const Incident& incident) {
  buffer_.clear();
  append_fmt(buffer_, "MHMI 1\n");
  append_fmt(buffer_, "id %llu\n",
             static_cast<unsigned long long>(incident.id));
  append_fmt(buffer_, "reason %s\n", incident.reason.c_str());
  append_fmt(buffer_, "detail %s\n",
             incident.detail.empty() ? "-" : incident.detail.c_str());
  append_fmt(buffer_, "trigger_interval %llu\n",
             static_cast<unsigned long long>(incident.trigger_interval));
  append_fmt(buffer_, "model_version %llu\n",
             static_cast<unsigned long long>(incident.model_version));
  append_fmt(buffer_, "threshold %a\n", incident.threshold);
  append_fmt(buffer_, "cells %zu\n", incident.cells);
  append_fmt(buffer_, "pre %zu\n", incident.pre);
  append_fmt(buffer_, "post %zu\n", incident.post);
  append_fmt(buffer_, "entries %zu\n", incident.window.size());
  buffer_ += build_info_text("build.");
  buffer_ += "== verdicts ==\n";
  for (const IncidentEntry& e : incident.window) {
    append_fmt(buffer_, "%llu %a %a %d %zu %llu\n",
               static_cast<unsigned long long>(e.interval), e.score, e.spe,
               e.alarm ? 1 : 0, e.nearest_pattern,
               static_cast<unsigned long long>(e.model_version));
  }
  append_fmt(buffer_, "== cells top=%zu ==\n", incident.top_cells.size());
  for (const IncidentCellDelta& c : incident.top_cells) {
    append_fmt(buffer_, "%zu %a %a %a\n", c.cell, c.observed, c.expected, c.z);
  }
  std::size_t rows = 0;
  for (const IncidentEntry& e : incident.window) {
    if (!e.row.empty()) ++rows;
  }
  append_fmt(buffer_, "== rows n=%zu cells=%zu ==\n", rows, incident.cells);
  for (const IncidentEntry& e : incident.window) {
    if (e.row.empty()) continue;
    append_fmt(buffer_, "%llu", static_cast<unsigned long long>(e.interval));
    for (const double v : e.row) append_fmt(buffer_, " %a", v);
    buffer_ += '\n';
  }
  // Profiler state at render time: which stage the process was spending
  // its cycles in, from the same accumulators /profile serves.
  buffer_ += "== profile ==\n";
  buffer_ += prof::dump_section();
}

void IncidentStore::render_state_locked(const std::string& reason) {
  Armed& a = *armed_;
  {
    std::lock_guard<std::mutex> row_lock(g_row_mu);
    a.row.assign(g_row.begin(), g_row.end());
    a.row_interval = g_row_interval;
  }
  Incident state;  // id 0: process-state bundles take no incident id.
  state.reason = reason;
  state.trigger_interval = a.row_interval;
  state.cells = a.row.size();
  render_locked(state);
  buffer_ += "== metrics ==\n";
  buffer_ += prometheus_text();
  std::vector<DecisionRecord> records;
  if (a.journal != nullptr) records = a.journal->snapshot();
  const std::size_t tail = std::min(kJournalTail, records.size());
  append_fmt(buffer_, "== journal tail=%zu ==\n", tail);
  for (std::size_t i = records.size() - tail; i < records.size(); ++i) {
    buffer_ += decision_json(records[i]);
    buffer_ += '\n';
  }
  buffer_ += "== trace ==\n";
  buffer_ += chrome_trace_json();
  if (a.model_health != nullptr) {
    buffer_ += "== model_health ==\n";
    buffer_ += model_health_json(a.model_health->snapshot());
    buffer_ += '\n';
  }
  if (a.fleet) {
    buffer_ += "== fleet ==\n";
    buffer_ += a.fleet();
    buffer_ += '\n';
  }
  buffer_ += "== incidents ==\n";
  append_incidents_locked(buffer_);
  if (!a.row.empty()) {
    append_fmt(buffer_, "== heatmap interval=%llu cells=%zu ==\n",
               static_cast<unsigned long long>(a.row_interval), a.row.size());
    for (std::size_t i = 0; i < a.row.size(); ++i) {
      append_fmt(buffer_, i == 0 ? "%a" : " %a", a.row[i]);
    }
    buffer_ += '\n';
  }
  buffer_ += "== end ==\n";
}

std::string IncidentStore::commit_locked(Incident& incident, bool partial) {
  incident.id = next_id_++;
  char name[64];
  std::snprintf(name, sizeof name, "/incident-%06llu.mhmi",
                static_cast<unsigned long long>(incident.id));
  incident.path = options_.dir + name;
  // The whole bundle is prerendered, `== end ==` last, so the on-disk state
  // is always one of: absent, truncated (missing end marker), or complete.
  render_locked(incident);
  buffer_ += "== end ==\n";
  const std::size_t write_len = partial ? buffer_.size() / 2 : buffer_.size();
  if (!write_file(incident.path, buffer_.data(), write_len)) return "";

  IncidentSummary summary;
  summary.id = incident.id;
  summary.reason = incident.reason;
  summary.detail = incident.detail;
  summary.trigger_interval = incident.trigger_interval;
  summary.model_version = incident.model_version;
  summary.entries = incident.window.size();
  for (const IncidentEntry& e : incident.window) summary.alarms += e.alarm;
  summary.bytes = write_len;
  summary.path = incident.path;
  summary.verdicts = std::move(incident.window);
  for (IncidentEntry& e : summary.verdicts) {
    e.row.clear();
    e.row.shrink_to_fit();  // Summaries keep verdicts, never rows.
  }
  if (ring_.size() >= options_.max_incidents) {
    ring_.erase(ring_.begin());
  }
  ring_.push_back(std::move(summary));
  ++total_;
  created_counter().add(1);
  bytes_counter().add(write_len);
  last_trigger_gauge().set(static_cast<double>(incident.trigger_interval));
  return incident.path;
}

bool IncidentStore::arm(std::shared_ptr<const DecisionJournal> journal,
                        bool handle_signals) {
  if (build_info().obs_disabled) return false;
  std::lock_guard<std::mutex> arm_lock(g_arm_mu);
  if (g_armed_store != nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto armed = std::make_unique<Armed>();
  armed->journal = std::move(journal);
  armed->crash_path = state_path(options_.dir, "signal");
  const int fd = ::open(armed->crash_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  {
    std::lock_guard<std::mutex> row_lock(g_row_mu);
    g_row.clear();
  }
  for (std::vector<char>& snapshot : g_snapshot) {
    snapshot.assign(options_.buffer_bytes, '\0');
  }
  g_crash_fd.store(fd, std::memory_order_relaxed);
  armed_ = std::move(armed);
  publish_snapshot_locked();
  if (handle_signals) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    for (const int sig : kCrashSignals) {
      ::sigaction(sig, &sa, &g_old_actions[sig]);
    }
    armed_->handlers = true;
  }
  armed_->refresher = std::thread([this, a = armed_.get()] {
    std::unique_lock<std::mutex> stop_lock(a->stop_mu);
    while (!a->stop_cv.wait_for(stop_lock, kRefreshGap,
                                [a] { return a->stop; })) {
      stop_lock.unlock();
      try {
        std::lock_guard<std::mutex> refresh_lock(mu_);
        publish_snapshot_locked();
      } catch (const std::exception& e) {
        // The previous snapshot stays published; say why it went stale.
        std::fprintf(stderr, "incident store: snapshot refresh failed: %s\n",
                     e.what());
      }
      detail::state_row_wanted.store(true, std::memory_order_relaxed);
      stop_lock.lock();
    }
  });
  g_armed_store = this;
  detail::state_row_wanted.store(true, std::memory_order_relaxed);
  return true;
}

void IncidentStore::disarm() {
  {
    std::lock_guard<std::mutex> arm_lock(g_arm_mu);
    if (g_armed_store != this) return;
    g_armed_store = nullptr;
  }
  Armed* a = armed_.get();
  {
    std::lock_guard<std::mutex> stop_lock(a->stop_mu);
    a->stop = true;
  }
  a->stop_cv.notify_all();
  a->refresher.join();

  std::lock_guard<std::mutex> lock(mu_);
  detail::state_row_wanted.store(false, std::memory_order_relaxed);
  if (a->handlers) {
    for (const int sig : kCrashSignals) {
      ::sigaction(sig, &g_old_actions[sig], nullptr);
    }
  }
  g_published.store(-1, std::memory_order_relaxed);
  const int fd = g_crash_fd.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) {
    // The crash file only has content if the handler fired (and then this
    // code never runs): an empty one is clutter.
    struct stat st;
    const bool empty = ::fstat(fd, &st) == 0 && st.st_size == 0;
    ::close(fd);
    if (empty) ::unlink(a->crash_path.c_str());
  }
  for (std::vector<char>& snapshot : g_snapshot) {
    std::vector<char>().swap(snapshot);
  }
  armed_.reset();
}

bool IncidentStore::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_ != nullptr;
}

void IncidentStore::set_model_health(
    std::shared_ptr<const ModelHealthMonitor> monitor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_ != nullptr) armed_->model_health = std::move(monitor);
}

void IncidentStore::set_fleet(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_ != nullptr) armed_->fleet = std::move(provider);
}

std::string IncidentStore::crash_file() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_ != nullptr ? armed_->crash_path : "";
}

void IncidentStore::publish_snapshot_locked() {
  // Double buffer: render into the unpublished slot, then publish its
  // index, so a signal mid-refresh still sees the previous complete one.
  // A snapshot larger than the slot is cut and parses as truncated.
  render_state_locked("signal");
  const int idx = g_published.load(std::memory_order_relaxed) == 0 ? 1 : 0;
  const std::size_t n = std::min(buffer_.size(), g_snapshot[idx].size());
  std::memcpy(g_snapshot[idx].data(), buffer_.data(), n);
  g_snapshot_len[idx].store(n, std::memory_order_release);
  g_published.store(idx, std::memory_order_release);
}

std::string IncidentStore::write_state(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_ == nullptr) return "";
  const std::string path = state_path(
      options_.dir, std::to_string(armed_->writes++) + "-" + reason);
  render_state_locked(reason);
  return write_file(path, buffer_.data(), buffer_.size()) ? path : "";
}

std::string write_armed_state(const std::string& reason) {
  std::lock_guard<std::mutex> arm_lock(g_arm_mu);
  return g_armed_store != nullptr ? g_armed_store->write_state(reason) : "";
}

void IncidentStore::note_suppressed() { suppressed_counter().add(1); }

std::vector<IncidentSummary> IncidentStore::summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_;
}

std::uint64_t IncidentStore::total_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

namespace {

void append_summary_fields(std::string& out, const IncidentSummary& s) {
  append_fmt(out, "\"id\":%llu,", static_cast<unsigned long long>(s.id));
  out += "\"reason\":";
  append_json_string(out, s.reason);
  out += ",\"detail\":";
  append_json_string(out, s.detail);
  append_fmt(out, ",\"trigger_interval\":%llu,\"model_version\":%llu,"
                  "\"entries\":%zu,\"alarms\":%zu,\"bytes\":%zu,",
             static_cast<unsigned long long>(s.trigger_interval),
             static_cast<unsigned long long>(s.model_version), s.entries,
             s.alarms, s.bytes);
  out += "\"path\":";
  append_json_string(out, s.path);
}

}  // namespace

std::string IncidentStore::json_list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(1024);
  append_fmt(out, "{\"total\":%llu,\"incidents\":[",
             static_cast<unsigned long long>(total_));
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (i != 0) out += ',';
    out += '{';
    append_summary_fields(out, ring_[i]);
    out += '}';
  }
  out += "]}";
  return out;
}

std::optional<std::string> IncidentStore::json_one(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const IncidentSummary& s : ring_) {
    if (s.id != id) continue;
    std::string out;
    out.reserve(4096);
    out += '{';
    append_summary_fields(out, s);
    out += ",\"verdicts\":[";
    for (std::size_t i = 0; i < s.verdicts.size(); ++i) {
      const IncidentEntry& e = s.verdicts[i];
      if (i != 0) out += ',';
      append_fmt(out,
                 "{\"interval\":%llu,\"score\":%.9g,\"score_hex\":\"%a\","
                 "\"spe\":%.9g,\"spe_hex\":\"%a\",\"alarm\":%s,"
                 "\"nearest\":%zu,\"model_version\":%llu}",
                 static_cast<unsigned long long>(e.interval), e.score, e.score,
                 e.spe, e.spe, e.alarm ? "true" : "false", e.nearest_pattern,
                 static_cast<unsigned long long>(e.model_version));
    }
    out += "]}";
    return out;
  }
  return std::nullopt;
}

std::string IncidentStore::dump_section() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  append_incidents_locked(out);
  return out;
}

void IncidentStore::append_incidents_locked(std::string& out) const {
  append_fmt(out, "committed %llu retained %zu\n",
             static_cast<unsigned long long>(total_), ring_.size());
  for (const IncidentSummary& s : ring_) {
    append_fmt(out,
               "id=%llu reason=%s trigger=%llu model=%llu entries=%zu "
               "alarms=%zu path=%s\n",
               static_cast<unsigned long long>(s.id), s.reason.c_str(),
               static_cast<unsigned long long>(s.trigger_interval),
               static_cast<unsigned long long>(s.model_version), s.entries,
               s.alarms, s.path.c_str());
  }
}

IncidentRecorder::IncidentRecorder(const IncidentOptions& options,
                                   std::shared_ptr<IncidentStore> store)
    : options_(options), store_(std::move(store)) {
  options_.pre = std::max<std::size_t>(1, options_.pre);
  options_.burst_window = std::max<std::size_t>(1, options_.burst_window);
  options_.burst_count = std::max<std::size_t>(1, options_.burst_count);
  ring_.resize(options_.pre + 1);
  recent_alarms_.reserve(options_.burst_window);
}

void IncidentRecorder::note(std::uint64_t interval, double score, double spe,
                            bool alarm, std::size_t nearest_pattern,
                            std::uint64_t model_version, double threshold,
                            std::uint8_t status, std::span<const double> raw,
                            std::span<const double> baseline_mean,
                            std::span<const double> baseline_stddev) {
  std::lock_guard<std::mutex> lock(mu_);
  IncidentEntry& slot = ring_[ring_head_];
  slot.interval = interval;
  slot.score = score;
  slot.spe = spe;
  slot.alarm = alarm;
  slot.nearest_pattern = nearest_pattern;
  slot.model_version = model_version;
  if (options_.capture_rows) {
    slot.row.assign(raw.begin(), raw.end());
  } else {
    slot.row.clear();
  }
  ring_head_ = (ring_head_ + 1) % ring_.size();
  ring_size_ = std::min(ring_size_ + 1, ring_.size());

  if (alarm) {
    recent_alarms_.push_back(interval);
  }
  // Prune the burst window (intervals are monotone per stream).
  while (!recent_alarms_.empty() &&
         interval - recent_alarms_.front() >= options_.burst_window) {
    recent_alarms_.erase(recent_alarms_.begin());
  }

  if (pending_) {
    pending_->window.push_back(ring_[(ring_head_ + ring_.size() - 1) %
                                     ring_.size()]);
    if (post_remaining_ > 0) --post_remaining_;
    if (post_remaining_ == 0) {
      if (store_) store_->commit(std::move(*pending_));
      ++committed_;
      pending_.reset();
      recent_alarms_.clear();
    }
  } else {
    const bool gap_ok =
        !has_triggered_ || interval - last_trigger_ >= options_.min_gap;
    const bool burst = recent_alarms_.size() >= options_.burst_count;
    const bool transition = has_prev_status_ && prev_status_ == 0 &&
                            status != 0;
    if (burst || transition) {
      if (gap_ok) {
        char detail[64];
        if (burst) {
          std::snprintf(detail, sizeof detail, "%zu alarms in %zu intervals",
                        recent_alarms_.size(), options_.burst_window);
        } else {
          std::snprintf(detail, sizeof detail, "OK->%s",
                        status == 1 ? "DRIFTING" : "MISCALIBRATED");
        }
        trigger_locked(burst ? "alarm_burst" : "health_transition", detail,
                       interval, threshold, raw, baseline_mean,
                       baseline_stddev);
      } else {
        ++suppressed_;
        if (store_) store_->note_suppressed();
        recent_alarms_.clear();  // One suppression per burst, not per alarm.
      }
    }
  }

  prev_status_ = status;
  has_prev_status_ = true;
}

void IncidentRecorder::trigger_locked(const char* reason, std::string detail,
                                      std::uint64_t interval, double threshold,
                                      std::span<const double> raw,
                                      std::span<const double> baseline_mean,
                                      std::span<const double> baseline_stddev) {
  has_triggered_ = true;
  last_trigger_ = interval;

  Incident inc;
  inc.reason = reason;
  inc.detail = std::move(detail);
  inc.trigger_interval = interval;
  inc.model_version = ring_[(ring_head_ + ring_.size() - 1) % ring_.size()]
                          .model_version;
  inc.threshold = threshold;
  inc.cells = raw.size();
  inc.pre = ring_size_ > 0 ? ring_size_ - 1 : 0;
  inc.post = options_.post;
  inc.window.reserve(ring_size_ + options_.post);
  const std::size_t start =
      (ring_head_ + ring_.size() - ring_size_) % ring_.size();
  for (std::size_t i = 0; i < ring_size_; ++i) {
    inc.window.push_back(ring_[(start + i) % ring_.size()]);
  }

  if (options_.top_cells > 0 && baseline_mean.size() == raw.size() &&
      baseline_stddev.size() == raw.size()) {
    std::vector<std::size_t> order(raw.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto z_of = [&](std::size_t i) {
      return (raw[i] - baseline_mean[i]) /
             std::max(baseline_stddev[i], 1.0);
    };
    const std::size_t keep = std::min(options_.top_cells, order.size());
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        const double za = std::abs(z_of(a));
                        const double zb = std::abs(z_of(b));
                        return za != zb ? za > zb : a < b;
                      });
    inc.top_cells.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      const std::size_t cell = order[i];
      inc.top_cells.push_back(IncidentCellDelta{
          cell, raw[cell], baseline_mean[cell], z_of(cell)});
    }
  }

  if (options_.post == 0) {
    if (store_) store_->commit(std::move(inc));
    ++committed_;
    recent_alarms_.clear();
  } else {
    pending_ = std::move(inc);
    post_remaining_ = options_.post;
  }
}

std::uint64_t IncidentRecorder::committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

std::uint64_t IncidentRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

bool IncidentRecorder::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.has_value();
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double parse_hex_double(const std::string& tok) {
  return std::strtod(tok.c_str(), nullptr);
}

}  // namespace

bool parse_incident_file(const std::string& path, IncidentBundle* out,
                         std::string* error) {
  out->truncated = true;  // Until the end marker shows up.
  std::ifstream file(path);
  if (!file.good()) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  if (!std::getline(file, line) || line != "MHMI 1") {
    if (error) *error = "not an MHMI 1 bundle: " + path;
    return false;
  }
  Incident& inc = out->incident;
  inc = Incident{};
  inc.path = path;
  out->build_info.clear();
  out->sections.clear();

  // kOther keeps any section this parser does not interpret (the profile
  // and the process-state sections) verbatim, so a newer writer's sections
  // never break an older reader.
  enum class Section { kHeader, kVerdicts, kCells, kRows, kOther };
  Section section = Section::kHeader;
  while (std::getline(file, line)) {
    if (line == "== end ==") {
      out->truncated = false;
      break;
    }
    if (starts_with(line, "== verdicts ==")) {
      section = Section::kVerdicts;
      continue;
    }
    if (starts_with(line, "== cells")) {
      section = Section::kCells;
      continue;
    }
    if (starts_with(line, "== rows")) {
      section = Section::kRows;
      continue;
    }
    if (starts_with(line, "== ")) {
      section = Section::kOther;
      out->sections.push_back(BundleSection{line, {}});
      continue;
    }
    std::istringstream ls(line);
    if (section == Section::kHeader) {
      std::string key;
      if (!(ls >> key)) continue;
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      if (key == "id") inc.id = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "reason") inc.reason = rest;
      else if (key == "detail") inc.detail = rest == "-" ? "" : rest;
      else if (key == "trigger_interval")
        inc.trigger_interval = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "model_version")
        inc.model_version = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "threshold") inc.threshold = parse_hex_double(rest);
      else if (key == "cells")
        inc.cells = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "pre") inc.pre = std::strtoull(rest.c_str(), nullptr, 10);
      else if (key == "post")
        inc.post = std::strtoull(rest.c_str(), nullptr, 10);
      else if (starts_with(key, "build."))
        out->build_info.push_back(key + " " + rest);
      // "entries" is derivable; unknown keys are skipped for forward compat.
    } else if (section == Section::kVerdicts) {
      IncidentEntry e;
      std::string score_tok, spe_tok;
      int alarm = 0;
      unsigned long long iv = 0, mv = 0;
      if (!(ls >> iv >> score_tok >> spe_tok >> alarm >> e.nearest_pattern >>
            mv)) {
        break;  // Cut mid-line: keep what parsed, stay truncated.
      }
      e.interval = iv;
      e.model_version = mv;
      e.score = parse_hex_double(score_tok);
      e.spe = parse_hex_double(spe_tok);
      e.alarm = alarm != 0;
      inc.window.push_back(std::move(e));
    } else if (section == Section::kCells) {
      IncidentCellDelta c;
      std::string obs_tok, exp_tok, z_tok;
      if (!(ls >> c.cell >> obs_tok >> exp_tok >> z_tok)) break;
      c.observed = parse_hex_double(obs_tok);
      c.expected = parse_hex_double(exp_tok);
      c.z = parse_hex_double(z_tok);
      inc.top_cells.push_back(c);
    } else if (section == Section::kRows) {
      unsigned long long iv = 0;
      if (!(ls >> iv)) break;
      // Sized by the tokens present, never by the header's `cells`: the
      // header is untrusted, the bytes on disk are not.
      std::vector<double> row;
      std::string tok;
      while (ls >> tok) row.push_back(parse_hex_double(tok));
      if (row.size() != inc.cells) {
        if (file.eof()) break;  // Cut mid-row by a crash: stays truncated.
        if (error) {
          *error = path + ": row of interval " + std::to_string(iv) +
                   " has " + std::to_string(row.size()) +
                   " cells, header says " + std::to_string(inc.cells);
        }
        return false;
      }
      for (IncidentEntry& e : inc.window) {
        if (e.interval == iv && e.row.empty()) {
          e.row = std::move(row);
          break;
        }
      }
    } else {
      out->sections.back().lines.push_back(line);
    }
  }
  return true;
}

}  // namespace mhm::obs
