#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/heatmap.hpp"
#include "engine/engine.hpp"
#include "sim/system.hpp"

namespace mhm::pipeline {

/// Model of the secure core of the SecureCore architecture (paper §3):
/// the trusted core that configures the Memometer, retrieves each finished
/// MHM from the on-chip double buffer and runs the anomaly analysis while
/// the next interval accumulates.
///
/// It verifies the paper's implicit real-time constraint: analysis of one
/// MHM must finish within one monitoring interval, otherwise the double
/// buffer would be overrun. Violations are counted, not fatal.
class SecureCoreMonitor {
 public:
  /// An alarm raised for one interval.
  struct Alarm {
    std::uint64_t interval_index = 0;
    double log10_density = 0.0;
  };

  /// Attach to `system` (not owned; must outlive the monitor and the run);
  /// every completed interval is analyzed by the monitor's own session on
  /// `model`.
  SecureCoreMonitor(sim::System& system,
                    std::shared_ptr<const ModelSnapshot> model);
  /// The system's interval observer holds `this`.
  SecureCoreMonitor(const SecureCoreMonitor&) = delete;
  SecureCoreMonitor& operator=(const SecureCoreMonitor&) = delete;

  /// Optional callback fired on every anomalous interval (e.g. to trigger a
  /// recovery action in a Simplex-style architecture).
  void set_alarm_handler(std::function<void(const Alarm&)> handler);

  const std::vector<Verdict>& verdicts() const { return verdicts_; }
  const std::vector<Alarm>& alarms() const { return alarms_; }

  /// Number of intervals whose analysis (wall-clock) exceeded the interval
  /// length — the double-buffer overrun condition.
  std::size_t deadline_overruns() const { return overruns_; }

  /// Mean analysis time per MHM in nanoseconds (the §5.4 metric).
  double mean_analysis_time_ns() const;

 private:
  engine::Session session_;
  SimTime interval_length_;
  std::vector<Verdict> verdicts_;
  std::vector<Alarm> alarms_;
  std::function<void(const Alarm&)> alarm_handler_;
  std::size_t overruns_ = 0;
};

}  // namespace mhm::pipeline
