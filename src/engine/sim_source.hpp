#pragma once

#include <deque>

#include "engine/source.hpp"
#include "sim/system.hpp"

namespace mhm::engine {

/// Pull-based view of a live sim::System: each next() advances the
/// simulation one monitoring interval at a time (chunked run_for — the
/// scheduler's event loop makes chunked stepping bit-identical to one long
/// run) until the Memometer completes a map or the budgeted duration is
/// exhausted.
///
/// The source is the system's one consumer for its lifetime (attaching
/// throws ConfigError when the system already has one), so the system
/// keeps no maps: each interval's map exists once, queued here until
/// next() hands it out. Destruction restores the system's collector.
class SimIntervalSource final : public IntervalSource {
 public:
  /// Will simulate up to `duration` from the system's current now().
  SimIntervalSource(sim::System& system, SimTime duration);
  ~SimIntervalSource() override;

  SimIntervalSource(const SimIntervalSource&) = delete;
  SimIntervalSource& operator=(const SimIntervalSource&) = delete;

  std::optional<SourceItem> next() override;

  /// Simulation time not yet consumed by next() calls.
  SimTime remaining() const { return remaining_; }

 private:
  sim::System& system_;
  SimTime interval_;
  SimTime remaining_;
  std::deque<HeatMap> pending_;
};

}  // namespace mhm::engine
