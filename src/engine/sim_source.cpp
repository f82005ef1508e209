#include "engine/sim_source.hpp"

#include <algorithm>
#include <utility>

namespace mhm::engine {

SimIntervalSource::SimIntervalSource(sim::System& system, SimTime duration)
    : system_(system),
      interval_(system.config().monitor.interval),
      remaining_(duration) {
  system_.attach_sink(
      [this](const HeatMap& map) { pending_.push_back(map); });
}

SimIntervalSource::~SimIntervalSource() { system_.detach_sink(); }

std::optional<SourceItem> SimIntervalSource::next() {
  // Advance interval-by-interval until a map lands. A trailing partial
  // interval is still simulated (the run covers the full duration) but
  // completes no map — exactly run_for(duration)'s behaviour.
  while (pending_.empty() && remaining_ > 0) {
    const SimTime step = std::min(interval_, remaining_);
    system_.run_for(step);
    remaining_ -= step;
  }
  if (pending_.empty()) return std::nullopt;
  HeatMap map = std::move(pending_.front());
  pending_.pop_front();
  return SourceItem{.interval_index = map.interval_index,
                    .map = std::move(map)};
}

}  // namespace mhm::engine
