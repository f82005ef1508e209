#include "pipeline/amp_monitor.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace mhm::pipeline {

std::size_t AmpMonitor::attach(sim::System& system,
                               std::shared_ptr<const ModelSnapshot> model,
                               std::string name) {
  const SimTime interval = system.config().monitor.interval;
  if (interval_ == 0) {
    interval_ = interval;
  } else if (interval != interval_) {
    throw ConfigError(
        "AmpMonitor: all instances must share the monitoring interval");
  }
  const std::size_t index = instances_.size();
  instances_.push_back(Instance{
      &system, engine::DetectionEngine(std::move(model)).new_session(),
      name.empty() ? "os" + std::to_string(index) : std::move(name), {}});
  system.set_interval_observer([this, index](const HeatMap& map) {
    Instance& inst = instances_[index];
    const Verdict v = inst.session.analyze(map);
    if (v.anomalous) {
      alarms_.push_back(InstanceAlarm{.instance = index,
                                      .interval_index = v.interval_index,
                                      .log10_density = v.log10_density});
    }
    inst.verdicts.push_back(v);
  });
  return index;
}

void AmpMonitor::run_all(SimTime duration) {
  if (instances_.empty()) {
    throw ConfigError("AmpMonitor: no instances attached");
  }
  for (auto& inst : instances_) inst.system->run_for(duration);
}

const std::vector<Verdict>& AmpMonitor::verdicts(std::size_t instance) const {
  MHM_ASSERT(instance < instances_.size(),
             "AmpMonitor::verdicts: instance out of range");
  return instances_[instance].verdicts;
}

const std::string& AmpMonitor::name(std::size_t instance) const {
  MHM_ASSERT(instance < instances_.size(),
             "AmpMonitor::name: instance out of range");
  return instances_[instance].name;
}

double AmpMonitor::mean_total_analysis_ns_per_interval() const {
  // Sum per interval index across instances, then average over intervals.
  std::map<std::uint64_t, double> per_interval;
  for (const auto& inst : instances_) {
    for (const auto& v : inst.verdicts) {
      per_interval[v.interval_index] +=
          static_cast<double>(v.analysis_time.count());
    }
  }
  if (per_interval.empty()) return 0.0;
  double total = 0.0;
  for (const auto& [idx, ns] : per_interval) total += ns;
  return total / static_cast<double>(per_interval.size());
}

std::size_t AmpMonitor::budget_overruns() const {
  std::map<std::uint64_t, double> per_interval;
  for (const auto& inst : instances_) {
    for (const auto& v : inst.verdicts) {
      per_interval[v.interval_index] +=
          static_cast<double>(v.analysis_time.count());
    }
  }
  std::size_t overruns = 0;
  for (const auto& [idx, ns] : per_interval) {
    overruns += (ns > static_cast<double>(interval_));
  }
  return overruns;
}

}  // namespace mhm::pipeline
