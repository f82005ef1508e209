#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/heatmap.hpp"
#include "hw/cache_model.hpp"
#include "hw/memometer.hpp"
#include "hw/memory_bus.hpp"
#include "sim/kernel_image.hpp"
#include "sim/kernel_services.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace mhm::sim {

/// Where the Memometer snoops (§3.1 and §5.5):
///  * PreL1  — on the address line between core and L1 (the paper's choice;
///             sees every fetch).
///  * PostL1 — below the L1: only L1 misses are visible.
///  * PostL2 — below a shared L2: only L2 misses are visible.
enum class SnoopPoint { PreL1, PostL1, PostL2 };

/// Configuration of one simulated monitored system.
struct SystemConfig {
  KernelImage::Params kernel;          ///< Synthetic kernel layout.
  MhmConfig monitor;                   ///< Memometer parameters.
  std::vector<TaskSpec> tasks;         ///< Initial periodic task set.
  std::uint64_t seed = 1;              ///< Master seed for all jitter.
  SnoopPoint snoop_point = SnoopPoint::PreL1;
  hw::CacheGeometry l1 = hw::CacheGeometry::l1_default();
  hw::CacheGeometry l2 = hw::CacheGeometry::l2_default();
  /// Mean inter-arrival of background kworker activity (0 disables).
  SimTime kworker_mean_period = 7 * kMillisecond;
  /// Mean inter-arrival of device interrupts (irq_dispatch path;
  /// 0 disables). Models sporadic peripheral activity beyond the tick.
  SimTime device_irq_mean_period = 0;
  /// Scales every stochastic sigma in the workload (service durations,
  /// sweep counts, task execution demand). 1.0 = embedded-Linux-like
  /// default; 0.0 = fully deterministic RTOS (paper's conclusion); > 1 =
  /// noisy general-purpose system (§5.5's false-positive concern).
  double jitter_scale = 1.0;

  /// The paper's §5.1 prototype: four MiBench-like tasks, kernel .text
  /// monitoring at δ = 2 KB / 10 ms intervals, pre-L1 snooping.
  static SystemConfig paper_default(std::uint64_t seed = 1);
};

/// One fully wired monitored system: synthetic kernel + service catalog +
/// rate-monotonic scheduler + memory bus + (optional cache hierarchy) +
/// Memometer. Running it produces the stream of Memory Heat Maps that the
/// secure core analyzes.
///
/// Every completed map goes to one sink: the collector behind `trace()`,
/// or, once attached, the system's one consumer — and then the system
/// keeps no maps at all.
class System {
 public:
  using IntervalSink = std::function<void(const HeatMap&)>;

  explicit System(const SystemConfig& config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Advance the simulation; every completed monitoring interval hands its
  /// MHM to the sink.
  void run_for(SimTime duration);

  /// Make `sink` the one consumer of completed maps until detach_sink().
  /// Throws ConfigError when a consumer is already attached.
  void attach_sink(IntervalSink sink);
  /// Restore the built-in collector.
  void detach_sink() { sink_ = nullptr; }

  /// --- attack / runtime-manipulation hooks (delegate to the scheduler) ---
  void launch_task(const TaskSpec& spec) {
    scheduler_->add_task(scaled_jitter(spec), true);
  }
  void kill_task(const std::string& name) { scheduler_->kill_task(name); }
  void inject_payload(const std::string& task,
                      std::vector<std::string> services, bool kill_host) {
    scheduler_->inject_payload(task, std::move(services), kill_host);
  }
  void set_service_latency(const std::string& service, SimTime extra) {
    scheduler_->set_service_latency(service, extra);
  }
  void run_service_now(const std::string& service) {
    scheduler_->run_service_now(service);
  }
  void at(SimTime when, std::function<void()> action) {
    scheduler_->at(when, std::move(action));
  }

  /// --- accessors ---
  SimTime now() const { return scheduler_->now(); }
  /// Maps collected while no consumer was attached.
  const HeatMapTrace& trace() const { return trace_; }
  /// Move the collected maps out and clear them.
  HeatMapTrace take_trace() { return std::exchange(trace_, {}); }
  const KernelImage& kernel() const { return kernel_; }
  const ServiceCatalog& services() const { return catalog_; }
  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  const hw::Memometer& memometer() const { return *memometer_; }
  const hw::MemoryBus& bus() const { return bus_; }
  const hw::CacheModel* l1_cache() const { return l1_.get(); }
  const hw::CacheModel* l2_cache() const { return l2_.get(); }
  const SystemConfig& config() const { return config_; }

 private:
  /// Run `service` at exponential gaps of mean `mean_period`, forever.
  void schedule_background(const char* service, SimTime mean_period);

  /// Apply the config's jitter_scale to a task spec's stochastic knobs.
  TaskSpec scaled_jitter(TaskSpec spec) const;

  SystemConfig config_;
  KernelImage kernel_;
  ServiceCatalog catalog_;
  hw::MemoryBus bus_;            ///< Core-to-L1 address bus.
  hw::MemoryBus post_l1_bus_;    ///< L1 miss stream.
  hw::MemoryBus post_l2_bus_;    ///< L2 miss stream.
  std::unique_ptr<hw::CacheModel> l1_;
  std::unique_ptr<hw::CacheModel> l2_;
  std::unique_ptr<hw::Memometer> memometer_;
  std::unique_ptr<Scheduler> scheduler_;
  Rng kworker_rng_;
  HeatMapTrace trace_;
  IntervalSink sink_;  ///< Empty: the built-in collector (trace_).
};

}  // namespace mhm::sim
