#include "sim/system.hpp"

#include "common/error.hpp"
#include "obs/prof.hpp"

namespace mhm::sim {

SystemConfig SystemConfig::paper_default(std::uint64_t seed) {
  SystemConfig cfg;
  cfg.kernel = KernelImage::Params{};
  cfg.monitor = MhmConfig::paper_default();
  cfg.tasks = paper_task_set();
  cfg.seed = seed;
  return cfg;
}

System::System(const SystemConfig& config)
    : config_(config),
      kernel_(config.kernel),
      catalog_(kernel_, config.jitter_scale),
      kworker_rng_(Rng(config.seed).fork(0xBEEF)) {
  config_.monitor.validate();
  // Make sure the monitored region matches the synthetic kernel image.
  if (config_.monitor.base < kernel_.base() ||
      config_.monitor.base + config_.monitor.size > kernel_.text_end()) {
    throw ConfigError(
        "System: monitored region must lie inside the kernel .text segment");
  }
  if (config_.monitor.interval % Scheduler::kTickPeriod != 0) {
    throw ConfigError(
        "System: monitoring interval must be a multiple of the 1 ms tick so "
        "interval boundaries align with bus time updates");
  }

  // Wire the snoop topology (Figure 3 / §5.5 ablation).
  auto on_ready = [this](const HeatMap& map) {
    sink_ ? sink_(map) : trace_.push_back(map);
  };
  switch (config_.snoop_point) {
    case SnoopPoint::PreL1:
      memometer_ = std::make_unique<hw::Memometer>(config_.monitor, 0,
                                                   on_ready);
      bus_.attach(memometer_.get());
      break;
    case SnoopPoint::PostL1:
      memometer_ = std::make_unique<hw::Memometer>(config_.monitor, 0,
                                                   on_ready);
      post_l1_bus_.attach(memometer_.get());
      l1_ = std::make_unique<hw::CacheModel>(config_.l1, &post_l1_bus_);
      bus_.attach(l1_.get());
      break;
    case SnoopPoint::PostL2:
      memometer_ = std::make_unique<hw::Memometer>(config_.monitor, 0,
                                                   on_ready);
      post_l2_bus_.attach(memometer_.get());
      l2_ = std::make_unique<hw::CacheModel>(config_.l2, &post_l2_bus_);
      post_l1_bus_.attach(l2_.get());
      l1_ = std::make_unique<hw::CacheModel>(config_.l1, &post_l1_bus_);
      bus_.attach(l1_.get());
      break;
  }

  scheduler_ = std::make_unique<Scheduler>(catalog_, bus_, Rng(config.seed));
  for (const auto& spec : config_.tasks) {
    scheduler_->add_task(scaled_jitter(spec));
  }
  if (config_.kworker_mean_period > 0) {
    schedule_background("kworker", config_.kworker_mean_period);
  }
  if (config_.device_irq_mean_period > 0) {
    schedule_background("irq_dispatch", config_.device_irq_mean_period);
  }
}

TaskSpec System::scaled_jitter(TaskSpec spec) const {
  spec.exec_sigma *= config_.jitter_scale;
  return spec;
}

System::~System() = default;

void System::schedule_background(const char* service, SimTime mean_period) {
  // Background kernel activity (kworker housekeeping, sporadic peripheral
  // interrupts) fires at exponentially distributed gaps; each occurrence
  // runs its kernel path and re-arms itself.
  const auto gap = static_cast<SimTime>(std::max(
      1.0, kworker_rng_.exponential(1.0 / static_cast<double>(mean_period))));
  scheduler_->at(scheduler_->now() + gap, [this, service, mean_period] {
    scheduler_->run_service_now(service);
    schedule_background(service, mean_period);
  });
}

void System::run_for(SimTime duration) {
  PROF_ZONE(kSimSchedule);
  scheduler_->run_until(scheduler_->now() + duration);
}

void System::attach_sink(IntervalSink sink) {
  if (sink_) throw ConfigError("System: a consumer is already attached");
  sink_ = std::move(sink);
}

}  // namespace mhm::sim
