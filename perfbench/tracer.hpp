#pragma once

// In-memory span recorder for traced runs. The benchmark opens one span
// around each public call it makes into the program (the program itself is
// not instrumented by it), keeps every span in memory, and writes them out
// as Chrome trace-event JSON when the run ends. Untraced runs construct a
// disabled Tracer, whose scopes cost one branch.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

/// The program's modules, as the benchmark attributes time to them.
/// `kIdle` marks deliberate waiting (the open-loop pacer's sleeps).
enum class Layer : std::uint8_t {
  kSim,
  kHw,
  kCore,
  kEngine,
  kFleet,
  kObs,
  kPipeline,
  kIdle,
};
inline constexpr std::size_t kLayerCount = 8;
const char* layer_name(Layer layer);

struct Span {
  const char* name = "";
  Layer layer = Layer::kIdle;
  std::uint32_t parent = 0;  ///< kNoParent for a root span.
  std::uint32_t thread = 0;  ///< Small per-thread id (0 = first to record).
  std::uint64_t group = 0;   ///< Interval, round or scrape the span serves.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer self time of a traced phase.
struct Attribution {
  double self_s[kLayerCount] = {};
  double wall_s = 0.0;
  /// Share of the phase wall time on the driving thread that no root span
  /// covers: the benchmark's own glue between calls.
  double unattributed_s = 0.0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Open a span. With `parent == kInherit` the parent is the innermost span
  /// this thread has open; pass an explicit id for a span caused by work on
  /// another thread. Returns kNoParent when tracing is off.
  static constexpr std::uint32_t kInherit = 0xfffffffeu;
  std::uint32_t open(const char* name, Layer layer, std::uint64_t group,
                     std::uint32_t parent = kInherit);
  void close(std::uint32_t id);

  /// RAII wrapper for open/close.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, Layer layer, std::uint64_t group,
          std::uint32_t parent = kInherit)
        : tracer_(tracer),
          id_(tracer.enabled() ? tracer.open(name, layer, group, parent)
                               : kNoParent) {}
    ~Scope() {
      if (id_ != kNoParent) tracer_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::uint32_t id_;
  };

  /// Self time per layer over spans that start in [begin, end), and the
  /// time in that window on `main_thread` that no root span covers.
  Attribution attribute(Clock::time_point begin, Clock::time_point end,
                        std::uint32_t main_thread = 0) const;

  std::size_t span_count() const;

  /// Tracer-local id of the calling thread, assigned on first use; call it
  /// from the driving thread before any other thread records a span.
  std::uint32_t this_thread();

  /// Write every span as Chrome trace-event JSON (loadable in Perfetto).
  bool export_chrome(const std::string& path) const;

 private:
  std::uint32_t this_thread_locked();

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
  std::uint32_t next_thread_ = 0;  ///< Guarded by mu_.
};

}  // namespace perfbench
