#pragma once

// Shared helpers of the benchmark: clocks, order statistics, process
// memory, output digests and the per-run result record.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The lowest median (or mean) over consecutive windows of `window`
/// samples, in time order; over all samples when there are fewer. The
/// benchmark shares its cores with other guests, whose load slows every
/// instruction by up to a factor of two for seconds at a time, and only
/// ever slows it: the least-disturbed window of a run is the program's
/// own cost, and repeats from run to run where the whole-run median does
/// not. Slow tails stay in the whole-run figures the runs also print.
double lowest_window_median(const std::vector<double>& samples,
                            std::size_t window);
double lowest_window_mean(const std::vector<double>& samples,
                          std::size_t window);

/// Moves the calling thread from one CPU the process may use to the next,
/// and gives it all of them back when it goes out of scope. Another guest
/// of the host can slow one vCPU for a whole run while the others run
/// free; a single-threaded phase that visits each of them in turn has
/// undisturbed windows for lowest_window_* to find. Create it only around
/// single-threaded code: a pool thread started while the mask is narrowed
/// would inherit it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
};

/// Peak and current resident set of this process (VmHWM / VmRSS), bytes.
std::size_t peak_rss_bytes();
std::size_t rss_bytes();
/// Share of all CPU time the hypervisor gave to other guests (the "steal"
/// column of /proc/stat) between two readings, in percent. Runs with high
/// steal measured a busy host, not the program.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
CpuTimes cpu_times();
double steal_pct(const CpuTimes& from, const CpuTimes& to);

/// Return freed heap pages to the kernel so an RSS delta measures one
/// construction, not recycled arena pages.
void trim_heap();

/// 64-bit FNV-1a over a byte string, printed as 16 hex digits.
class Digest {
 public:
  void add(const void* data, std::size_t n);
  void add(const std::string& s) { add(s.data(), s.size()); }
  /// Hexfloat rendering, so the digest pins every bit of the value.
  void add_double(double v);
  void add_u64(std::uint64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `e2e` goes into the final JSON line
/// of an untraced run, `layer` into that of a traced run; `info` holds
/// workload-specific figures that are printed but not bounded.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< Failed operations and checks.
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> info;
  std::vector<std::pair<std::string, std::string>> digests;

  /// Count one failed operation or check (the first few are printed).
  void fail(const std::string& why);
};

/// Options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = ".";  ///< Trace exports and incident bundles.
  /// Model file monitor and fleet deploy (made on first use).
  std::string model_path;
};

}  // namespace perfbench
