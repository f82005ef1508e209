#include "util.hpp"

#include <cmath>
#include <cstring>

#include <sched.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

template <typename Stat>
double lowest_window(const std::vector<double>& samples, std::size_t window,
                     Stat stat) {
  if (samples.size() <= window) return stat(samples.begin(), samples.end());
  double lowest = stat(samples.begin(), samples.begin() + window);
  for (std::size_t a = window; a + window <= samples.size(); a += window) {
    lowest = std::min(lowest, stat(samples.begin() + a,
                                   samples.begin() + a + window));
  }
  return lowest;
}

using Iter = std::vector<double>::const_iterator;

}  // namespace

double lowest_window_median(const std::vector<double>& samples,
                            std::size_t window) {
  return lowest_window(samples, window, [](Iter a, Iter b) {
    return median(std::vector<double>(a, b));
  });
}

double lowest_window_mean(const std::vector<double>& samples,
                          std::size_t window) {
  return lowest_window(samples, window, [](Iter a, Iter b) {
    double sum = 0.0;
    for (Iter i = a; i != b; ++i) sum += *i;
    return a == b ? 0.0 : sum / static_cast<double>(b - a);
  });
}

namespace {

std::size_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  const std::size_t len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::strtoull(line + len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::size_t peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }
std::size_t rss_bytes() { return status_kb("VmRSS:") * 1024; }

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += static_cast<double>(x);
    t.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return t;
}

double steal_pct(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? 100.0 * (to.steal - from.steal) / total : 0.0;
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void Digest::add(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_double(double v) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, "%a;", v);
  add(buf, static_cast<std::size_t>(n));
}

void Digest::add_u64(std::uint64_t v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%llu;",
                              static_cast<unsigned long long>(v));
  add(buf, static_cast<std::size_t>(n));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void Result::fail(const std::string& why) {
  ++failed;
  constexpr std::uint64_t kPrinted = 10;
  if (failed <= kPrinted) {
    std::fprintf(stderr, "perfbench: failed: %s\n", why.c_str());
  }
}

}  // namespace perfbench
