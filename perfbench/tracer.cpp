#include "tracer.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

/// Per-thread stack of open span ids and the thread's tracer-local id. One
/// Tracer is live per process, so plain thread_locals suffice.
thread_local std::vector<std::uint32_t> t_open;
thread_local std::uint32_t t_thread = Tracer::kNoParent;

/// Total length of the union of [start, end) intervals.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>&
                              intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "sim", "hw", "core", "engine", "fleet", "obs", "pipeline", "idle"};
  return kNames[static_cast<std::size_t>(layer)];
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 18);
}

std::uint32_t Tracer::this_thread_locked() {
  if (t_thread == kNoParent) t_thread = next_thread_++;
  return t_thread;
}

std::uint32_t Tracer::this_thread() {
  std::lock_guard<std::mutex> lk(mu_);
  return this_thread_locked();
}

std::uint32_t Tracer::open(const char* name, Layer layer, std::uint64_t group,
                           std::uint32_t parent) {
  if (!enabled_) return kNoParent;
  if (parent == kInherit) parent = t_open.empty() ? kNoParent : t_open.back();
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = parent;
    span.thread = this_thread_locked();
    span.group = group;
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    // Stamp the start last so the bookkeeping is not inside the span.
    spans_.back().start_ns = ns_since(origin_, Clock::now());
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t end = ns_since(origin_, Clock::now());
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[id].end_ns = end;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

Attribution Tracer::attribute(Clock::time_point begin, Clock::time_point end,
                              std::uint32_t main_thread) const {
  Attribution out;
  const std::int64_t b = ns_since(origin_, begin);
  const std::int64_t e = ns_since(origin_, end);
  out.wall_s = static_cast<double>(e - b) * 1e-9;
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::uint32_t>> children(spans_.size());
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != kNoParent && s.parent < spans_.size()) {
      children[s.parent].push_back(i);
    }
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < b || s.start_ns >= e || s.end_ns < s.start_ns) continue;
    cover.clear();
    for (const std::uint32_t c : children[i]) {
      const Span& cs = spans_[c];
      const std::int64_t cs0 = std::max(cs.start_ns, s.start_ns);
      const std::int64_t cs1 = std::min(cs.end_ns, s.end_ns);
      if (cs1 > cs0) cover.emplace_back(cs0, cs1);
    }
    const std::int64_t self = (s.end_ns - s.start_ns) - union_length(cover);
    out.self_s[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(self) * 1e-9;
    if (s.parent == kNoParent && s.thread == main_thread) {
      roots.emplace_back(s.start_ns, std::min(s.end_ns, e));
    }
  }
  out.unattributed_s =
      static_cast<double>((e - b) - union_length(roots)) * 1e-9;
  return out;
}

bool Tracer::export_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"group\":%llu}}%s\n",
                 s.name, layer_name(s.layer), s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.group),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
