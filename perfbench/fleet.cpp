// Workload `fleet`: open loop over 2,048 device streams. One round (one
// interval per device) is due every 10 ms; scoring runs on nproc - 1
// threads, the calling thread included. Beside it one scraper connection
// issues GET /fleet and GET /metrics alternately at 50 Hz against
// obs::MonitorServer on an ephemeral loopback port. Batch scoring, observer
// scatter and the aggregator fold do almost all the work; the simulator
// runs only while the runner is built. The scrapes read aggregated state
// while scoring writes it, so a fold or lock change that helps one side and
// costs the other shows here.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <thread>

#include "common/parallel.hpp"
#include "fleet/runner.hpp"
#include "obs/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace prof = mhm::obs::prof;

constexpr std::size_t kDevices = 2048;
constexpr auto kRoundPeriod = std::chrono::milliseconds(10);
constexpr auto kScrapePeriod = std::chrono::milliseconds(20);
constexpr double kDeadlineMs = 10.0;
/// Untimed rounds before the paced ones, while scoring and observer
/// buffers reach their high-water marks: four health-fold periods.
constexpr std::size_t kWarmupRounds = 32;
/// Window of the bounded round figures (util.hpp, lowest_window_median):
/// one second of paced rounds.
constexpr std::size_t kRoundWindow = 100;

mhm::fleet::FleetSpec fleet_spec(std::uint64_t seed, std::size_t rounds) {
  mhm::fleet::FleetSpec spec;
  spec.devices = kDevices;
  spec.intervals = kWarmupRounds + rounds;
  spec.seed = seed;
  mhm::fleet::ArchetypeSpec steady;
  steady.name = "steady";
  steady.weight = 0.8;
  spec.archetypes.push_back(steady);
  mhm::fleet::ArchetypeSpec bursty;
  bursty.name = "bursty";
  bursty.weight = 0.1;
  bursty.jitter_scale = 2.0;
  spec.archetypes.push_back(bursty);
  mhm::fleet::ArchetypeSpec attacked;
  attacked.name = "shellcode";
  attacked.weight = 0.1;
  attacked.attack = "shellcode";
  attacked.trigger_interval = kWarmupRounds + rounds / 2;
  spec.archetypes.push_back(attacked);
  return spec;
}

// --- minimal JSON syntax check for the /fleet body --------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    ws();
    if (!value(0)) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool lit(const char* w) {
    const std::size_t n = std::char_traits<char>::length(w);
    if (s_.compare(i_, n, w) != 0) return false;
    i_ += n;
    return true;
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      const char c = s_[i_];
      if (c == '\\') {
        ++i_;
      } else if (c == '"') {
        ++i_;
        return true;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start &&
           std::isdigit(static_cast<unsigned char>(s_[i_ - 1]));
  }
  bool value(int depth) {
    if (depth > 64 || i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == close) {
        ++i_;
        return true;
      }
      for (;;) {
        ws();
        if (c == '{') {
          if (!string()) return false;
          ws();
          if (i_ >= s_.size() || s_[i_++] != ':') return false;
          ws();
        }
        if (!value(depth + 1)) return false;
        ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') {
          ++i_;
          continue;
        }
        if (s_[i_] != close) return false;
        ++i_;
        return true;
      }
    }
    if (c == '"') return string();
    if (lit("true") || lit("false") || lit("null")) return true;
    return number();
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// --- scraper ----------------------------------------------------------------

struct HttpReply {
  int status = 0;
  std::string body;
};

/// One GET on a fresh loopback connection (the server serves one request
/// per connection). Status 0 means the exchange itself failed.
HttpReply http_get(std::uint16_t port, const char* path) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string req = std::string("GET ") + path +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Connection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[16384];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        raw.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos ||
      raw.size() < 12) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

struct ScrapeStats {
  std::vector<double> latency_ms;  ///< From due time, every scrape.
  std::vector<double> http_us;     ///< /fleet scrapes: latency - render.
  std::vector<double> json_us;     ///< /fleet renders on the server thread.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

/// The server-side /fleet provider and the scraper share these: the
/// scraper publishes the span of the scrape in flight, the provider
/// records its render time into `last_render_ns`.
struct ScrapeLink {
  std::atomic<std::uint32_t> scrape_span{Tracer::kNoParent};
  std::atomic<std::int64_t> last_render_ns{-1};
};

void scrape_loop(std::uint16_t port, Clock::time_point t0,
                 Clock::time_point end, ScrapeLink& link, Tracer& tracer,
                 ScrapeStats& out) {
  for (std::uint64_t j = 0;; ++j) {
    const Clock::time_point due = t0 + j * kScrapePeriod;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    const bool fleet = j % 2 == 0;
    link.last_render_ns.store(-1);
    HttpReply reply;
    {
      Tracer::Scope s(tracer, fleet ? "obs.GET /fleet" : "obs.GET /metrics",
                      Layer::kObs, j);
      link.scrape_span.store(s.id());
      reply = http_get(port, fleet ? "/fleet" : "/metrics");
    }
    const auto done = Clock::now();
    const double ms = seconds_between(due, done) * 1e3;
    ++out.attempted;
    out.latency_ms.push_back(ms);
    std::string error;
    if (reply.status != 200) {
      error = "HTTP status " + std::to_string(reply.status);
    } else if (fleet) {
      if (!JsonChecker(reply.body).valid()) {
        error = "/fleet body is not valid JSON";
      } else if (reply.body.find("\"devices\":" + std::to_string(kDevices) +
                                 ",") == std::string::npos) {
        error = "/fleet does not name 2048 devices";
      }
      const std::int64_t render = link.last_render_ns.load();
      if (render >= 0) {
        out.json_us.push_back(static_cast<double>(render) * 1e-3);
        out.http_us.push_back(ms * 1e3 - static_cast<double>(render) * 1e-3);
      }
    } else if (reply.body.find("# TYPE") == std::string::npos) {
      error = "/metrics has no Prometheus series";
    }
    if (!error.empty()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = error;
    }
  }
}

// --- one paced phase ----------------------------------------------------------

struct Fleet {
  std::unique_ptr<mhm::fleet::FleetRunner> runner;
  /// Its /fleet provider reads `runner`, so it is stopped first.
  std::unique_ptr<mhm::obs::MonitorServer> server;
  std::size_t rss_delta = 0;

  void reset() {
    server.reset();
    runner.reset();
  }
};

Fleet build_fleet(const mhm::fleet::FleetSpec& spec,
                  const std::shared_ptr<const mhm::ModelSnapshot>& model,
                  ScrapeLink& link, Tracer& tracer) {
  Fleet f;
  trim_heap();
  const std::size_t rss0 = rss_bytes();
  f.runner = std::make_unique<mhm::fleet::FleetRunner>(spec, paper_config(),
                                                       model);
  const std::size_t rss1 = rss_bytes();
  f.rss_delta = rss1 > rss0 ? rss1 - rss0 : 0;
  f.server = std::make_unique<mhm::obs::MonitorServer>();
  if (!f.server->start(mhm::obs::MonitorServer::Options{})) {
    throw std::runtime_error("MonitorServer did not start");
  }
  mhm::fleet::FleetRunner* runner = f.runner.get();
  f.server->set_fleet([runner, &link, &tracer] {
    const auto t0 = Clock::now();
    std::string body;
    {
      Tracer::Scope s(tracer, "fleet.FleetRunner::json", Layer::kFleet, 0,
                      link.scrape_span.load());
      body = runner->json();
    }
    link.last_render_ns.store(ns_since(t0, Clock::now()));
    return body;
  });
  return f;
}

struct Phase {
  std::uint64_t trigger_round = 0;  ///< Spec round index of the attack.
  std::vector<double> lag_ms;
  std::vector<double> busy_ms;
  std::vector<double> refresh_busy_ms;
  std::vector<double> pre_busy_ms;
  std::vector<double> post_busy_ms;
  std::vector<double> late_ms;  ///< Pacer wake-up minus due time.
  std::uint64_t late_rounds = 0;
  std::uint64_t failed_rounds = 0;
  ScrapeStats scrapes;
  StageTotals stages;
  std::string digest;
  mhm::fleet::FleetSnapshot snapshot;
};

std::string snapshot_digest(const mhm::fleet::FleetSnapshot& s) {
  Digest d;
  d.add_u64(s.devices);
  d.add_u64(s.shards);
  d.add_u64(s.intervals);
  d.add_u64(s.alarms);
  d.add_u64(s.model_version);
  d.add_u64(s.devices_ok);
  d.add_u64(s.devices_drifting);
  d.add_u64(s.devices_miscalibrated);
  for (const auto& t : s.top) {
    d.add_u64(t.device);
    d.add(t.archetype);
    d.add_double(t.severity);
    d.add_u64(t.alarms);
    d.add_u64(static_cast<std::uint64_t>(t.status));
  }
  for (const auto& g : s.incident_groups) {
    d.add_u64(g.first_interval);
    d.add_u64(g.last_interval);
    d.add_u64(g.devices);
    d.add_u64(g.marks);
    for (const auto& a : g.archetypes) d.add(a);
  }
  return d.hex();
}

void run_phase(Fleet& fleet, const mhm::fleet::FleetSpec& spec,
               std::size_t rounds, ScrapeLink& link, Tracer& tracer,
               Phase& ph, Result& result) {
  mhm::fleet::FleetRunner& runner = *fleet.runner;
  ph.trigger_round = spec.archetypes.back().trigger_interval;
  runner.run_rounds(kWarmupRounds);
  prof::reset();

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point end = t0 + rounds * kRoundPeriod;
  std::jthread scraper(scrape_loop, fleet.server->port(), t0, end,
                       std::ref(link), std::ref(tracer),
                       std::ref(ph.scrapes));
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::uint64_t round = kWarmupRounds + i;
    const Clock::time_point due = t0 + i * kRoundPeriod;
    {
      Tracer::Scope s(tracer, "pacer.sleep_until", Layer::kIdle, round);
      std::this_thread::sleep_until(due);
    }
    const auto wake = Clock::now();
    bool ok = true;
    try {
      Tracer::Scope s(tracer, "fleet.FleetRunner::run_rounds", Layer::kFleet,
                      round);
      ok = runner.run_rounds(1) == kDevices;
    } catch (const std::exception&) {
      ok = false;
    }
    const auto done = Clock::now();
    const double busy = seconds_between(wake, done) * 1e3;
    const double lag = seconds_between(due, done) * 1e3;
    ph.late_ms.push_back(std::max(0.0, seconds_between(due, wake) * 1e3));
    ph.busy_ms.push_back(busy);
    ph.lag_ms.push_back(lag);
    if ((round + 1) % spec.health_refresh == 0 || round + 1 == spec.intervals) {
      ph.refresh_busy_ms.push_back(busy);
    } else if (round < ph.trigger_round) {
      ph.pre_busy_ms.push_back(busy);
    } else {
      ph.post_busy_ms.push_back(busy);
    }
    ++result.attempted;
    if (!ok) {
      ++ph.failed_rounds;
      result.fail("round " + std::to_string(round) + " did not score");
    } else if (lag > kDeadlineMs) {
      ++ph.late_rounds;
    }
  }
  scraper.join();
  ph.stages.take();
  result.attempted += ph.scrapes.attempted;
  for (std::uint64_t k = 0; k < ph.scrapes.failed; ++k) {
    result.fail("scrape: " + ph.scrapes.first_error);
  }
  ph.snapshot = runner.aggregator().snapshot();
  ph.digest = snapshot_digest(ph.snapshot);
  if (ph.snapshot.intervals != kDevices * (kWarmupRounds + rounds)) {
    result.fail("aggregator counted the wrong number of intervals");
  }
}

}  // namespace

Result run_fleet(const RunOptions& options, Tracer& tracer) {
  Result result;
  const auto rounds = static_cast<std::size_t>(
      options.seconds * (tracer.enabled() ? 0.5 : 1.0) * 100.0);
  const mhm::fleet::FleetSpec spec = fleet_spec(options.seed, rounds);
  ScrapeLink link;
  const std::size_t scoring_threads = std::max<std::size_t>(
      1, host_threads() - 1);

  // Set-up, the fleet's cold start: load the deployed model, build the
  // runner (which simulates each archetype once) and start the monitoring
  // server. The last set-up's fleet (the run's own seed) serves the
  // untraced phase, so its /fleet renders are never traced.
  mhm::set_global_threads(scoring_threads);
  Tracer off(false);
  std::vector<double> setup_s;
  std::shared_ptr<const mhm::ModelSnapshot> model;
  Fleet fleet;
  for (int k = 0; k < kFleetSetups; ++k) {
    fleet.reset();
    model.reset();
    const auto t0 = Clock::now();
    model = load_deployed_model(options.model_path);
    fleet = build_fleet(
        fleet_spec(setup_seed(options.seed, k, kFleetSetups), rounds), model,
        link, off);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::size_t session_bytes = fleet.rss_delta / kDevices;

  Phase untraced;
  if (tracer.enabled()) {
    run_phase(fleet, spec, rounds, link, off, untraced, result);
    fleet.reset();
    fleet = build_fleet(spec, model, link, tracer);
  }
  tracer.this_thread();
  const auto traced_begin = Clock::now();
  Phase ph;
  run_phase(fleet, spec, rounds, link, tracer, ph, result);
  const auto traced_end = Clock::now();
  fleet.server->stop();
  if (tracer.enabled() && untraced.digest != ph.digest) {
    result.fail("traced fleet state diverged from the untraced phase");
  }
  result.digests.push_back({"fleet_snapshot", ph.digest});

  const double device_intervals = static_cast<double>(kDevices * rounds);
  // Busy time of a typical round: the median of each second of rounds is
  // robust to the rounds a host stall stretched, which show in the lag
  // tail instead, and the lowest of them to a slowed host (util.hpp).
  const auto round_ms_of = [](const Phase& p) {
    return lowest_window_median(p.busy_ms, kRoundWindow);
  };
  const double round_ms = round_ms_of(ph);
  const double rate = static_cast<double>(kDevices) * 1e3 / round_ms;
  // A device's map is handed over when its round starts and its verdict is
  // out when the round completes, so the verdict latency is the round's
  // busy time. The lag from the due time adds the wait behind earlier late
  // rounds; it grows without limit whenever a slow host pushes a round past
  // the period, so it is reported, not bounded (round_lag_*).
  result.e2e = {
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1048576.0,
       "MB"},
      {"intervals_per_s", rate, "1/s"},
      {"verdict_p50_us", 1e3 * round_ms, "us"},
  };
  result.info.insert(result.info.end(), {
      {"run_verdict_p50_us", 1e3 * quantile(ph.busy_ms, 0.5), "us"},
      {"verdict_p99_us", 1e3 * quantile(ph.busy_ms, 0.99), "us"},
      {"round_lag_p50_ms", quantile(ph.lag_ms, 0.5), "ms"},
      {"round_lag_p99_ms", quantile(ph.lag_ms, 0.99), "ms"},
      {"scrape_p50_ms", quantile(ph.scrapes.latency_ms, 0.5), "ms"},
      {"scrape_p99_ms", quantile(ph.scrapes.latency_ms, 0.99), "ms"},
      {"deadline_miss_pct",
       100.0 * static_cast<double>(ph.late_rounds + ph.failed_rounds) /
           static_cast<double>(rounds),
       "%"},
      {"rounds", static_cast<double>(rounds), "count"},
      {"scrapes", static_cast<double>(ph.scrapes.attempted), "count"},
      {"alarms", static_cast<double>(ph.snapshot.alarms), "count"},
  });
  if (!tracer.enabled()) return result;

  using prof::Stage;
  const double n = device_intervals;
  result.layer = {
      {"fleet.round_busy_p50_ms", quantile(ph.busy_ms, 0.5), "ms"},
      {"fleet.round_busy_p99_ms", quantile(ph.busy_ms, 0.99), "ms"},
      {"fleet.refresh_round_busy_ms", median(ph.refresh_busy_ms), "ms"},
      {"fleet.pre_trigger_round_busy_ms", median(ph.pre_busy_ms), "ms"},
      {"fleet.post_trigger_round_busy_ms", median(ph.post_busy_ms), "ms"},
      {"fleet.gen_late_p50_ms", quantile(ph.late_ms, 0.5), "ms"},
      {"fleet.gen_late_max_ms", quantile(ph.late_ms, 1.0), "ms"},
      {"fleet.json_us", median(ph.scrapes.json_us), "us"},
      {"obs.http_us", median(ph.scrapes.http_us), "us"},
      {"fleet.session_bytes", static_cast<double>(session_bytes), "B"},
      {"fleet.shards", static_cast<double>(ph.snapshot.shards), "count"},
      {"fleet.alarms", static_cast<double>(ph.snapshot.alarms), "count"},
      {"fleet.incident_groups",
       static_cast<double>(ph.snapshot.incident_groups.size()), "count"},
      {"prof.score.project_us",
       1e6 * ph.stages.per(Stage::kScoreProject, n), "us"},
      {"prof.score.gmm_us", 1e6 * ph.stages.per(Stage::kScoreGmm, n), "us"},
      {"prof.score.spe_us", 1e6 * ph.stages.per(Stage::kScoreSpe, n), "us"},
      {"prof.score.observe_us",
       1e6 * ph.stages.per(Stage::kScoreObserve, n), "us"},
      {"prof.shard.gather_us",
       1e6 * ph.stages.per(Stage::kShardGather, n), "us"},
      {"prof.shard.scatter_us",
       1e6 * ph.stages.per(Stage::kShardScatter, n), "us"},
  };
  const double base =
      static_cast<double>(kDevices) * 1e3 / round_ms_of(untraced);
  add_attribution(result, tracer.attribute(traced_begin, traced_end),
                  100.0 * (base - rate) / base);
  return result;
}

}  // namespace perfbench
