/// \file serve_mixed.cpp
/// The `serve_mixed` workload: the shipped dominod, driven closed-loop over a
/// UNIX socket by one client connection per daemon worker (dominod runs one
/// worker per hardware thread), at most four.  Requests carry inline BLIF, as
/// CAD scripts send it, and come in three classes: `hot` exact repeats,
/// `restage` clock/mode changes on a warm circuit, and `cold` first submits
/// of fresh circuits.  The mix of the three is an assumption (see kHotKeys).

#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blif/blif.hpp"
#include "common.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

using dominosyn::BenchSpec;
using dominosyn::Client;
using dominosyn::FlowOptions;
using dominosyn::FlowReport;
using dominosyn::FlowSession;
using dominosyn::PhaseMode;
namespace protocol = dominosyn::protocol;

// -- circuits -----------------------------------------------------------------------

/// Every circuit is a re-draw of one of the paper's public-domain shapes
/// (paper_suite(): PI/PO counts, gate budget and generator knobs kept, the
/// generator seed drawn from the workload seed).  Cold submits cycle through
/// frg1, apex7 and x1, so the cold median falls on apex7 draws; the warm
/// keys are apex7 draws too.  x3 is left out: its draws abandon the global
/// BDD and take seconds per cold submit.
constexpr const char* kColdShapes[] = {"frg1", "apex7", "x1"};
constexpr const char* kWarmShape = "apex7";
constexpr std::size_t kClockSteps = 8;
/// Cold circuits whose MA/MP pair feeds the quality figures.
constexpr std::size_t kQualityColds = 20;

/// BLIF text of a draw of the paper circuit `shape`, its model named `key`
/// (the cache key).
std::string circuit_body(const char* shape, std::uint64_t seed, std::uint64_t draw,
                         const std::string& key) {
  BenchSpec spec = dominosyn::paper_spec(shape);
  spec.name = key;
  return dominosyn::blif::write_string(dominosyn::generate_benchmark(redraw(spec, seed, draw)));
}

// -- traffic --------------------------------------------------------------------------

enum Class : std::uint8_t { kHot, kRestage, kCold };
constexpr const char* kClassNames[] = {"hot", "restage", "cold"};

/// The request mix, per block: an assumption, not a measurement (nothing in
/// the repo records real traffic; README.md, "Traffic mix", says how these
/// counts were chosen).  Each hot key is repeated kHotPerKey times, each
/// restage key restaged kRestagePerKey times, and one cold submit closes the
/// block.  wall_s weights each class by its count here, so a change to the
/// traffic is an edit of these constants alone.
constexpr std::size_t kHotKeys = 3;
constexpr std::size_t kHotPerKey = 8;
constexpr std::size_t kRestageKeys = 3;
constexpr std::size_t kRestagePerKey = 3;
constexpr std::size_t kPerBlock[] = {kHotKeys * kHotPerKey, kRestageKeys * kRestagePerKey, 1};

struct Request {
  Class cls = kHot;
  std::string key;
  PhaseMode mode = PhaseMode::kMinPower;
  double clock = 0.0;
  std::size_t block = 0;
  std::shared_ptr<const std::string> body;

  [[nodiscard]] std::string command() const {
    std::string line = "submit blif=inline mode=";
    line += mode == PhaseMode::kMinArea ? "ma" : "mp";
    if (clock > 0.0) line += " clock=" + format_number(clock);
    return line;
  }
};

struct Served {
  Request request;
  double rtt_ms = 0.0;
  std::string raw;  ///< the response line; empty when the transport failed
};

struct WarmKey {
  std::string key;
  std::shared_ptr<const std::string> body;
  double base_clock = 0.0;  ///< restage keys: MA critical delay x 1.05
  std::size_t restages = 0;
};

/// The cold circuits of blocks first_block, first_block + 1, ..., generated
/// on a helper thread a few blocks ahead of need, so no client waits on
/// circuit generation during the timed phase.
class ColdFeed {
 public:
  struct Cold {
    std::string key;
    std::shared_ptr<const std::string> body;
  };

  ColdFeed(std::uint64_t seed, std::size_t first_block) : seed_(seed) {
    for (std::size_t i = 0; i < kAhead; ++i) ready_.push_back(make(first_block + i));
    thread_ = std::jthread([this, block = first_block + kAhead](std::stop_token stop) mutable {
      while (true) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!space_.wait(lock, stop, [this] { return ready_.size() < kAhead; })) return;
        }
        Cold cold = make(block++);
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ready_.push_back(std::move(cold));
        }
        filled_.notify_one();
      }
    });
  }

  /// The next block's cold circuit.
  Cold take() {
    std::unique_lock<std::mutex> lock(mutex_);
    filled_.wait(lock, [this] { return !ready_.empty(); });
    Cold cold = std::move(ready_.front());
    ready_.pop_front();
    space_.notify_one();
    return cold;
  }

 private:
  static constexpr std::size_t kAhead = 4;

  [[nodiscard]] Cold make(std::size_t block) const {
    std::string key = "cold" + std::to_string(block);
    auto body = std::make_shared<const std::string>(
        circuit_body(kColdShapes[block % std::size(kColdShapes)], seed_, 1000 + block, key));
    return {std::move(key), std::move(body)};
  }

  std::uint64_t seed_;
  std::mutex mutex_;
  std::condition_variable_any space_;
  std::condition_variable_any filled_;
  std::deque<Cold> ready_;  // guarded by mutex_
  std::jthread thread_;     // last: stopped and joined before the rest goes
};

/// The seeded, closed-loop request stream: whole blocks of a fixed mix,
/// handed out until the deadline passes at a block boundary.
class Schedule {
 public:
  Schedule(std::uint64_t seed, std::vector<WarmKey>& hot, std::vector<WarmKey>& restage,
           std::size_t first_block)
      : seed_(seed), hot_(hot), restage_(restage), next_block_(first_block),
        colds_(seed, first_block) {}

  void start(Clock::time_point deadline) { deadline_ = deadline; }

  /// The next request; a cold one waits until the previous cold answer is
  /// back.  With at most one cold session pinned in flight, the two spare
  /// LRU slots always hold the two newest cold sessions.
  std::optional<Request> next() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (pending_.empty()) {
        if (Clock::now() >= deadline_) return std::nullopt;
        make_block(next_block_++);
        ++blocks_;
      }
      if (pending_.front().cls != kCold) break;
      if (!cold_in_flight_) {
        cold_in_flight_ = true;
        break;
      }
      cold_done_.wait(lock);
    }
    Request request = std::move(pending_.front());
    pending_.pop_front();
    return request;
  }

  void finished(const Request& request) {
    if (request.cls != kCold) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      cold_in_flight_ = false;
    }
    cold_done_.notify_all();
  }

  [[nodiscard]] std::size_t blocks() const { return blocks_; }
  [[nodiscard]] std::size_t next_block() const { return next_block_; }

 private:
  void make_block(std::size_t block) {
    dominosyn::Rng rng(seed_ * 1000003ULL + block);
    std::vector<Request> mix;
    for (const WarmKey& key : hot_)
      for (std::size_t i = 0; i < kHotPerKey; ++i)
        mix.push_back({kHot, key.key, PhaseMode::kMinPower, 0.0, block, key.body});
    for (WarmKey& key : restage_)
      for (std::size_t i = 0; i < kRestagePerKey; ++i) {
        // Consecutive restages of a key never share a clock, so each one
        // re-maps and re-measures.
        const double step = static_cast<double>(++key.restages % kClockSteps);
        const PhaseMode mode = rng.next() % 2 ? PhaseMode::kMinArea : PhaseMode::kMinPower;
        mix.push_back({kRestage, key.key, mode, key.base_clock * (1.0 + 0.02 * step), block,
                       key.body});
      }
    for (std::size_t i = mix.size(); i > 1; --i) std::swap(mix[i - 1], mix[rng.next() % i]);
    // The cold submit closes the block: every warm key is touched between two
    // cold inserts, so the LRU (six warm keys, capacity 8) evicts cold
    // sessions, never warm ones.
    ColdFeed::Cold cold = colds_.take();
    mix.push_back({kCold, std::move(cold.key), PhaseMode::kMinPower, 0.0, block,
                   std::move(cold.body)});
    pending_.insert(pending_.end(), mix.begin(), mix.end());
  }

  std::mutex mutex_;
  std::condition_variable cold_done_;
  std::deque<Request> pending_;  // guarded by mutex_
  bool cold_in_flight_ = false;  // guarded by mutex_
  std::uint64_t seed_;
  std::vector<WarmKey>& hot_;
  std::vector<WarmKey>& restage_;
  std::size_t next_block_;
  std::size_t blocks_ = 0;
  Clock::time_point deadline_;
  ColdFeed colds_;
};

// -- daemon -----------------------------------------------------------------------

/// A dominod child process on a UNIX socket; stopped (SIGTERM, reaped) on
/// destruction at the latest.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string socket) : socket_(std::move(socket)) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    std::vector<std::string> words = {binary, "--unix", socket_};
    std::vector<char*> argv;
    for (std::string& word : words) argv.push_back(word.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + binary);
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    while (true) {
      try {
        Client client = Client::connect_unix(socket_);
        if (client.ping()) break;
      } catch (const std::exception&) {
      }
      if (Clock::now() > give_up) {
        stop();
        throw std::runtime_error("dominod did not come up on " + socket_);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Stops and reaps the daemon; returns its peak resident set, MiB.
  double stop() {
    if (pid_ <= 0) return peak_rss_mb_;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    ::unlink(socket_.c_str());
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return peak_rss_mb_;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  double peak_rss_mb_ = 0.0;
};

struct ServerStats {
  double hits = 0, misses = 0, evictions = 0, rejected = 0, degraded = 0;
};

ServerStats server_stats(const std::string& socket) {
  Client client = Client::connect_unix(socket);
  const std::string raw = client.request("stats");
  const auto get = [&raw](const char* key) { return protocol::find_number(raw, key).value_or(-1); };
  ServerStats stats;
  stats.hits = get("hits");
  stats.misses = get("misses");
  stats.evictions = get("evictions");
  stats.rejected = get("rejected_queue_full") + get("rejected_deadline") + get("rejected_shutdown");
  stats.degraded = get("degraded_responses");
  return stats;
}

/// Set-up: a fresh daemon with every warm key served once (both modes for
/// restage keys, whose MA report fixes their base clock).
std::unique_ptr<Daemon> warm_daemon(const Args& args, std::vector<WarmKey>& hot,
                                    std::vector<WarmKey>& restage, Result& result) {
  auto daemon = std::make_unique<Daemon>(
      args.dominod, args.rundir + "/serve-" + std::to_string(::getpid()) + ".sock");
  Client client = Client::connect_unix(daemon->socket());
  for (WarmKey& key : hot) {
    const auto summary = client.submit(Request{kHot, key.key, PhaseMode::kMinPower, 0.0, 0,
                                               key.body}.command(), *key.body);
    result.check(summary.ok, key.key + ": warm-up submit failed: " + summary.error);
  }
  for (WarmKey& key : restage) {
    const auto ma = client.submit(Request{kRestage, key.key, PhaseMode::kMinArea, 0.0, 0,
                                          key.body}.command(), *key.body);
    const auto mp = client.submit(Request{kRestage, key.key, PhaseMode::kMinPower, 0.0, 0,
                                          key.body}.command(), *key.body);
    result.check(ma.ok && mp.ok, key.key + ": warm-up submit failed");
    key.base_clock = protocol::find_number(ma.raw, "critical_delay").value_or(1.0) * 1.05;
  }
  return daemon;
}

ServerStats operator-(const ServerStats& a, const ServerStats& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
          a.rejected - b.rejected, a.degraded - b.degraded};
}

ServerStats operator+(const ServerStats& a, const ServerStats& b) {
  return {a.hits + b.hits, a.misses + b.misses, a.evictions + b.evictions,
          a.rejected + b.rejected, a.degraded + b.degraded};
}

struct Phase {
  std::vector<Served> served;
  std::size_t blocks = 0;
  double seconds = 0.0;
  ServerStats stats;  ///< delta over the phase
  std::uint64_t retries = 0;

  void merge(Phase&& other) {
    served.insert(served.end(), std::make_move_iterator(other.served.begin()),
                  std::make_move_iterator(other.served.end()));
    blocks += other.blocks;
    seconds += other.seconds;
    stats = stats + other.stats;
    retries += other.retries;
  }
};

/// One connection per daemon worker (dominod's default is one worker per
/// hardware thread), at most four so a large host runs the same load.
unsigned connection_count() { return std::clamp(std::thread::hardware_concurrency(), 1u, 4u); }

Phase run_phase(const Daemon& daemon, Schedule& schedule, double seconds) {
  const ServerStats before = server_stats(daemon.socket());
  const unsigned connections = connection_count();
  std::vector<std::vector<Served>> per_thread(connections);
  std::atomic<std::uint64_t> retries{0};
  const auto start = Clock::now();
  schedule.start(start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds)));
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < connections; ++t)
      threads.emplace_back([&, t] {
        std::optional<Client> client;
        while (auto request = schedule.next()) {
          Served served{std::move(*request)};
          trace::set_request(trace::next_request_id());
          const trace::Span span("server.submit", kLayerServer);
          const auto sent = Clock::now();
          try {
            if (!client) client.emplace(Client::connect_unix(daemon.socket()));
            served.raw = client->submit(served.request.command(), *served.request.body).raw;
          } catch (const std::exception&) {
            if (client) retries += client->telemetry().retries;
            client.reset();
          }
          served.rtt_ms = ms_between(sent, Clock::now());
          schedule.finished(served.request);
          per_thread[t].push_back(std::move(served));
        }
        if (client) retries += client->telemetry().retries;
      });
  }
  Phase phase;
  phase.seconds = ms_between(start, Clock::now()) / 1e3;
  phase.blocks = schedule.blocks();
  for (auto& served : per_thread)
    phase.served.insert(phase.served.end(), std::make_move_iterator(served.begin()),
                        std::make_move_iterator(served.end()));
  phase.stats = server_stats(daemon.socket()) - before;
  phase.retries = retries.load();
  return phase;
}

// -- checks -----------------------------------------------------------------------

double stage_builds(const std::string& raw, const char* stage) {
  return protocol::find_number(raw, stage).value_or(-1);
}

void check_served(const Phase& phase, Result& result) {
  std::size_t colds = 0;
  for (const Served& served : phase.served) {
    const Request& request = served.request;
    const std::string& raw = served.raw;
    const std::string what = request.key + " (" + kClassNames[request.cls] + ")";
    const bool ok = protocol::find_bool(raw, "ok").value_or(false) &&
                    protocol::find_bool(raw, "equivalence_ok").value_or(false);
    const bool hit = protocol::find_bool(raw, "cache_hit").value_or(false);
    const auto builds = [&raw](double synth, double probs, double context, double map,
                               double measure) {
      return stage_builds(raw, "synth") == synth && stage_builds(raw, "probs") == probs &&
             stage_builds(raw, "context") == context && stage_builds(raw, "map") == map &&
             stage_builds(raw, "measure") == measure;
    };
    bool expected = false;
    switch (request.cls) {
      case kHot:
        expected = hit && builds(0, 0, 0, 0, 0) && stage_builds(raw, "assign") == 0;
        break;
      case kRestage:
        expected = hit && builds(0, 0, 0, 1, 1) && stage_builds(raw, "assign") == 0;
        break;
      case kCold:
        ++colds;
        expected = !hit && builds(1, 1, 1, 1, 1);
        break;
    }
    result.check(ok && expected, what + ": failed, or built other stages than its class");
  }
  result.check(phase.stats.misses == static_cast<double>(colds) && phase.stats.rejected == 0,
               "cache misses differ from the cold count, or requests were rejected");
}

/// The `report` object of a submit response without its `seconds` field.
std::string report_fields(const std::string& raw) {
  const std::size_t begin = raw.find("\"report\":{");
  const std::size_t end = raw.find(",\"seconds\":", begin);
  if (begin == std::string::npos || end == std::string::npos) return {};
  return raw.substr(begin, end - begin);
}

struct ReplayJob {
  const Served* first = nullptr;  ///< the key's first request (owns the body)
  std::vector<const Served*> distinct;  ///< one per distinct (mode, clock)
  bool quality = false;
};

/// Re-computes every distinct served (circuit, options) in process and checks
/// that the report matches the served one field for field.
void replay(const Phase& phase, FlowCounters& counters, Quality& quality,
            FlowSession::Stats& builds, Result& result) {
  std::vector<ReplayJob> jobs;
  std::map<std::string, std::size_t> by_key;
  std::size_t quality_colds = 0;
  std::vector<const Served*> ordered;
  for (const Served& served : phase.served) ordered.push_back(&served);
  std::sort(ordered.begin(), ordered.end(), [](const Served* a, const Served* b) {
    return a->request.block < b->request.block;
  });
  for (const Served* served : ordered) {
    const auto [it, inserted] = by_key.emplace(served->request.key, jobs.size());
    if (inserted) {
      jobs.push_back({served, {}, false});
      if (served->request.cls == kCold && quality_colds < kQualityColds) {
        jobs.back().quality = true;
        ++quality_colds;
      }
    }
    ReplayJob& job = jobs[it->second];
    const bool seen = std::any_of(job.distinct.begin(), job.distinct.end(), [&](const Served* s) {
      return s->request.mode == served->request.mode && s->request.clock == served->request.clock;
    });
    if (!seen) job.distinct.push_back(served);
  }

  std::mutex mutex;  // guards counters, quality, builds and result
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      const ReplayJob& job = jobs[i];
      trace::set_request(trace::next_request_id());
      dominosyn::Network net;
      {
        const trace::Span span("blif.read_string", kLayerBlif);
        net = dominosyn::blif::read_string(*job.first->request.body);
      }
      FlowSession session(net, FlowOptions{});
      FlowCounters local;
      std::vector<std::pair<std::string, bool>> checks;
      std::optional<FlowReport> mp_report;
      for (const Served* served : job.distinct) {
        FlowOptions options;
        options.mode = served->request.mode;
        options.clock_period = served->request.clock;
        session.set_options(options);
        const trace::Span span("request.replay", kLayerFlow);
        dominosyn::ServerResponse response;
        response.report = staged_report(session, served->request.mode, local);
        if (served->request.mode == PhaseMode::kMinPower && served->request.clock == 0.0)
          mp_report = response.report;
        const bool same =
            report_fields(protocol::format_response(response)) == report_fields(served->raw);
        checks.emplace_back(job.first->request.key + ": served report differs from in-process",
                            same && !report_fields(served->raw).empty());
      }
      std::optional<FlowReport> ma_report;
      if (job.quality && mp_report) {
        FlowOptions options;
        options.mode = PhaseMode::kMinArea;
        session.set_options(options);
        ma_report = staged_report(session, PhaseMode::kMinArea, local);
        checks.emplace_back(job.first->request.key + ": MP estimate above MA",
                            mp_report->est_power <= ma_report->est_power);
      }
      const std::lock_guard<std::mutex> lock(mutex);
      for (const auto& [what, ok] : checks) result.check(ok, what);
      if (ma_report) quality.add(*ma_report, *mp_report);
      builds += session.stats();
      counters += local;
    }
  };
  std::vector<std::jthread> pool;
  for (unsigned t = 0; t < connection_count(); ++t) pool.emplace_back(worker);
}

/// Round trips by class, each times `factor`, added to `latencies`.
void add_latencies(const Phase& phase, double factor, Latencies& latencies) {
  for (const Served& served : phase.served) {
    std::vector<double>& sample = served.request.cls == kHot       ? latencies.hot_ms
                                  : served.request.cls == kRestage ? latencies.restage_ms
                                                                   : latencies.cold_ms;
    sample.push_back(served.rtt_ms * factor);
  }
}

Latencies latencies_of(const Phase& phase) {
  Latencies latencies;
  add_latencies(phase, 1.0, latencies);
  return latencies;
}

/// wall_s: a block of the mix issued one request after another, each at its
/// class's median round trip (seconds).  The classes are weighted by their
/// counts in kPerBlock, nothing else.
double block_seconds(const Latencies& latencies) {
  return (static_cast<double>(kPerBlock[kHot]) * median(latencies.hot_ms) +
          static_cast<double>(kPerBlock[kRestage]) * median(latencies.restage_ms) +
          static_cast<double>(kPerBlock[kCold]) * median(latencies.cold_ms)) /
         1e3;
}

/// Daemon-side split from response telemetry: queue and service time, and the
/// rest of the client round trip (protocol, BLIF parse, socket); plus the
/// phase's cache and failure counters.
void server_split(const Phase& phase, LayerMetrics& layers) {
  std::vector<double> queue;
  std::vector<double> service[3], wire[3];
  for (const Served& served : phase.served) {
    const double q = protocol::find_number(served.raw, "queue_seconds").value_or(0) * 1e3;
    const double s = protocol::find_number(served.raw, "service_seconds").value_or(0) * 1e3;
    queue.push_back(q);
    service[served.request.cls].push_back(s);
    wire[served.request.cls].push_back(served.rtt_ms - q - s);
  }
  layers.queue_ms_p50 = percentile(queue, 0.50);
  layers.queue_ms_p95 = percentile(queue, 0.95);
  for (int cls = 0; cls < 3; ++cls) {
    layers.service_ms_p50[kClassNames[cls]] = median(service[cls]);
    layers.wire_ms_p50[kClassNames[cls]] = median(wire[cls]);
  }
  layers.cache_hits = phase.stats.hits;
  layers.cache_misses = phase.stats.misses;
  layers.cache_evictions = phase.stats.evictions;
  layers.rejected = phase.stats.rejected;
  layers.degraded = phase.stats.degraded;
  layers.retries = static_cast<double>(phase.retries);
}

}  // namespace

int run_serve_mixed(const Args& args, Result& result) {
  std::vector<WarmKey> hot, restage;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    const std::string key = "hot" + std::to_string(i);
    hot.push_back({key, std::make_shared<const std::string>(
                            circuit_body(kWarmShape, args.seed, 100 + i, key))});
  }
  for (std::size_t i = 0; i < kRestageKeys; ++i) {
    const std::string key = "restage" + std::to_string(i);
    restage.push_back({key, std::make_shared<const std::string>(
                                circuit_body(kWarmShape, args.seed, 200 + i, key))});
  }

  // Untraced runs report times at the reference host speed: each measurement
  // scaled by the whole probe next to it.  The daemon keeps one core per
  // connection busy, so the probe runs on as many.
  HostProbe probe(!args.trace, ProbePart::kWhole, connection_count());
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < 5; ++rep) {
    daemon.reset();
    setup_s.push_back(probe.at_reference([&] {
      return time_ms([&] { daemon = warm_daemon(args, hot, restage, result); });
    }) / 1e3);
  }

  if (!args.trace) {
    // The timed phase runs as consecutive slices with three probes after
    // each, when no request is in flight; each slice's round trips are scaled
    // by the probes since the slice before it.
    constexpr int kSlices = 10;
    Phase all;
    Latencies latencies;
    std::size_t next_block = 0;
    for (int slice = 0; slice < kSlices; ++slice) {
      Schedule schedule(args.seed, hot, restage, next_block);
      Phase phase;
      const double factor = probe.factor_around(
          [&] { phase = run_phase(*daemon, schedule, args.seconds / kSlices); }, 3);
      next_block = schedule.next_block();
      add_latencies(phase, factor, latencies);
      all.merge(std::move(phase));
    }
    check_served(all, result);
    FlowCounters counters;
    Quality quality;
    FlowSession::Stats builds;
    replay(all, counters, quality, builds, result);
    std::printf("daemon peak_rss_mb %.1f MB\n", daemon->stop());
    report_setup(result, setup_s);
    result.metric("wall_s", block_seconds(latencies), "s");
    report_latencies(latencies);
    report_probe(probe);
    quality.print();
    std::printf("blocks %zu, requests %zu, %.3f s\n", all.blocks, all.served.size(),
                all.seconds);
    return 0;
  }

  // Traced run: six phases of a third of --seconds, without and with
  // benchmark spans by turns, so the host's drift falls on both sides alike.
  constexpr int kTurns = 6;
  Phase sides[2];  // [untraced, traced]
  std::size_t next_block = 0;
  for (int turn = 0; turn < kTurns; ++turn) {
    const bool traced = turn % 2 == 1;
    trace::set_enabled(traced);
    Schedule schedule(args.seed, hot, restage, next_block);
    Phase phase = run_phase(*daemon, schedule, 2 * args.seconds / kTurns);
    next_block = schedule.next_block();
    check_served(phase, result);
    sides[traced].merge(std::move(phase));
  }
  LayerMetrics layers;
  {
    trace::set_enabled(false);
    FlowCounters ignored_counters;
    FlowSession::Stats ignored_builds;
    replay(sides[0], ignored_counters, layers.quality, ignored_builds, result);
  }
  trace::set_enabled(true);
  Quality ignored;
  replay(sides[1], layers.counters, ignored, layers.builds, result);
  trace::set_enabled(false);
  server_split(sides[1], layers);
  layers.latencies = latencies_of(sides[0]);
  std::vector<std::string> bodies;
  for (const WarmKey& key : hot) bodies.push_back(*key.body);
  layers.blif_parse_ms = blif_parse_ms(bodies);
  layers.peak_rss_mb = daemon->stop();
  const std::vector<trace::Record> records = trace::records();
  trace::write(records, args.rundir + "/spans-serve_mixed.tsv");
  layers.take_spans(records);
  layers.trace_overhead =
      block_seconds(latencies_of(sides[1])) / block_seconds(latencies_of(sides[0]));
  layers.emit(result, static_cast<double>(sides[1].blocks));
  return 0;
}

}  // namespace perfbench
