#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "blif/blif.hpp"
#include "util/rng.hpp"

namespace perfbench {

// -- spans --------------------------------------------------------------------

namespace trace {
namespace {

struct Store {
  std::mutex mutex;
  std::vector<Record> records;  // guarded by mutex
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_request{1};
};

Store& store() {
  static Store instance;
  return instance;
}

thread_local std::int64_t t_parent = -1;
thread_local std::uint64_t t_request = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_enabled(bool enabled) { store().enabled.store(enabled); }
bool enabled() { return store().enabled.load(std::memory_order_relaxed); }
void set_request(std::uint64_t request) { t_request = request; }
std::uint64_t next_request_id() { return store().next_request.fetch_add(1); }

Span::Span(const char* name, const char* layer) {
  if (!enabled()) return;
  Record record;
  record.name = name;
  record.layer = layer;
  record.parent = t_parent;
  record.request = t_request;
  Store& s = store();
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    index_ = static_cast<std::int64_t>(s.records.size());
    s.records.push_back(record);
  }
  saved_parent_ = t_parent;
  t_parent = index_;
  // Taken last so the bookkeeping above is outside the measured interval.
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.records[static_cast<std::size_t>(index_)].start_ns = start;
}

Span::~Span() {
  if (index_ < 0) return;
  const std::int64_t end = now_ns();
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.records[static_cast<std::size_t>(index_)].end_ns = end;
  t_parent = saved_parent_;
}

std::vector<Record> records() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.records;
}

double total_ms(const std::vector<Record>& records, std::string_view name) {
  double total = 0.0;
  for (const Record& record : records)
    if (name == record.name) total += static_cast<double>(record.end_ns - record.start_ns) / 1e6;
  return total;
}

std::map<std::string, double> layer_self_ms(const std::vector<Record>& records) {
  std::vector<double> self(records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    self[i] = static_cast<double>(records[i].end_ns - records[i].start_ns) / 1e6;
  for (const Record& record : records)
    if (record.parent >= 0)
      self[static_cast<std::size_t>(record.parent)] -=
          static_cast<double>(record.end_ns - record.start_ns) / 1e6;
  std::map<std::string, double> layers;
  for (const char* layer : kLayers) layers[layer] = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) layers[records[i].layer] += self[i];
  return layers;
}

void write(const std::vector<Record>& records, const std::string& path) {
  std::ofstream out(path);
  out << "id\tparent\trequest\tlayer\tname\tstart_us\tdur_us\n";
  const std::int64_t origin = records.empty() ? 0 : records.front().start_ns;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << i << '\t' << r.parent << '\t' << r.request << '\t' << r.layer << '\t' << r.name
        << '\t' << (r.start_ns - origin) / 1000 << '\t' << (r.end_ns - r.start_ns) / 1000
        << '\n';
  }
}

}  // namespace trace

// -- result document ------------------------------------------------------------

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.emplace_back(name, Metric{value, unit});
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, end.ptr);
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(metric.value) + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

// -- statistics -----------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

void RequestTimes::add(std::map<std::string, std::vector<double>>& times,
                       const std::string& request, double ms) {
  times[request].push_back(ms);
}

Latencies RequestTimes::latencies() const {
  Latencies latencies;
  for (const auto& [request, ms] : hot) latencies.hot_ms.push_back(median(ms));
  for (const auto& [request, ms] : restage) latencies.restage_ms.push_back(median(ms));
  for (const auto& [request, ms] : cold) latencies.cold_ms.push_back(median(ms));
  return latencies;
}

void report_latencies(const Latencies& latencies) {
  const auto print = [&](const char* name, const std::vector<double>& sample, double q) {
    std::printf("%-16s %12.4f ms  (n=%zu)\n", name, percentile(sample, q), sample.size());
  };
  print("hot_p50_ms", latencies.hot_ms, 0.50);
  print("hot_p99_ms", latencies.hot_ms, 0.99);
  print("restage_p50_ms", latencies.restage_ms, 0.50);
  print("restage_p95_ms", latencies.restage_ms, 0.95);
  print("cold_p50_ms", latencies.cold_ms, 0.50);
}

void report_setup(Result& result, const std::vector<double>& setup_s) {
  std::printf("set-ups:");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n");
  result.metric("setup_s", median(setup_s), "s");
}

void run_rounds(double seconds, const std::function<void(std::size_t)>& round,
                std::size_t multiple) {
  const auto start = Clock::now();
  std::printf("rounds:");
  for (std::size_t index = 0;; ++index) {
    const auto round_start = Clock::now();
    round(index);
    const double wall = ms_between(round_start, Clock::now()) / 1e3;
    std::printf(" %.3f", wall);
    if ((index + 1) % multiple == 0 && ms_between(start, Clock::now()) / 1e3 + wall > seconds)
      break;
  }
  std::printf(" s\n");
}

// -- host speed -------------------------------------------------------------------

HostProbe::HostProbe(bool enabled, ProbePart part, unsigned threads)
    : enabled_(enabled), part_(part), values_(enabled ? std::max(1u, threads) : 0) {
  if (!enabled_) return;
  constexpr std::size_t kGates = 4000;
  fanin_a_.resize(kGates);
  fanin_b_.resize(kGates);
  op_.resize(kGates);
  for (auto& values : values_) values.resize(kGates);
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (std::size_t gate = kProbeInputs; gate < kGates; ++gate) {
    fanin_a_[gate] = static_cast<std::uint32_t>(next() % gate);
    fanin_b_[gate] = static_cast<std::uint32_t>(next() % gate);
    op_[gate] = static_cast<std::uint8_t>(next() % 3);
  }
  // A full-period linear congruential step over 2^24 slots (64 MiB): one
  // cycle through every slot, in an order no prefetcher follows.
  chase_.resize(std::size_t{1} << 24);
  for (std::size_t slot = 0; slot < chase_.size(); ++slot)
    chase_[slot] = static_cast<std::uint32_t>((slot * 2862933555777941757ULL + 3037000493ULL) &
                                              (chase_.size() - 1));
  sample();  // warm the caches
  for (auto& times : samples_) times.clear();
  for (std::size_t i = 0; i + 1 < kWindow; ++i) sample();
}

void HostProbe::run(std::size_t copy, double& compute_ms, double& whole_ms) {
  constexpr int kRounds = 1000;
  constexpr int kSteps = 50000;
  std::vector<std::uint64_t>& values = values_[copy];
  static std::atomic<std::uint64_t> sink{0};
  const auto start = Clock::now();
  std::uint64_t state = 99, ones = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t input = 0; input < kProbeInputs; ++input) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      values[input] = state;
    }
    for (std::size_t gate = kProbeInputs; gate < values.size(); ++gate) {
      const std::uint64_t a = values[fanin_a_[gate]], b = values[fanin_b_[gate]];
      values[gate] = op_[gate] == 0 ? (a & b) : op_[gate] == 1 ? (a | b) : ~(a ^ b);
    }
    for (std::size_t gate = values.size() - kProbeInputs; gate < values.size(); ++gate)
      ones += static_cast<std::uint64_t>(__builtin_popcountll(values[gate]));
  }
  compute_ms = ms_between(start, Clock::now());
  std::uint32_t slot = static_cast<std::uint32_t>(copy) << 20;
  for (int step = 0; step < kSteps; ++step) slot = chase_[slot];
  sink.fetch_add(ones + slot, std::memory_order_relaxed);
  whole_ms = ms_between(start, Clock::now());
}

void HostProbe::sample() {
  if (!enabled_) return;
  std::vector<double> compute_ms(values_.size()), whole_ms(values_.size());
  {
    std::vector<std::jthread> others;
    for (std::size_t t = 1; t < values_.size(); ++t)
      others.emplace_back([&, t] { run(t, compute_ms[t], whole_ms[t]); });
    run(0, compute_ms[0], whole_ms[0]);
  }
  samples_[static_cast<std::size_t>(ProbePart::kCompute)].push_back(mean(compute_ms));
  samples_[static_cast<std::size_t>(ProbePart::kWhole)].push_back(mean(whole_ms));
}

void report_probe(const HostProbe& probe) {
  for (const ProbePart part : {ProbePart::kCompute, ProbePart::kWhole}) {
    const std::vector<double>& times = probe.samples(part);
    std::printf("host probe %-7s %8.3f ms median, %8.3f ms best, reference %4.1f ms (n=%zu)\n",
                part == ProbePart::kCompute ? "compute" : "whole", median(times),
                percentile(times, 0.0), HostProbe::reference(part), times.size());
  }
}

// -- circuits and resources -----------------------------------------------------

dominosyn::BenchSpec redraw(dominosyn::BenchSpec spec, std::uint64_t seed, std::uint64_t draw) {
  std::uint64_t state = seed * 0x100000001b3ULL + draw;
  state ^= dominosyn::splitmix64(state);
  spec.seed = dominosyn::splitmix64(state) ^ spec.seed;
  return spec;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double blif_parse_ms(const std::vector<std::string>& bodies, int repeats) {
  std::vector<double> per_body;
  for (const std::string& body : bodies) {
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i)
      times.push_back(trace::timed("blif.read_string", kLayerBlif,
                                   [&] { (void)dominosyn::blif::read_string(body); }));
    per_body.push_back(median(times));
  }
  return mean(per_body);
}

// -- staged flow ------------------------------------------------------------------

using dominosyn::FlowReport;
using dominosyn::FlowSession;
using dominosyn::PhaseMode;

FlowReport staged_report(FlowSession& session, PhaseMode mode, FlowCounters& counters) {
  const FlowSession::Stats before = session.stats();
  {
    const trace::Span span("flow.synth", kLayerNetwork);
    (void)session.synthesized();
  }
  const auto probs_start = Clock::now();
  bool exact = true;
  {
    const trace::Span span("flow.probs", kLayerProbs);
    exact = session.probabilities().used_exact_bdd;
  }
  if (!exact && session.stats().prob_builds > before.prob_builds) {
    counters.probs_fallback_ms += ms_between(probs_start, Clock::now());
    ++counters.probs_fallbacks;
  }
  {
    const trace::Span span("flow.evaluator", kLayerPhase);
    (void)session.evaluator();
  }
  const FlowSession::AssignStage* ma = nullptr;
  {
    const trace::Span span("flow.assign_ma", kLayerPhase);
    ma = &session.assign(PhaseMode::kMinArea);
  }
  if (session.stats().assign_searches > before.assign_searches) {
    counters.evaluations += ma->search_evaluations;
    counters.nodes_expanded += ma->search_nodes_expanded;
    counters.subtrees_pruned += ma->search_subtrees_pruned;
    counters.batched_trials += ma->search_batched_trials;
    counters.batch_walks += ma->search_batch_walks;
  }
  if (mode == PhaseMode::kMinPower) {
    {
      const trace::Span span("flow.overlap", kLayerPhase);
      (void)session.cone_overlap();
    }
    const std::size_t searches = session.stats().assign_searches;
    const FlowSession::AssignStage* mp = nullptr;
    {
      const trace::Span span("flow.assign_mp", kLayerPhase);
      mp = &session.assign(PhaseMode::kMinPower);
    }
    if (session.stats().assign_searches > searches) {
      // The §4.1 heuristic's counters include its MA seed's; the exact
      // branch-and-bound path (few outputs) does not seed from MA.
      const bool exact_search = mp->search_nodes_expanded > 0;
      const auto own = [&](std::size_t mp_value, std::size_t ma_value) {
        return exact_search || mp_value < ma_value ? mp_value : mp_value - ma_value;
      };
      const std::size_t own_evaluations = own(mp->search_evaluations, ma->search_evaluations);
      counters.evaluations += own_evaluations;
      if (!exact_search) {
        counters.mp_commits += mp->search_commits;
        counters.mp_heuristic_evaluations += own_evaluations;
      }
      counters.nodes_expanded += mp->search_nodes_expanded;
      counters.subtrees_pruned += mp->search_subtrees_pruned;
      counters.batched_trials += own(mp->search_batched_trials, ma->search_batched_trials);
      counters.batch_walks += own(mp->search_batch_walks, ma->search_batch_walks);
    }
  }
  const std::size_t maps = session.stats().map_runs;
  const FlowSession::MapStage* mapped = nullptr;
  {
    const trace::Span span("flow.map", kLayerMap);
    mapped = &session.map(mode);
  }
  if (session.stats().map_runs > maps) counters.resize_moves += mapped->resize_moves;
  const std::size_t measures = session.stats().measure_runs;
  {
    const trace::Span span("flow.measure", kLayerMeasure);
    (void)session.measure(mode);
  }
  if (session.stats().measure_runs > measures) {
    const auto& sim = session.options().sim;
    counters.measure_cycles += 64 * (sim.steps - std::min(sim.steps, sim.warmup));
  }
  const trace::Span span("flow.report", kLayerFlow);
  return session.report(mode);
}

FlowCounters& FlowCounters::operator+=(const FlowCounters& other) {
  probs_fallback_ms += other.probs_fallback_ms;
  probs_fallbacks += other.probs_fallbacks;
  evaluations += other.evaluations;
  mp_commits += other.mp_commits;
  mp_heuristic_evaluations += other.mp_heuristic_evaluations;
  nodes_expanded += other.nodes_expanded;
  subtrees_pruned += other.subtrees_pruned;
  batched_trials += other.batched_trials;
  batch_walks += other.batch_walks;
  resize_moves += other.resize_moves;
  measure_cycles += other.measure_cycles;
  return *this;
}

void Quality::add(const FlowReport& ma, const FlowReport& mp) {
  saving_pct.push_back(100.0 * (ma.sim_power - mp.sim_power) / ma.sim_power);
  penalty_pct.push_back(100.0 * (static_cast<double>(mp.cells) - static_cast<double>(ma.cells)) /
                        static_cast<double>(ma.cells));
}

void Quality::print() const {
  std::printf("mp_power_saving_pct %8.4f %%  mp_area_penalty_pct %8.4f %%  (n=%zu MA/MP pairs)\n",
              mean(saving_pct), mean(penalty_pct), saving_pct.size());
}

FlowSession::Stats operator-(const FlowSession::Stats& a, const FlowSession::Stats& b) {
  FlowSession::Stats d;
  d.synth_builds = a.synth_builds - b.synth_builds;
  d.prob_builds = a.prob_builds - b.prob_builds;
  d.context_builds = a.context_builds - b.context_builds;
  d.assign_searches = a.assign_searches - b.assign_searches;
  d.map_runs = a.map_runs - b.map_runs;
  d.measure_runs = a.measure_runs - b.measure_runs;
  return d;
}

FlowSession::Stats& operator+=(FlowSession::Stats& a, const FlowSession::Stats& b) {
  a.synth_builds += b.synth_builds;
  a.prob_builds += b.prob_builds;
  a.context_builds += b.context_builds;
  a.assign_searches += b.assign_searches;
  a.map_runs += b.map_runs;
  a.measure_runs += b.measure_runs;
  return a;
}

void LayerMetrics::take_spans(const std::vector<trace::Record>& records) {
  for (const char* name : {"flow.synth", "flow.probs", "flow.evaluator", "flow.overlap",
                           "flow.assign_ma", "flow.assign_mp", "flow.map", "flow.measure"})
    stage_ms[name] = trace::total_ms(records, name);
  self_ms = trace::layer_self_ms(records);
}

void LayerMetrics::emit(Result& result, double rounds) const {
  const auto per_round = [rounds](double value) { return value / rounds; };
  const auto stage = [&](const char* span, const char* metric) {
    const auto it = stage_ms.find(span);
    result.metric(metric, per_round(it == stage_ms.end() ? 0.0 : it->second), "ms");
  };
  stage("flow.synth", "flow.synth_ms");
  stage("flow.probs", "flow.probs_ms");
  result.metric("flow.probs_fallback_ms", per_round(counters.probs_fallback_ms), "ms");
  stage("flow.evaluator", "flow.evaluator_ms");
  stage("flow.overlap", "flow.overlap_ms");
  stage("flow.assign_ma", "flow.assign_ma_ms");
  stage("flow.assign_mp", "flow.assign_mp_ms");
  stage("flow.map", "flow.map_ms");
  stage("flow.measure", "flow.measure_ms");
  result.metric("flow.probs_fallbacks", per_round(static_cast<double>(counters.probs_fallbacks)),
                "count");
  const auto count = [&](const char* metric, std::size_t value) {
    result.metric(metric, per_round(static_cast<double>(value)), "count");
  };
  count("flow.builds.synth", builds.synth_builds);
  count("flow.builds.probs", builds.prob_builds);
  count("flow.builds.context", builds.context_builds);
  count("flow.builds.assign", builds.assign_searches);
  count("flow.builds.map", builds.map_runs);
  count("flow.builds.measure", builds.measure_runs);
  count("phase.evaluations", counters.evaluations);
  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  result.metric("phase.mp_accept_ratio",
                ratio(counters.mp_commits, counters.mp_heuristic_evaluations), "ratio");
  count("phase.nodes_expanded", counters.nodes_expanded);
  count("phase.subtrees_pruned", counters.subtrees_pruned);
  result.metric("phase.mp_power_saving_pct", mean(quality.saving_pct), "%");
  result.metric("phase.mp_area_penalty_pct", mean(quality.penalty_pct), "%");
  result.metric("phase.lane_occupancy", ratio(counters.batched_trials, counters.batch_walks),
                "ratio");
  count("map.resize_moves", counters.resize_moves);
  count("measure.cycles", counters.measure_cycles);
  result.metric("server.queue_ms_p50", queue_ms_p50, "ms");
  result.metric("server.queue_ms_p95", queue_ms_p95, "ms");
  for (const char* cls : {"hot", "restage", "cold"}) {
    const auto value = [cls](const std::map<std::string, double>& by_class) {
      const auto it = by_class.find(cls);
      return it == by_class.end() ? 0.0 : it->second;
    };
    result.metric(std::string("server.service_ms_p50.") + cls, value(service_ms_p50), "ms");
    result.metric(std::string("server.wire_ms_p50.") + cls, value(wire_ms_p50), "ms");
  }
  result.metric("blif.parse_ms", blif_parse_ms, "ms");
  result.metric("cache.hits", per_round(cache_hits), "count");
  result.metric("cache.misses", per_round(cache_misses), "count");
  result.metric("cache.evictions", per_round(cache_evictions), "count");
  result.metric("server.rejected", per_round(rejected), "count");
  result.metric("client.retries", per_round(retries), "count");
  result.metric("server.degraded", per_round(degraded), "count");
  result.metric("latency.hot_p50_ms", percentile(latencies.hot_ms, 0.50), "ms");
  result.metric("latency.hot_p99_ms", percentile(latencies.hot_ms, 0.99), "ms");
  result.metric("latency.restage_p50_ms", percentile(latencies.restage_ms, 0.50), "ms");
  result.metric("latency.restage_p95_ms", percentile(latencies.restage_ms, 0.95), "ms");
  result.metric("latency.cold_p50_ms", percentile(latencies.cold_ms, 0.50), "ms");
  result.metric("process.peak_rss_mb", peak_rss_mb, "MB");
  result.metric("bench.trace_overhead", trace_overhead, "ratio");
  result.metric("obs.tracer_overhead", tracer_overhead, "ratio");
  for (const char* layer : kLayers) {
    const auto it = self_ms.find(layer);
    result.metric(std::string("self_ms.") + layer,
                  per_round(it == self_ms.end() ? 0.0 : it->second), "ms");
  }
}

}  // namespace perfbench
