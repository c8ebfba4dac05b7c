/// \file common.hpp
/// Shared pieces of perfbench: command-line arguments, the
/// benchmark-side span recorder, the result document, seeded circuit draws
/// and small statistics helpers.
///
/// perfbench measures the program only through its public entry points
/// (FlowSession stages, dominod over a UNIX socket via Client, and
/// blif::read_string).  Spans are recorded here, around those calls, never
/// inside the program.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string dominod;  ///< path of the dominod binary (serve_mixed)
  std::string rundir;   ///< scratch directory inside the checkout (sockets, spans)
};

// -- spans --------------------------------------------------------------------
// One span per call into a layer's public function: name, layer, start, end,
// parent span and the request it belongs to.  Recording is off unless the
// run is traced; spans stay in memory and are written out when the run ends.

namespace trace {

struct Record {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

void set_enabled(bool enabled);
[[nodiscard]] bool enabled();
/// Tags spans opened afterwards on this thread with a request id.
void set_request(std::uint64_t request);
[[nodiscard]] std::uint64_t next_request_id();

class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
  std::int64_t saved_parent_ = -1;
};

/// Runs `fn` inside a span and returns its wall time in milliseconds.
template <typename Fn>
double timed(const char* name, const char* layer, Fn&& fn) {
  const Span span(name, layer);
  const auto start = Clock::now();
  fn();
  return ms_between(start, Clock::now());
}

[[nodiscard]] std::vector<Record> records();
/// Total duration (ms) of every span with this name.
[[nodiscard]] double total_ms(const std::vector<Record>& records, std::string_view name);
/// Per-layer self time (ms): span duration minus the time its children cover.
[[nodiscard]] std::map<std::string, double> layer_self_ms(const std::vector<Record>& records);
/// Writes the spans as tab-separated lines (id, parent, request, layer, name,
/// start_us, dur_us).
void write(const std::vector<Record>& records, const std::string& path);

}  // namespace trace

/// Layers, named after the program's modules (see README.md).
inline constexpr const char* kLayerBench = "bench";
inline constexpr const char* kLayerFlow = "flow";
inline constexpr const char* kLayerNetwork = "network";
inline constexpr const char* kLayerProbs = "sgraph_bdd";
inline constexpr const char* kLayerPhase = "phase";
inline constexpr const char* kLayerMap = "mapping_timing";
inline constexpr const char* kLayerMeasure = "sim_power";
inline constexpr const char* kLayerBlif = "blif";
inline constexpr const char* kLayerServer = "server";
inline constexpr const char* kLayers[] = {kLayerBench, kLayerFlow,    kLayerNetwork,
                                          kLayerProbs, kLayerPhase,   kLayerMap,
                                          kLayerMeasure, kLayerBlif,  kLayerServer};

// -- result document ------------------------------------------------------------

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation; `ok == false` counts it failed and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// The final JSON line.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// -- request classes -------------------------------------------------------------
// Every workload issues requests of three classes: `hot` (an exact repeat of
// a request whose stages are all cached), `restage` (new downstream options on
// a warm circuit) and `cold` (the first request on a fresh circuit).

struct Latencies {
  std::vector<double> hot_ms, restage_ms, cold_ms;
};

/// Shortest decimal text that reads back as `value` ("0" if not finite).
[[nodiscard]] std::string format_number(double value);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// In process, every repeat of a request does the same work, so each
/// distinct request counts once, at the median of its times over the run
/// (each scaled as the workload's times are, see HostProbe).
struct RequestTimes {
  std::map<std::string, std::vector<double>> hot, restage, cold;  ///< request -> ms

  static void add(std::map<std::string, std::vector<double>>& times, const std::string& request,
                  double ms);
  /// One sample per distinct request: its median.
  [[nodiscard]] Latencies latencies() const;
};

/// Prints each request class's percentiles with their sample counts.  They are per-layer metrics (LayerMetrics::latencies):
/// no end-to-end bound held for them on this host (README.md, "Host speed").
void report_latencies(const Latencies& latencies);

/// Adds setup_s, the median of the set-ups' times (s), and prints them all.
void report_setup(Result& result, const std::vector<double>& setup_s);

/// Runs whole rounds, numbered from 0, while the next one is expected to end
/// within `seconds`; always a multiple of `multiple` rounds, at least one.
void run_rounds(double seconds, const std::function<void(std::size_t)>& round,
                std::size_t multiple = 1);

// -- host speed -------------------------------------------------------------------
// The host shares its cores with other machines' work, which slows the program
// by up to 1.6x for seconds to minutes at a time; a run-long best time does not
// escape that.  So explore_warm and serve_mixed (and table_cold's set-up)
// report times at a reference host speed: next to each measurement perfbench times a fixed probe of its
// own (no code of the program), and scales the measurement by the probe's
// reference time over its time then.  A change to the program moves its
// times and never the probe's.  README.md, "Host speed", says which scaling
// each workload uses and why.

/// The parts of the probe a time can be scaled by.
enum class ProbePart : std::size_t {
  kCompute,  ///< the simulation alone, compute-bound
  kWhole,    ///< the simulation and the memory-latency-bound loads
};

class HostProbe {
 public:
  /// The scale of reference speed, by ProbePart: about each part's time on
  /// an idle host (a 4-vCPU Xeon VM).
  static constexpr double kReferenceMs[] = {5.0, 15.0};
  /// A measurement is scaled by the median of the last kWindow probes (the
  /// one just after it included): a single probe is noisier than the host's
  /// drift, which holds for seconds.
  static constexpr std::size_t kWindow = 7;

  /// A disabled probe never runs, and its factors are 1.  An enabled one
  /// scales each measurement by `part` of the probes next to it.  With
  /// `threads` > 1 every sample runs that many copies at once (for a program
  /// that keeps that many cores busy), and its times are their means.
  HostProbe(bool enabled, ProbePart part, unsigned threads = 1);

  /// Runs the probe once: a word-parallel simulation of a fixed random
  /// 4000-gate netlist (64 patterns a word, 1000 rounds), which slows about
  /// as much as search, map and measure when a core is contended, then
  /// 50000 dependent loads over 64 MiB, which slow less, as probability
  /// builds do.  Records both parts' times.
  void sample();

  /// Runs `fn`, then the probe `probes` times; returns the factor that takes
  /// a time measured in `fn` to the reference speed.
  template <typename Fn>
  double factor_around(Fn&& fn, std::size_t probes = 1) {
    fn();
    if (!enabled_) return 1.0;
    for (std::size_t i = 0; i < probes; ++i) sample();
    const std::vector<double>& times = samples(part_);
    const std::size_t n = std::min(kWindow, times.size());
    return reference(part_) /
           median(std::vector<double>(times.end() - static_cast<std::ptrdiff_t>(n), times.end()));
  }

  /// Runs `fn`, which returns a time (ms) it measured, then the probe;
  /// returns that time times factor_around's factor.
  template <typename Fn>
  double at_reference(Fn&& fn) {
    double ms = 0.0;
    const double factor = factor_around([&] { ms = fn(); });
    return ms * factor;
  }

  /// Every probe time of `part` in the run (ms).
  [[nodiscard]] const std::vector<double>& samples(ProbePart part) const {
    return samples_[static_cast<std::size_t>(part)];
  }
  [[nodiscard]] static double reference(ProbePart part) {
    return kReferenceMs[static_cast<std::size_t>(part)];
  }

 private:
  static constexpr std::size_t kProbeInputs = 64;

  /// One run of copy `copy` of the probe: adds its two parts' times (ms).
  void run(std::size_t copy, double& compute_ms, double& whole_ms);

  bool enabled_;
  ProbePart part_;
  std::vector<double> samples_[2];  ///< by ProbePart
  std::vector<std::uint32_t> fanin_a_, fanin_b_;
  std::vector<std::uint8_t> op_;
  std::vector<std::vector<std::uint64_t>> values_;  ///< gate values, one per copy
  std::vector<std::uint32_t> chase_;                ///< next slot, shared by the copies
};

/// Prints the run's probe times: how fast the host ran against the reference.
void report_probe(const HostProbe& probe);

/// The timed call's wall time, in ms.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_between(start, Clock::now());
}

// -- circuits ------------------------------------------------------------------

/// The same shape with a new generator seed, one per (seed, draw).
[[nodiscard]] dominosyn::BenchSpec redraw(dominosyn::BenchSpec spec, std::uint64_t seed,
                                          std::uint64_t draw);

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();

/// Mean over `bodies` of the median wall time (ms) of blif::read_string on
/// that body, each parsed `repeats` times inside blif spans.
[[nodiscard]] double blif_parse_ms(const std::vector<std::string>& bodies, int repeats = 5);

// -- staged flow ------------------------------------------------------------------

/// Work counters of the flow stages a run executed (summed over circuits).
struct FlowCounters {
  double probs_fallback_ms = 0.0;  ///< probability builds that fell back
  std::size_t probs_fallbacks = 0;
  std::size_t evaluations = 0;
  std::size_t mp_commits = 0;
  std::size_t mp_heuristic_evaluations = 0;  ///< MP trials beyond its MA seed
  std::size_t nodes_expanded = 0;
  std::size_t subtrees_pruned = 0;
  std::size_t batched_trials = 0;
  std::size_t batch_walks = 0;
  std::size_t resize_moves = 0;
  std::size_t measure_cycles = 0;

  FlowCounters& operator+=(const FlowCounters& other);
};

/// Serves one request on a session stage by stage, each stage inside its
/// span, the way FlowSession::report would pull them.  Counts into
/// `counters` only the stages this call actually built.
[[nodiscard]] dominosyn::FlowReport staged_report(dominosyn::FlowSession& session,
                                                  dominosyn::PhaseMode mode,
                                                  FlowCounters& counters);

/// MP-vs-MA simulated power saving and cell penalty, percent, averaged over
/// MA/MP pairs of the same circuit and options (the paper's Table 1 columns).
struct Quality {
  std::vector<double> saving_pct, penalty_pct;
  void add(const dominosyn::FlowReport& ma, const dominosyn::FlowReport& mp);
  void print() const;
};

/// The per-layer metric set every workload prints with --trace 1.  Layers a
/// workload does not exercise stay 0.  Times and counts are per round of the
/// workload's unit of work.
struct LayerMetrics {
  std::map<std::string, double> stage_ms;  ///< flow.*_ms, keyed by span name
  FlowCounters counters;
  dominosyn::FlowSession::Stats builds;
  double queue_ms_p50 = 0.0, queue_ms_p95 = 0.0;
  std::map<std::string, double> service_ms_p50, wire_ms_p50;  ///< by request class
  double blif_parse_ms = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0, cache_evictions = 0.0;
  double rejected = 0.0, retries = 0.0, degraded = 0.0;
  Quality quality;
  double peak_rss_mb = 0.0;      ///< of the process that does the work
  Latencies latencies;           ///< the traced run's untraced requests (latency.*)
  double trace_overhead = 0.0;   ///< traced ÷ untraced wall_s
  double tracer_overhead = 0.0;  ///< program tracing on ÷ off (explore_warm)
  std::map<std::string, double> self_ms;

  /// Fills stage_ms and self_ms from the traced phase's spans.
  void take_spans(const std::vector<trace::Record>& records);
  void emit(Result& result, double rounds) const;
};

[[nodiscard]] dominosyn::FlowSession::Stats operator-(const dominosyn::FlowSession::Stats& a,
                                                      const dominosyn::FlowSession::Stats& b);
dominosyn::FlowSession::Stats& operator+=(dominosyn::FlowSession::Stats& a,
                                          const dominosyn::FlowSession::Stats& b);

int run_table_cold(const Args& args, Result& result);
int run_explore_warm(const Args& args, Result& result);
int run_serve_mixed(const Args& args, Result& result);

}  // namespace perfbench
