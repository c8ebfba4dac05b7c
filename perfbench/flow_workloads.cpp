/// \file flow_workloads.cpp
/// The in-process workloads: `table_cold` (the Table 1 flow on fresh
/// sessions) and `explore_warm` (option sweeps on warm sessions that never
/// re-run the probability stage).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "blif/blif.hpp"
#include "common.hpp"
#include "flow/batch.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using dominosyn::BenchSpec;
using dominosyn::FlowOptions;
using dominosyn::FlowReport;
using dominosyn::FlowSession;
using dominosyn::Network;
using dominosyn::PhaseMode;

/// The Table 1 settings (bench/table1.cpp): PI probability 0.5, 1024
/// simulation steps after 16 warm-up steps, one search thread, default seeds.
FlowOptions table1_options() {
  FlowOptions options;
  options.pi_prob = 0.5;
  options.sim.steps = 1024;
  options.sim.warmup = 16;
  options.num_threads = 1;
  return options;
}

/// Each item at its median over the rounds, summed (seconds).
double median_round_s(const std::vector<std::vector<double>>& item_ms) {
  double total = 0.0;
  for (std::size_t item = 0; item < item_ms.front().size(); ++item) {
    std::vector<double> rounds;
    for (const auto& round : item_ms) rounds.push_back(round[item]);
    total += median(rounds) / 1e3;
  }
  return total;
}

struct Circuit {
  std::string name;
  Network net;
};

std::vector<Circuit> generate(const std::vector<BenchSpec>& specs) {
  std::vector<Circuit> circuits;
  for (const BenchSpec& spec : specs) {
    const trace::Span span("benchgen", kLayerBench);
    circuits.push_back({spec.name, dominosyn::generate_benchmark(spec)});
  }
  return circuits;
}

std::vector<std::string> blif_bodies(const std::vector<Circuit>& circuits) {
  std::vector<std::string> bodies;
  for (const Circuit& circuit : circuits)
    bodies.push_back(dominosyn::blif::write_string(circuit.net));
  return bodies;
}

/// Exact repeats of a fully cached request, each through the circuit's
/// SessionCache (the cache ServerCore serves from): the lease re-validates the
/// network fingerprint and the options, then every stage is served cached.
/// Sampled `samples` times as a batch of kHotBatch; returns the best batch's
/// time per request (ms).
constexpr int kHotBatch = 8;

double hot_repeats(dominosyn::SessionCache& cache, const std::string& key, const Network& net,
                   PhaseMode mode, const FlowReport& expected, int samples,
                   FlowCounters& counters, Result& result) {
  const FlowSession::Stats before = cache.peek(key)->stats();
  const std::size_t hits = cache.hits();
  double best_ms = 0.0;
  bool same = true;
  for (int i = 0; i < samples; ++i) {
    FlowReport report;
    const double batch_ms = trace::timed("request.hot", kLayerFlow, [&] {
      for (int r = 0; r < kHotBatch; ++r) {
        const auto lease = cache.lease(key, net, cache.peek(key)->options());
        report = staged_report(lease.session(), mode, counters);
      }
    });
    best_ms = i == 0 ? batch_ms / kHotBatch : std::min(best_ms, batch_ms / kHotBatch);
    same = same && report.sim_power == expected.sim_power &&
           report.est_power == expected.est_power && report.cells == expected.cells &&
           report.assignment == expected.assignment;
  }
  const FlowSession::Stats built = cache.peek(key)->stats() - before;
  result.check(same && cache.hits() - hits == static_cast<std::size_t>(samples) * kHotBatch &&
                   built.assign_searches == 0 && built.map_runs == 0 && built.measure_runs == 0,
               key + ": hot repeat missed the cache, rebuilt a stage or changed its report");
  return best_ms;
}

bool reports_ok(const FlowReport& ma, const FlowReport& mp) {
  return ma.equivalence_ok && mp.equivalence_ok && mp.est_power <= ma.est_power;
}

// -- table_cold ---------------------------------------------------------------------

/// table_cold is the paper's Table 1 for every seed: paper_suite() with the
/// default search and simulation seeds.  Re-drawn suites made its time a
/// lottery over abandoned BDD builds (x3 took 1-17 s across fifteen draws;
/// five draws per run still left 20-30% between seeds), and new search seeds
/// moved its restage median by a quarter through the MP assignments.

using Suite = std::vector<Circuit>;

Suite table_setup() { return generate(dominosyn::paper_suite()); }

struct CircuitRow {
  std::string name;
  bool exact = true;
  double synth = 0, probs = 0, evaluator = 0, ma = 0, mp = 0, map = 0, measure = 0;
};

/// A circuit kept warm after its first Table 1 flow, for restages and hot
/// repeats spread over the whole run.
struct WarmCircuit {
  const Circuit* circuit = nullptr;
  std::unique_ptr<dominosyn::SessionCache> cache;
  double ma_delay = 0.0;  ///< untimed MA critical delay
  std::size_t restages = 0;
};

constexpr int kHotSamples = 16;

/// One restage and hot repeats on every warm circuit.  Each restage moves the
/// circuit to the other of two Table 2 clocks (MA critical delay x 1.05 or
/// x 1.10), so it re-maps and re-measures MP; the hot repeats re-serve it.
void warm_sweep(std::vector<WarmCircuit>& warm, FlowCounters& counters, RequestTimes& times,
                FlowSession::Stats& builds, Result& result) {
  for (WarmCircuit& w : warm) {
    trace::set_request(trace::next_request_id());
    const std::string& key = w.circuit->name;
    FlowSession& session = *w.cache->peek(key);
    const FlowSession::Stats before = session.stats();
    const bool first_clock = w.restages++ % 2 == 0;
    const std::string request = key + (first_clock ? " @1.05" : " @1.10");
    FlowOptions options = table1_options();
    options.clock_period = w.ma_delay * (first_clock ? 1.05 : 1.10);
    FlowReport mp;
    RequestTimes::add(times.restage, request, trace::timed("request.restage", kLayerFlow, [&] {
      const auto lease = w.cache->lease(key, w.circuit->net, options);
      mp = staged_report(lease.session(), PhaseMode::kMinPower, counters);
    }));
    const FlowSession::Stats built = session.stats() - before;
    result.check(mp.equivalence_ok && built.assign_searches == 0 && built.map_runs == 1 &&
                     built.measure_runs == 1,
                 key + ": clock restage failed a check");
    RequestTimes::add(times.hot, request,
                      hot_repeats(*w.cache, key, w.circuit->net, PhaseMode::kMinPower, mp,
                                  kHotSamples, counters, result));
    builds += session.stats() - before;
    trace::set_request(0);
  }
}

/// One circuit's Table 1 flow: MA then MP on a fresh session.
struct ColdFlow {
  double ms = 0.0;
  std::unique_ptr<dominosyn::SessionCache> cache;  ///< holds the session
  FlowReport ma, mp;
  FlowSession::Stats stats;
};

/// Runs one circuit's Table 1 flow; its time is as measured (README.md,
/// "Host speed").
ColdFlow cold_flow(const Circuit& circuit, FlowCounters& counters, Result& result) {
  ColdFlow flow;
  flow.cache = std::make_unique<dominosyn::SessionCache>(1);
  std::shared_ptr<FlowSession> session;
  flow.ms = trace::timed("request.cold", kLayerFlow, [&] {
    session = flow.cache->lease(circuit.name, circuit.net, table1_options()).session_ptr();
    flow.ma = staged_report(*session, PhaseMode::kMinArea, counters);
    flow.mp = staged_report(*session, PhaseMode::kMinPower, counters);
  });
  flow.stats = session->stats();
  result.check(reports_ok(flow.ma, flow.mp) && flow.stats.synth_builds == 1 &&
                   flow.stats.prob_builds == 1 && flow.stats.context_builds == 1,
               circuit.name + ": Table 1 flow failed a check");
  return flow;
}

/// One Table 1 pass: the Table 1 flow of each circuit, one at a time, each
/// followed by a sweep over the warm circuits (the first pass's sessions,
/// kept in `warm`).  Returns each circuit's Table 1 flow time (ms).
///
/// With `untraced_ms` (a traced pass), each circuit's flow also runs once
/// with benchmark spans off, before or after the traced flow by turns, and
/// its time goes there: the two sides of bench.trace_overhead, interleaved.
std::vector<double> table_pass(const Suite& suite, std::vector<WarmCircuit>& warm,
                               FlowCounters& counters, RequestTimes& times, Quality* quality,
                               FlowSession::Stats& builds, Result& result,
                               std::vector<bool>* exact_paths = nullptr,
                               std::vector<double>* untraced_ms = nullptr) {
  std::vector<double> flow_ms;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Circuit& circuit = suite[i];
    const auto untraced_twin = [&] {
      trace::set_enabled(false);
      FlowCounters ignored;
      untraced_ms->push_back(cold_flow(circuit, ignored, result).ms);
      trace::set_enabled(true);
    };
    if (untraced_ms && i % 2 == 0) untraced_twin();
    trace::set_request(trace::next_request_id());
    ColdFlow flow = cold_flow(circuit, counters, result);
    trace::set_request(0);
    if (untraced_ms && i % 2 == 1) untraced_twin();
    flow_ms.push_back(flow.ms);
    if (quality) quality->add(flow.ma, flow.mp);
    if (exact_paths) exact_paths->push_back(flow.mp.used_exact_bdd);
    builds += flow.stats;
    if (warm.size() < suite.size())
      warm.push_back({&circuit, std::move(flow.cache), flow.ma.critical_delay});
    warm_sweep(warm, counters, times, builds, result);
  }
  return flow_ms;
}

/// The per-circuit stage table of the first draw: the spans directly under
/// each circuit's Table 1 request, in circuit order.
void print_rows(const std::vector<trace::Record>& records, const Suite& suite,
                const std::vector<bool>& exact_paths) {
  std::vector<CircuitRow> rows;
  std::vector<std::int64_t> row_of(records.size(), -1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::Record& record = records[i];
    if (std::string_view(record.name) == "request.cold" && rows.size() < suite.size()) {
      row_of[i] = static_cast<std::int64_t>(rows.size());
      rows.push_back({suite[rows.size()].name, exact_paths[rows.size()]});
      continue;
    }
    if (record.parent < 0 || row_of[static_cast<std::size_t>(record.parent)] < 0) continue;
    CircuitRow& row = rows[static_cast<std::size_t>(row_of[static_cast<std::size_t>(record.parent)])];
    const double ms = static_cast<double>(record.end_ns - record.start_ns) / 1e6;
    const std::string_view name = record.name;
    if (name == "flow.synth") row.synth += ms;
    if (name == "flow.probs") row.probs += ms;
    if (name == "flow.evaluator") row.evaluator += ms;
    if (name == "flow.assign_ma") row.ma += ms;
    if (name == "flow.assign_mp" || name == "flow.overlap") row.mp += ms;
    if (name == "flow.map") row.map += ms;
    if (name == "flow.measure") row.measure += ms;
  }
  std::printf("%-11s %9s %10s %9s %9s %9s %9s %9s  %s\n", "circuit", "synth_ms", "probs_ms",
              "eval_ms", "ma_ms", "mp_ms", "map_ms", "meas_ms", "probabilities");
  for (const CircuitRow& row : rows)
    std::printf("%-11s %9.2f %10.2f %9.2f %9.2f %9.2f %9.2f %9.2f  %s\n", row.name.c_str(),
                row.synth, row.probs, row.evaluator, row.ma, row.mp, row.map, row.measure,
                row.exact ? "exact" : "fallback");
}

// -- explore_warm ---------------------------------------------------------------------

constexpr std::size_t kVariants = 2;
constexpr int kExploreHotRepeats = 32;
constexpr const char* kExploreCircuits[] = {"apex7", "frg1", "x1", "x3", "Industry 3"};

struct Warm {
  std::string name;
  Network net;
  std::unique_ptr<dominosyn::SessionCache> cache;  ///< holds this circuit's session
  double table2_clock = 0.0;

  [[nodiscard]] FlowSession& session() const { return *cache->peek(name); }
};

/// One set-up: the five paper_suite() circuits (as in table_cold) with synth,
/// probabilities and the evaluator built, plus the untimed MA run that fixes
/// each circuit's Table 2 clock (MA critical delay x 1.05, default seeds as
/// in bench_table2).  The workload seed only reaches the timed variants.
/// Returns the set-up's time (s, at the reference host speed); each circuit's
/// MA request also counts as a cold one.
double explore_setup(std::vector<Warm>& warm, RequestTimes& times, HostProbe& probe) {
  warm.clear();
  FlowCounters ignored;
  double total_ms = 0.0;
  for (const char* name : kExploreCircuits) {
    Warm circuit;
    circuit.name = name;
    total_ms += probe.at_reference([&] {
      return time_ms([&] {
        circuit.net = dominosyn::generate_benchmark(dominosyn::paper_spec(name));
      });
    });
    circuit.cache = std::make_unique<dominosyn::SessionCache>(1);
    const double cold_ms = probe.at_reference([&] {
      return trace::timed("request.cold", kLayerFlow, [&] {
        const auto lease = circuit.cache->lease(circuit.name, circuit.net, table1_options());
        const FlowReport ma = staged_report(lease.session(), PhaseMode::kMinArea, ignored);
        circuit.table2_clock = ma.critical_delay * 1.05;
      });
    });
    RequestTimes::add(times.cold, circuit.name, cold_ms);
    total_ms += cold_ms;
    warm.push_back(std::move(circuit));
  }
  return total_ms / 1e3;
}

/// Variant v: fresh search seeds for both searches, untimed or at the
/// Table 2 clock, and a simulation seed drawn from a non-zero workload seed.
/// Every variant differs from the previous one in its search seeds, so each
/// one re-runs search, map and measure — never probabilities.
FlowOptions variant_options(std::uint64_t seed, std::size_t v, double table2_clock) {
  FlowOptions options = table1_options();
  if (seed != 0) {
    std::uint64_t state = seed;
    options.sim.seed = dominosyn::splitmix64(state);
  }
  std::uint64_t state = seed * kVariants + v + 1;
  options.minarea.seed = dominosyn::splitmix64(state);
  options.minpower.seed = dominosyn::splitmix64(state);
  options.clock_period = v % 2 == 1 ? table2_clock : 0.0;
  return options;
}

/// One item of a sweep: variant v of a circuit, its MA and MP requests and
/// the hot repeats of the MP one.
void explore_item(Warm& circuit, std::uint64_t seed, std::size_t v, FlowCounters& counters,
                  RequestTimes& times, Quality* quality, HostProbe& probe, Result& result) {
  trace::set_request(trace::next_request_id());
  const FlowOptions options = variant_options(seed, v, circuit.table2_clock);
  const std::string request = circuit.name + " v" + std::to_string(v);
  FlowReport ma, mp;
  const auto restage = [&](PhaseMode mode, FlowReport& report) {
    return probe.at_reference([&] {
      return trace::timed("request.restage", kLayerFlow, [&] {
        const auto lease = circuit.cache->lease(circuit.name, circuit.net, options);
        report = staged_report(lease.session(), mode, counters);
      });
    });
  };
  RequestTimes::add(times.restage, request + " ma", restage(PhaseMode::kMinArea, ma));
  RequestTimes::add(times.restage, request + " mp", restage(PhaseMode::kMinPower, mp));
  result.check(reports_ok(ma, mp), circuit.name + ": variant failed a check");
  if (quality) quality->add(ma, mp);
  RequestTimes::add(times.hot, request, probe.at_reference([&] {
    return hot_repeats(*circuit.cache, circuit.name, circuit.net, PhaseMode::kMinPower, mp,
                       kExploreHotRepeats, counters, result);
  }));
  trace::set_request(0);
}

/// More cold requests after the timed phase: each circuit that set-up builds
/// in well under a second (apex7, frg1, x1; cold_p50_ms falls on them) on a
/// fresh session again, kMoreColds times, so its median has more than the
/// three set-ups' samples.
constexpr int kMoreColds = 6;

void more_colds(const std::vector<Warm>& warm, RequestTimes& times, HostProbe& probe) {
  FlowCounters ignored;
  for (int i = 0; i < kMoreColds; ++i)
    for (const Warm& circuit : warm) {
      if (median(times.cold[circuit.name]) > 1000.0) continue;
      RequestTimes::add(times.cold, circuit.name, probe.at_reference([&] {
        return trace::timed("request.cold", kLayerFlow, [&] {
          dominosyn::SessionCache cache(1);
          const auto lease = cache.lease(circuit.name, circuit.net, table1_options());
          (void)staged_report(lease.session(), PhaseMode::kMinArea, ignored);
        });
      }));
    }
}

FlowSession::Stats total_stats(const std::vector<Warm>& warm) {
  FlowSession::Stats total;
  for (const Warm& circuit : warm) total += circuit.session().stats();
  return total;
}

}  // namespace

int run_table_cold(const Args& args, Result& result) {
  // Set-up: generating the circuits, ~25 ms of compute, so repeated 15 times
  // for a steady median, each at the reference host speed as on
  // explore_warm.  The timed phase's times are as measured: the Table 1
  // flows are seconds long, mostly probability builds, and no probe tracked
  // the host through them (README.md, "Host speed"); the pass is taken at
  // each circuit's best of two.
  std::vector<double> setup_s;
  Suite suite;
  {
    HostProbe probe(!args.trace, ProbePart::kCompute);
    for (int rep = 0; rep < 15; ++rep)
      setup_s.push_back(
          probe.at_reference([&] { return time_ms([&] { suite = table_setup(); }); }) / 1e3);
  }

  std::vector<WarmCircuit> warm;
  if (!args.trace) {
    // Two passes at least, more while they fit in --seconds.  A cold request
    // is one Table 1 pass; wall_s is the pass at each circuit's median over
    // the passes (the lower of two).
    RequestTimes times;
    Quality quality;
    FlowCounters counters;
    FlowSession::Stats builds;
    std::vector<std::vector<double>> flow_ms;  // [pass][circuit]
    const auto start = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
      flow_ms.push_back(table_pass(suite, warm, counters, times,
                                   pass == 0 ? &quality : nullptr, builds, result));
      double pass_ms = 0.0;
      for (const double ms : flow_ms.back()) pass_ms += ms;
      RequestTimes::add(times.cold, "Table 1 pass", pass_ms);
      const double elapsed = ms_between(start, Clock::now()) / 1e3;
      if (pass >= 1 &&
          elapsed * static_cast<double>(pass + 2) / static_cast<double>(pass + 1) > args.seconds)
        break;
    }
    const double wall_s = median_round_s(flow_ms);
    std::printf("table_cold: %zu passes, Table 1 pass at per-circuit medians %.3f s\n",
                flow_ms.size(), wall_s);
    report_setup(result, setup_s);
    result.metric("wall_s", wall_s, "s");
    std::printf("peak_rss_mb %.1f MB\n", self_peak_rss_mb());
    report_latencies(times.latencies());
    quality.print();
    return 0;
  }

  // Traced run: a pass that warms the circuits, then a pass with benchmark
  // spans in which every circuit's Table 1 flow also runs once without them.
  LayerMetrics layers;
  RequestTimes ignored;
  FlowCounters untraced_counters;
  FlowSession::Stats untraced_builds;
  (void)table_pass(suite, warm, untraced_counters, ignored, &layers.quality, untraced_builds,
                   result);
  std::vector<bool> exact_paths;
  std::vector<double> untraced_ms;
  trace::set_enabled(true);
  const std::vector<double> traced_ms = table_pass(
      suite, warm, layers.counters, ignored, nullptr, layers.builds, result, &exact_paths,
      &untraced_ms);
  trace::set_enabled(false);
  layers.trace_overhead = std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0) /
                          std::accumulate(untraced_ms.begin(), untraced_ms.end(), 0.0);
  const std::vector<trace::Record> records = trace::records();
  print_rows(records, suite, exact_paths);
  layers.take_spans(records);
  layers.latencies = ignored.latencies();
  layers.latencies.cold_ms = {std::accumulate(untraced_ms.begin(), untraced_ms.end(), 0.0)};
  layers.blif_parse_ms = blif_parse_ms(blif_bodies(suite));
  trace::write(records, args.rundir + "/spans-table_cold.tsv");
  layers.peak_rss_mb = self_peak_rss_mb();
  layers.emit(result, 1.0);
  return 0;
}

int run_explore_warm(const Args& args, Result& result) {
  // Untraced runs report times at the reference host speed: each measurement
  // scaled by the compute part of the probes next to it.
  HostProbe probe(!args.trace, ProbePart::kCompute);
  std::vector<double> setup_s;
  std::vector<Warm> warm;
  RequestTimes times;
  for (int rep = 0; rep < 3; ++rep) setup_s.push_back(explore_setup(warm, times, probe));

  // Whole sweeps while the next one fits in --seconds; wall_s is one sweep,
  // each of its restage requests at its median over the sweeps.
  Quality quality;
  FlowCounters counters;
  const FlowSession::Stats before = total_stats(warm);
  std::size_t sweeps = 0;
  run_rounds(args.seconds, [&](std::size_t index) {
    ++sweeps;
    for (Warm& circuit : warm)
      for (std::size_t v = 0; v < kVariants; ++v)
        explore_item(circuit, args.seed, v, counters, times, index == 0 ? &quality : nullptr,
                     probe, result);
  });
  double wall_s = 0.0;
  for (const auto& [request, ms] : times.restage) wall_s += median(ms) / 1e3;
  const FlowSession::Stats built = total_stats(warm) - before;
  const std::size_t variants = sweeps * warm.size() * kVariants;
  result.check(built.synth_builds == 0 && built.prob_builds == 0 && built.context_builds == 0,
               "explore_warm rebuilt synth, probabilities or the evaluator in its timed phase");
  result.check(built.map_runs == 2 * variants && built.measure_runs == 2 * variants &&
                   built.assign_searches == 2 * variants,
               "explore_warm variants did not each re-run search, map and measure");

  if (!args.trace) {
    more_colds(warm, times, probe);
    report_setup(result, setup_s);
    result.metric("wall_s", wall_s, "s");
    std::printf("peak_rss_mb %.1f MB\n", self_peak_rss_mb());
    report_latencies(times.latencies());
    report_probe(probe);
    quality.print();
    return 0;
  }

  // Traced run: whole sweeps in which each item (a circuit's variant) runs
  // with benchmark spans, without them, or without the program's own span
  // tracer as well.  The side moves on from item to item and from sweep to
  // sweep, so the host's drift falls on the three alike, and over a multiple
  // of three sweeps every side covers every item equally often.  Only the
  // first side records spans, counters and builds.
  enum Side : std::size_t { kBenchTraced, kUntraced, kProgramUntraced, kSides };
  LayerMetrics layers;
  layers.quality = quality;
  const std::size_t items = warm.size() * kVariants;
  std::vector<std::vector<double>> item_ms(kSides * items);  // [side * items + item]
  RequestTimes untraced_times;
  std::size_t traced_sweeps = 0;
  run_rounds(
      2 * args.seconds,
      [&](std::size_t sweep) {
        ++traced_sweeps;
        std::size_t item = 0;
        for (Warm& circuit : warm)
          for (std::size_t v = 0; v < kVariants; ++v, ++item) {
            const std::size_t side = (item + sweep) % kSides;
            trace::set_enabled(side == kBenchTraced);
            dominosyn::obs::set_tracing_enabled(side != kProgramUntraced);
            FlowCounters ignored_counters;
            RequestTimes ignored;
            RequestTimes& times = side == kUntraced ? untraced_times : ignored;
            const FlowSession::Stats before = circuit.session().stats();
            const auto start = Clock::now();
            explore_item(circuit, args.seed, v,
                         side == kBenchTraced ? layers.counters : ignored_counters, times,
                         nullptr, probe, result);
            item_ms[side * items + item].push_back(ms_between(start, Clock::now()));
            if (side == kBenchTraced) layers.builds += circuit.session().stats() - before;
          }
      },
      kSides);
  trace::set_enabled(false);
  dominosyn::obs::set_tracing_enabled(true);
  // Each side's sweep: every item at its median over the sweeps that ran it
  // on that side.
  double side_s[kSides] = {};
  for (std::size_t side = 0; side < kSides; ++side)
    for (std::size_t item = 0; item < items; ++item)
      side_s[side] += median(item_ms[side * items + item]) / 1e3;
  layers.trace_overhead = side_s[kBenchTraced] / side_s[kUntraced];
  layers.tracer_overhead = side_s[kUntraced] / side_s[kProgramUntraced];
  layers.latencies = untraced_times.latencies();
  layers.latencies.cold_ms = times.latencies().cold_ms;  // the set-ups
  const std::vector<trace::Record> records = trace::records();
  layers.take_spans(records);
  trace::write(records, args.rundir + "/spans-explore_warm.tsv");
  std::vector<Circuit> circuits;
  for (const Warm& circuit : warm) circuits.push_back({circuit.name, circuit.net});
  layers.blif_parse_ms = blif_parse_ms(blif_bodies(circuits));
  layers.peak_rss_mb = self_peak_rss_mb();
  // Spans, counters and builds cover one sweep in three.
  layers.emit(result, static_cast<double>(traced_sweeps / kSides));
  return 0;
}

}  // namespace perfbench
