/// Tests for the staged FlowSession API (flow/session.hpp) and the batched
/// sweep frontend (flow/batch.hpp):
///  * staged reports are bit-identical to back-to-back run_flow calls,
///  * shared stage artifacts (synthesis, probabilities, EvalContext) are
///    built exactly once per circuit and min-power seeds from the cached
///    min-area stage,
///  * run_flow_batch returns identical reports for every thread count,
///  * SessionCache invalidates on a changed network / changed options and
///    bounds its working set (LRU),
///  * golden pins: simulated power and annealed min-area answers on paper
///    circuits stay bit-for-bit fixed across commits.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "benchgen/benchgen.hpp"
#include "flow/batch.hpp"
#include "flow/session.hpp"
#include "phase/search.hpp"
#include "sim/sim.hpp"

namespace dominosyn {
namespace {

BenchSpec session_spec(std::uint64_t seed, std::size_t pos = 6,
                       std::size_t latches = 0) {
  BenchSpec spec;
  spec.name = "sess" + std::to_string(seed) + "_" + std::to_string(pos);
  spec.num_pis = 10;
  spec.num_pos = pos;
  spec.num_latches = latches;
  spec.gate_target = 90;
  spec.seed = seed;
  return spec;
}

FlowOptions fast_options() {
  FlowOptions options;
  options.sim.steps = 400;
  options.sim.warmup = 8;
  return options;
}

/// Bit-identical comparison of every deterministic FlowReport field
/// (everything except wall-clock seconds).
void expect_reports_identical(const FlowReport& a, const FlowReport& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.pis, b.pis);
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.latches, b.latches);
  EXPECT_EQ(a.synth_gates, b.synth_gates);
  EXPECT_EQ(a.block_gates, b.block_gates);
  EXPECT_EQ(a.boundary_inverters, b.boundary_inverters);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.est_power, b.est_power);
  EXPECT_EQ(a.sim_power, b.sim_power);
  EXPECT_EQ(a.sim_breakdown.domino_block, b.sim_breakdown.domino_block);
  EXPECT_EQ(a.sim_breakdown.input_inverters, b.sim_breakdown.input_inverters);
  EXPECT_EQ(a.sim_breakdown.output_inverters, b.sim_breakdown.output_inverters);
  EXPECT_EQ(a.sim_breakdown.clock_load, b.sim_breakdown.clock_load);
  EXPECT_EQ(a.critical_delay, b.critical_delay);
  EXPECT_EQ(a.timing_met, b.timing_met);
  EXPECT_EQ(a.resize_moves, b.resize_moves);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.negative_outputs, b.negative_outputs);
  EXPECT_EQ(a.search_evaluations, b.search_evaluations);
  EXPECT_EQ(a.used_exact_bdd, b.used_exact_bdd);
  EXPECT_EQ(a.equivalence_ok, b.equivalence_ok);
}

TEST(FlowSession, StagedReportsMatchMonolithicRunFlow) {
  // 12 POs > exhaustive_pos_limit, so kMinPower takes the MA-seeded §4.1
  // heuristic path — the one whose seeding the session dedupes.
  const Network net = generate_benchmark(session_spec(11, /*pos=*/12));
  FlowOptions options = fast_options();
  FlowSession session(net, options);
  for (const PhaseMode mode :
       {PhaseMode::kAllPositive, PhaseMode::kMinArea, PhaseMode::kMinPower,
        PhaseMode::kExhaustivePower}) {
    options.mode = mode;
    const FlowReport monolithic = run_flow(net, options);
    const FlowReport staged = session.report(mode);
    expect_reports_identical(staged, monolithic);
  }
}

TEST(FlowSession, SharedStagesBuildExactlyOnce) {
  const Network net = generate_benchmark(session_spec(12, /*pos=*/12));
  FlowSession session(net, fast_options());
  (void)session.report(PhaseMode::kMinArea);
  (void)session.report(PhaseMode::kMinPower);
  (void)session.report(PhaseMode::kExhaustivePower);

  const FlowSession::Stats& stats = session.stats();
  EXPECT_EQ(stats.synth_builds, 1u);
  EXPECT_EQ(stats.prob_builds, 1u);
  EXPECT_EQ(stats.context_builds, 1u);
  // MA, MP, exhaustive — and MP's min-area seed came from the cached MA
  // stage instead of a fourth search.
  EXPECT_EQ(stats.assign_searches, 3u);
  EXPECT_EQ(stats.map_runs, 3u);
  EXPECT_EQ(stats.measure_runs, 3u);

  // Re-reporting a cached mode does no new work.
  (void)session.report(PhaseMode::kMinArea);
  EXPECT_EQ(session.stats().assign_searches, 3u);
  EXPECT_EQ(session.stats().measure_runs, 3u);
}

TEST(FlowSession, MinPowerSeedsFromCachedMinArea) {
  const Network net = generate_benchmark(session_spec(13, /*pos=*/12));
  FlowOptions options = fast_options();

  // Asking for MP alone materializes exactly two searches: the min-area
  // seed (cached as the MA stage) and the min-power loop.
  FlowSession session(net, options);
  const FlowSession::AssignStage& mp = session.assign(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().assign_searches, 2u);

  // The cached MA stage is the very seed MP used, and the reported
  // evaluation count matches the monolithic flow (trials + seed evals).
  const FlowSession::AssignStage& ma = session.assign(PhaseMode::kMinArea);
  EXPECT_EQ(session.stats().assign_searches, 2u);
  options.mode = PhaseMode::kMinPower;
  const FlowReport monolithic = run_flow(net, options);
  EXPECT_EQ(mp.search_evaluations, monolithic.search_evaluations);
  EXPECT_GT(mp.search_evaluations, ma.search_evaluations);
}

TEST(FlowSession, SetOptionsInvalidatesOnlyAffectedStages) {
  const Network net = generate_benchmark(session_spec(14));
  FlowOptions options = fast_options();
  FlowSession session(net, options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().sample_builds, 1u);

  // Simulation settings: only the measurement re-runs, from a new sample.
  options.sim.steps = 500;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().assign_searches, 1u);
  EXPECT_EQ(session.stats().map_runs, 1u);
  EXPECT_EQ(session.stats().measure_runs, 2u);
  EXPECT_EQ(session.stats().sample_builds, 2u);

  // Power model: context + search + downstream, but not the probabilities
  // and not the sample.
  options.model.load_aware = false;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().prob_builds, 1u);
  EXPECT_EQ(session.stats().context_builds, 2u);
  EXPECT_EQ(session.stats().assign_searches, 2u);
  EXPECT_EQ(session.stats().sample_builds, 2u);

  // PI probability: everything from the probabilities down.
  options.pi_prob = 0.7;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().synth_builds, 1u);
  EXPECT_EQ(session.stats().prob_builds, 2u);
  EXPECT_EQ(session.stats().context_builds, 3u);
  EXPECT_EQ(session.stats().sample_builds, 3u);

  // Thread count: results are thread-count independent, so nothing is stale.
  options.num_threads = 4;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().prob_builds, 2u);
  EXPECT_EQ(session.stats().context_builds, 3u);
  EXPECT_EQ(session.stats().assign_searches, 3u);
  EXPECT_EQ(session.stats().sample_builds, 3u);

  // Clock, mapping and search seed re-measure from the same sample.
  const std::size_t measures = session.stats().measure_runs;
  const auto expect_sample_kept = [&](const char* what) {
    session.set_options(options);
    (void)session.report(PhaseMode::kMinPower);
    EXPECT_EQ(session.stats().sample_builds, 3u) << what;
  };
  options.clock_period = 0.9 * session.report(PhaseMode::kMinArea).critical_delay;
  expect_sample_kept("clock");
  options.map_options.max_or_arity = 6;
  expect_sample_kept("map options");
  options.minarea.seed += 1;
  options.minpower.seed += 1;
  expect_sample_kept("search seed");
  EXPECT_EQ(session.stats().measure_runs, measures + 4);

  // The simulation's seed and warmup rebuild it, as steps and pi_prob did.
  options.sim.seed += 1;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().sample_builds, 4u);
  options.sim.warmup += 1;
  session.set_options(options);
  (void)session.report(PhaseMode::kMinPower);
  EXPECT_EQ(session.stats().sample_builds, 5u);
}

/// measure() against the oracle: simulate_domino_power on the mapped netlist.
void expect_measure_matches_oracle(FlowSession& session, PhaseMode mode,
                                   const std::string& what) {
  const FlowSession::MeasureStage& measured = session.measure(mode);
  const FlowOptions& options = session.options();
  const MappedNetlist& netlist = session.map(mode).netlist;
  SimPowerOptions sim = options.sim;
  sim.node_caps = netlist.node_loads(options.wire_cap);
  const std::vector<double> pi_probs(netlist.net.num_pis(), options.pi_prob);
  PowerBreakdown oracle = simulate_domino_power(netlist.net, pi_probs, sim).per_cycle;
  if (options.count_clock_load) oracle.clock_load += netlist.clock_load();
  EXPECT_EQ(measured.breakdown.domino_block, oracle.domino_block) << what;
  EXPECT_EQ(measured.breakdown.input_inverters, oracle.input_inverters) << what;
  EXPECT_EQ(measured.breakdown.output_inverters, oracle.output_inverters) << what;
  EXPECT_EQ(measured.breakdown.clock_load, oracle.clock_load) << what;
}

TEST(FlowSession, ReplayedMeasureEqualsSimulationOracle) {
  for (const BenchSpec& spec : paper_suite()) {
    const Network net = generate_benchmark(spec);
    FlowOptions options = fast_options();
    FlowSession session(net, options);
    expect_measure_matches_oracle(session, PhaseMode::kMinArea, spec.name + " MA");
    expect_measure_matches_oracle(session, PhaseMode::kMinPower, spec.name + " MP");
    options.clock_period = 1.05 * session.map(PhaseMode::kMinArea).critical_delay;
    session.set_options(options);
    expect_measure_matches_oracle(session, PhaseMode::kMinPower, spec.name + " MP timed");
    EXPECT_EQ(session.stats().sample_builds, 1u) << spec.name;
  }
  // A random sequential circuit: latch lanes carry state across steps.
  const Network seq = generate_benchmark(session_spec(16, /*pos=*/8, /*latches=*/5));
  FlowSession session(seq, fast_options());
  expect_measure_matches_oracle(session, PhaseMode::kMinPower, "sequential");
}

TEST(FlowSession, ChunkedTreesAreSimulatedDirectly) {
  // DAND cells stop at 4 inputs: a 6-wide AND tree maps to chunk cells that
  // compute only part of it and have no synthesized counterpart.
  const Network net = generate_benchmark(session_spec(17, /*pos=*/12));
  FlowOptions options = fast_options();
  options.map_options.max_and_arity = 6;
  FlowSession session(net, options);
  const FlowSession::MapStage& mapped = session.map(PhaseMode::kMinPower);
  EXPECT_TRUE(std::ranges::any_of(mapped.provenance, [](const Counterpart& c) {
    return c.node == kNullNode;
  }));
  EXPECT_TRUE(mapped.equivalence_ok);
  expect_measure_matches_oracle(session, PhaseMode::kMinPower, "chunked");
  EXPECT_EQ(session.stats().sample_builds, 0u);
}

TEST(Equivalence, WrongCounterpartFailsTheMappedCheck) {
  const Network net = generate_benchmark(session_spec(18, /*pos=*/12));
  FlowSession session(net, fast_options());
  const FlowSession::MapStage& mapped = session.map(PhaseMode::kMinPower);
  const Network& synth = session.synthesized();
  ASSERT_TRUE(mapped.equivalence_ok);
  ASSERT_TRUE(random_equivalent(synth, mapped.netlist.net, mapped.provenance));

  // Flip the polarity of one domino gate's counterpart.
  std::vector<Counterpart> wrong = mapped.provenance;
  NodeId gate = 0;
  while (mapped.netlist.net.kind(gate) != NodeKind::kAnd &&
         mapped.netlist.net.kind(gate) != NodeKind::kOr)
    ++gate;
  wrong[gate].negated = !wrong[gate].negated;
  EXPECT_FALSE(random_equivalent(synth, mapped.netlist.net, wrong));
}


TEST(FlowBatch, IdenticalReportsForEveryThreadCount) {
  const std::vector<BenchSpec> specs = {session_spec(21), session_spec(22, 8),
                                        session_spec(23, 5, /*latches=*/3)};
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  FlowOptions options = fast_options();
  std::vector<FlowJob> jobs;
  std::vector<FlowReport> sequential;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = options;
      job.options.mode = mode;
      jobs.push_back(job);
      sequential.push_back(run_flow(net, job.options));
    }
  }

  for (const unsigned threads : {1u, 2u, 5u, 0u}) {
    BatchOptions batch;
    batch.num_threads = threads;
    const std::vector<FlowReport> reports = run_flow_batch(jobs, batch);
    ASSERT_EQ(reports.size(), sequential.size()) << threads;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " job=" +
                   std::to_string(i));
      expect_reports_identical(reports[i], sequential[i]);
    }
  }
}

TEST(FlowBatch, SharesOneContextPerCircuitAcrossModes) {
  const std::vector<BenchSpec> specs = {session_spec(31), session_spec(32, 8)};
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = fast_options();
      job.options.mode = mode;
      jobs.push_back(job);
    }
  }

  SessionCache cache(8);
  BatchOptions batch;
  batch.num_threads = 2;
  batch.cache = &cache;
  (void)run_flow_batch(jobs, batch);

  // One lease per job: the first job of a circuit misses, every later one
  // lands on the hot session (2 modes per circuit).
  EXPECT_EQ(cache.misses(), specs.size());
  EXPECT_EQ(cache.hits(), specs.size());
  for (const BenchSpec& spec : specs) {
    const auto session = cache.peek(spec.name);
    ASSERT_NE(session, nullptr) << spec.name;
    EXPECT_EQ(session->stats().synth_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().prob_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().context_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().measure_runs, 2u) << spec.name;
  }

  // The service-frontend seed: a second batch over the same cache is served
  // entirely from the hot sessions — no stage is ever rebuilt.
  (void)run_flow_batch(jobs, batch);
  EXPECT_EQ(cache.misses(), specs.size());
  EXPECT_EQ(cache.hits(), jobs.size() + specs.size());
  for (const BenchSpec& spec : specs) {
    const auto session = cache.peek(spec.name);
    ASSERT_NE(session, nullptr) << spec.name;
    EXPECT_EQ(session->stats().synth_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().prob_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().measure_runs, 2u) << spec.name;
  }
}

TEST(FlowBatch, TinyCacheStillCorrectUnderEviction) {
  // An external capacity-1 cache with two interleaved circuits: entries are
  // evicted and rebuilt between jobs (the private-cache path would resize
  // instead).  Thrashing costs stage rebuilds, never exactness.
  const std::vector<BenchSpec> specs = {session_spec(61), session_spec(62, 8)};
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  std::vector<FlowReport> sequential;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = fast_options();
      job.options.mode = mode;
      jobs.push_back(job);
      sequential.push_back(run_flow(net, job.options));
    }
  }

  SessionCache tiny(1);
  BatchOptions batch;
  batch.num_threads = 2;
  batch.cache = &tiny;
  const std::vector<FlowReport> reports = run_flow_batch(jobs, batch);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("job=" + std::to_string(i));
    expect_reports_identical(reports[i], sequential[i]);
  }
}

TEST(FlowBatch, PrivateCacheNeverThrashesWithinOneBatch) {
  // More circuits than the default private-cache capacity: the batch sizes
  // its cache to the sweep, so every circuit's staged prefix is still built
  // exactly once (the old per-group frontend guaranteed this by holding
  // sessions; the serving path guarantees it by capacity).
  std::vector<BenchSpec> specs;
  for (std::uint64_t seed = 90; seed < 102; ++seed)
    specs.push_back(session_spec(seed));
  std::vector<Network> nets;
  nets.reserve(specs.size());
  for (const BenchSpec& spec : specs) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  for (const Network& net : nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &net;
      job.options = fast_options();
      job.options.mode = mode;
      jobs.push_back(job);
    }
  }
  ASSERT_GT(specs.size(), BatchOptions{}.cache_capacity);

  SessionCache probe(specs.size());  // mirror of what the batch does inside
  BatchOptions batch;
  batch.num_threads = 2;
  batch.cache = &probe;
  (void)run_flow_batch(jobs, batch);
  EXPECT_EQ(probe.evictions(), 0u);
  for (const BenchSpec& spec : specs) {
    const auto session = probe.peek(spec.name);
    ASSERT_NE(session, nullptr) << spec.name;
    EXPECT_EQ(session->stats().synth_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().prob_builds, 1u) << spec.name;
    EXPECT_EQ(session->stats().context_builds, 1u) << spec.name;
  }
}

TEST(FlowBatch, RejectsNullNetworks) {
  FlowJob job;
  job.options = fast_options();
  EXPECT_THROW((void)run_flow_batch(std::span<const FlowJob>(&job, 1), {}),
               std::invalid_argument);
}

TEST(SessionCache, RevalidatesOnChangedNetworkAndOptions) {
  const Network net_a = generate_benchmark(session_spec(41));
  const Network net_b = generate_benchmark(session_spec(42));
  const FlowOptions options = fast_options();

  SessionCache cache(4);
  const auto first = cache.acquire("ckt", net_a, options);
  (void)first->report(PhaseMode::kMinArea);
  EXPECT_EQ(cache.misses(), 1u);

  // Same key, same network: the hot session with its artifacts is reused.
  const auto again = cache.acquire("ckt", net_a, options);
  EXPECT_EQ(again.get(), first.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(again->stats().prob_builds, 1u);

  // Same key, changed options: same session, stale stages dropped lazily.
  FlowOptions warmer = options;
  warmer.pi_prob = 0.8;
  const auto reopt = cache.acquire("ckt", net_a, warmer);
  EXPECT_EQ(reopt.get(), first.get());
  (void)reopt->report(PhaseMode::kMinArea);
  EXPECT_EQ(reopt->stats().synth_builds, 1u);
  EXPECT_EQ(reopt->stats().prob_builds, 2u);

  // Same key, changed network: the session is replaced wholesale.
  const auto swapped = cache.acquire("ckt", net_b, options);
  EXPECT_NE(swapped.get(), first.get());
  EXPECT_EQ(cache.invalidations(), 1u);
}

/// Small sequential network for fingerprint-sensitivity checks.  The knobs
/// change exactly one aspect each, leaving everything else identical.
Network fingerprint_net(bool rename_po = false, bool rewire_latches = false,
                        bool or_gate = false) {
  Network net;
  net.set_name("fp");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId l0 = net.add_latch("l0");
  const NodeId l1 = net.add_latch("l1");
  const NodeId g = or_gate ? net.add_or(a, b) : net.add_and(a, b);
  const NodeId h = net.add_and(g, l0);
  net.set_latch_input(l0, rewire_latches ? h : g);
  net.set_latch_input(l1, rewire_latches ? g : h);
  net.add_po(rename_po ? "f_renamed" : "f", h);
  net.validate();
  return net;
}

TEST(NetworkFingerprint, StableAcrossIdenticalConstruction) {
  EXPECT_EQ(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net()));
}

TEST(NetworkFingerprint, SensitiveToPortRenames) {
  // Port names are part of a circuit's serving identity: a renamed PO must
  // not be served from the old key's cached stages.
  EXPECT_NE(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net(/*rename_po=*/true)));
}

TEST(NetworkFingerprint, SensitiveToLatchRewiring) {
  EXPECT_NE(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net(/*rename_po=*/false,
                                                /*rewire_latches=*/true)));
}

TEST(NetworkFingerprint, SensitiveToGateKindChanges) {
  EXPECT_NE(network_fingerprint(fingerprint_net()),
            network_fingerprint(fingerprint_net(/*rename_po=*/false,
                                                /*rewire_latches=*/false,
                                                /*or_gate=*/true)));
}

TEST(SessionCache, RevalidationRebuildsExactlyTheStaleStages) {
  const Network net = generate_benchmark(session_spec(71));
  FlowOptions options = fast_options();

  SessionCache cache(4);
  const auto session = cache.acquire("ckt", net, options);
  (void)session->report(PhaseMode::kMinPower);
  const FlowSession::Stats baseline = session->stats();

  // Changed sim settings: revalidation re-runs only the measurement.
  options.sim.steps = 512;
  const auto resim = cache.acquire("ckt", net, options);
  ASSERT_EQ(resim.get(), session.get());
  (void)resim->report(PhaseMode::kMinPower);
  EXPECT_EQ(resim->stats().assign_searches, baseline.assign_searches);
  EXPECT_EQ(resim->stats().map_runs, baseline.map_runs);
  EXPECT_EQ(resim->stats().measure_runs, baseline.measure_runs + 1);

  // A clock target: mapping + measurement rebuild, the search is kept.
  options.clock_period = 1e6;
  const auto reclock = cache.acquire("ckt", net, options);
  ASSERT_EQ(reclock.get(), session.get());
  (void)reclock->report(PhaseMode::kMinPower);
  EXPECT_EQ(reclock->stats().assign_searches, baseline.assign_searches);
  EXPECT_EQ(reclock->stats().map_runs, baseline.map_runs + 1);
  EXPECT_EQ(reclock->stats().measure_runs, baseline.measure_runs + 2);

  // A renamed port changes the fingerprint: the whole session is replaced
  // even though the logic is untouched.
  const auto renamed =
      cache.acquire("fpkey", fingerprint_net(), options);
  const auto replaced =
      cache.acquire("fpkey", fingerprint_net(/*rename_po=*/true), options);
  EXPECT_NE(replaced.get(), renamed.get());
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(SessionCache, BoundsItsWorkingSetLru) {
  const Network net_a = generate_benchmark(session_spec(51));
  const Network net_b = generate_benchmark(session_spec(52));
  const Network net_c = generate_benchmark(session_spec(53));
  const FlowOptions options = fast_options();

  SessionCache cache(2);
  (void)cache.acquire("a", net_a, options);
  (void)cache.acquire("b", net_b, options);
  // Touch "a" so "b" is the LRU victim when "c" arrives.
  (void)cache.acquire("a", net_a, options);
  (void)cache.acquire("c", net_c, options);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("b"), nullptr);
  EXPECT_NE(cache.peek("c"), nullptr);
}

// -- golden bit pins ------------------------------------------------------------
// The identity tests above compare two paths of one build.  These pin
// values across commits: a reordered energy accumulation in the power
// simulator, or a drifted min-area annealing trajectory, fails here even
// when both paths of a build still agree.  The values are the Table 1 flow's
// (pi 0.5, 1024 simulation steps, 16 warm-up) and must only change together
// with a deliberate, documented change of the model or the search.

FlowOptions table1_options() {
  FlowOptions options;
  options.pi_prob = 0.5;
  options.sim.steps = 1024;
  options.sim.warmup = 16;
  return options;
}

/// Order-sensitive checksum of the per-node event counts (activity x cycles,
/// an exact integer below 2^53).
std::uint64_t activity_checksum(const SimPowerResult& sim) {
  std::uint64_t sum = 0;
  for (const double rate : sim.activity)
    sum = sum * 1099511628211ULL +
          static_cast<std::uint64_t>(
              std::llround(rate * static_cast<double>(sim.cycles)));
  return sum;
}

/// The measure stage's simulation of one mode's mapped netlist, with the
/// per-node activity the stage itself drops.
SimPowerResult measure_with_activity(FlowSession& session, PhaseMode mode) {
  const FlowOptions& options = session.options();
  const MappedNetlist& netlist = session.map(mode).netlist;
  SimPowerOptions sim = options.sim;
  sim.node_caps = netlist.node_loads(options.wire_cap);
  const std::vector<double> pi_probs(netlist.net.num_pis(), options.pi_prob);
  return simulate_domino_power(netlist.net, pi_probs, sim);
}

std::string assignment_string(const PhaseAssignment& phases) {
  std::string out;
  for (const Phase phase : phases) out += phase == Phase::kPositive ? '+' : '-';
  return out;
}

struct MeasurePin {
  const char* circuit;
  double domino_block, input_inverters, output_inverters, clock_load;
  std::uint64_t activity;
};

TEST(GoldenPins, SimulatedPowerOfMinPowerRealizations) {
  // apex7 is combinational; Industry 2 is a sequential block (16 latches)
  // whose lanes carry state from step to step.
  const MeasurePin pins[] = {
      {"apex7", 0x1.6f32c1a01abe2p+8, 0x1.48c7222222229p+7,
       0x1.874b2cb2cb2cbp+1, 0x0p+0, 14128285382537054819ULL},
      {"Industry 2", 0x1.120ce797f890cp+11, 0x1.3edf35a35a343p+9,
       0x1.2cddf7df7df7ep+4, 0x0p+0, 7448909574153572205ULL},
  };
  for (const MeasurePin& pin : pins) {
    const Network net = generate_benchmark(paper_spec(pin.circuit));
    FlowSession session(net, table1_options());
    const SimPowerResult sim = measure_with_activity(session, PhaseMode::kMinPower);
    EXPECT_EQ(sim.cycles, 64u * (1024 - 16)) << pin.circuit;
    EXPECT_EQ(sim.per_cycle.domino_block, pin.domino_block) << pin.circuit;
    EXPECT_EQ(sim.per_cycle.input_inverters, pin.input_inverters) << pin.circuit;
    EXPECT_EQ(sim.per_cycle.output_inverters, pin.output_inverters) << pin.circuit;
    EXPECT_EQ(sim.per_cycle.clock_load, pin.clock_load) << pin.circuit;
    EXPECT_EQ(activity_checksum(sim), pin.activity) << pin.circuit;
  }
}

TEST(GoldenPins, AnnealedMinAreaAssignments) {
  // Both circuits exceed the exact search's output limit, so these are the
  // annealing restarts' answers.
  const struct {
    const char* circuit;
    const char* assignment;
    std::size_t area;
  } pins[] = {
      {"x1", "+++-+++++++++-+++++--+++++--", 1079},
      {"Industry 2",
       "++++-+++++++++--+-++++-++---++++--++++-++-+++-+--++--+++++++++-++--+"
       "---+-+++--+++-++++",
       4585},
  };
  for (const auto& pin : pins) {
    const Network net = generate_benchmark(paper_spec(pin.circuit));
    FlowSession session(net, table1_options());
    const FlowSession::AssignStage& ma = session.assign(PhaseMode::kMinArea);
    EXPECT_EQ(assignment_string(ma.assignment), pin.assignment) << pin.circuit;
    EXPECT_EQ(ma.cost.area_cells(), pin.area) << pin.circuit;
  }
}

TEST(GoldenPins, MinPowerSearchOnWideCircuit) {
  // Industry 3 (199 outputs) under Table 1's options, seeded from the
  // annealed min-area answer: the whole §4.1 trajectory — every K-ordered
  // pick, commit and rescore — shows in these counters.
  const Network net = generate_benchmark(paper_spec("Industry 3"));
  FlowSession session(net, table1_options());
  MinPowerOptions options = session.options().minpower;
  options.initial = session.assign(PhaseMode::kMinArea).assignment;
  const MinPowerResult mp =
      min_power_assignment(session.evaluator(), session.cone_overlap(), options);
  EXPECT_EQ(mp.trials, 20099u);
  EXPECT_EQ(mp.commits, 84u);
  EXPECT_EQ(mp.commit_rescore_pairs, 11245u);
  EXPECT_EQ(mp.final_power, 0x1.9318d0ddf2734p+11);  // 3224.7754964576106
  EXPECT_EQ(assignment_string(mp.assignment),
            "--++-++-++-++------++--+----+-+----+-----++++--+++----+-+----+--+"
            "----+-+-++---+-+---+++++--++++--+-----+++--++-++-+---+-----+-----"
            "-+--------++-----+++-++---+-+----+--+-+-+-+-+---+--++++-+----+-+-"
            "-++-");
  // The flow's own MP stage runs the same search.
  EXPECT_EQ(session.assign(PhaseMode::kMinPower).assignment, mp.assignment);
}

TEST(GoldenPins, SessionMeasureOfMinPowerRealizations) {
  // The same hexfloats as SimulatedPowerOfMinPowerRealizations, read from
  // the session's own (replayed) measurement.
  const struct {
    const char* circuit;
    double domino_block, input_inverters, output_inverters, clock_load;
  } pins[] = {
      {"apex7", 0x1.6f32c1a01abe2p+8, 0x1.48c7222222229p+7, 0x1.874b2cb2cb2cbp+1, 0x0p+0},
      {"Industry 2", 0x1.120ce797f890cp+11, 0x1.3edf35a35a343p+9,
       0x1.2cddf7df7df7ep+4, 0x0p+0},
  };
  for (const auto& pin : pins) {
    const Network net = generate_benchmark(paper_spec(pin.circuit));
    FlowSession session(net, table1_options());
    const FlowReport report = session.report(PhaseMode::kMinPower);
    EXPECT_EQ(report.sim_breakdown.domino_block, pin.domino_block) << pin.circuit;
    EXPECT_EQ(report.sim_breakdown.input_inverters, pin.input_inverters) << pin.circuit;
    EXPECT_EQ(report.sim_breakdown.output_inverters, pin.output_inverters) << pin.circuit;
    // count_clock_load adds the mapped cells' clock pins.
    EXPECT_EQ(report.sim_breakdown.clock_load,
              pin.clock_load + session.map(PhaseMode::kMinPower).netlist.clock_load())
        << pin.circuit;
    EXPECT_EQ(session.stats().sample_builds, 1u) << pin.circuit;
  }
}

}  // namespace
}  // namespace dominosyn
