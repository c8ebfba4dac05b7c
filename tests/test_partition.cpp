/// Tests for sequential-to-combinational partitioning and latch-probability
/// estimation (paper §4.2.1, Fig. 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "phase/assignment.hpp"
#include "sgraph/partition.hpp"
#include "sim/sim.hpp"

namespace dominosyn {
namespace {

TEST(Partition, CombinationalReducesToPlainProbabilities) {
  const Network net = make_figure5_circuit();
  const std::vector<double> pi_probs(net.num_pis(), 0.9);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_TRUE(result.cut_latches.empty());
  EXPECT_TRUE(result.used_exact_bdd);
  EXPECT_NEAR(result.node_probs[net.pos()[0].driver], 0.9981, 1e-12);
  EXPECT_NEAR(result.node_probs[net.pos()[1].driver], 0.8019, 1e-12);
}

TEST(Partition, PipelineLatchProbsPropagate) {
  // Acyclic latch chain: s1 <- a&b, s2 <- s1|c.  No cuts needed; latch
  // probabilities follow the cone probabilities of the previous stage.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId s1 = net.add_latch("s1");
  const NodeId s2 = net.add_latch("s2");
  net.set_latch_input(s1, net.add_and(a, b));
  net.set_latch_input(s2, net.add_or(s1, c));
  net.add_po("f", s2);

  const std::vector<double> pi_probs(3, 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_TRUE(result.cut_latches.empty());
  EXPECT_NEAR(result.latch_probs[0], 0.25, 1e-12);          // p(a&b)
  EXPECT_NEAR(result.latch_probs[1], 1 - 0.75 * 0.5, 1e-12);  // p(s1|c)
}

TEST(Partition, SelfLoopLatchGetsCut) {
  // Toggle-ish latch: s <- !s & a.  The s-graph is a self-loop; s must be in
  // the cut and defaults to the prior probability 0.5.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s = net.add_latch("s");
  net.set_latch_input(s, net.add_and(net.add_not(s), a));
  net.add_po("f", s);

  const std::vector<double> pi_probs(1, 1.0);
  SeqProbOptions options;
  const auto result = sequential_signal_probabilities(net, pi_probs, options);
  EXPECT_EQ(result.cut_latches, (std::vector<std::uint32_t>{0}));
  EXPECT_NEAR(result.latch_probs[0], 0.5, 1e-12);
}

TEST(Partition, FixpointSweepsRefineCutLatches) {
  // s <- s | a with p(a) = 0.5: the true steady-state probability of s
  // approaches 1.  Fixpoint sweeps should move the cut-latch prior upward.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s = net.add_latch("s");
  net.set_latch_input(s, net.add_or(s, a));
  net.add_po("f", s);

  const std::vector<double> pi_probs(1, 0.5);
  SeqProbOptions none;
  none.fixpoint_sweeps = 0;
  const auto base = sequential_signal_probabilities(net, pi_probs, none);
  EXPECT_NEAR(base.latch_probs[0], 0.5, 1e-12);

  SeqProbOptions refined;
  refined.fixpoint_sweeps = 6;
  const auto better = sequential_signal_probabilities(net, pi_probs, refined);
  EXPECT_GT(better.latch_probs[0], 0.95);
}

TEST(Partition, CrossCoupledLatchesCutOnce) {
  // s0 <-> s1 two-cycle: one cut breaks it; the other latch follows.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId s0 = net.add_latch("s0");
  const NodeId s1 = net.add_latch("s1");
  net.set_latch_input(s0, net.add_and(s1, a));
  net.set_latch_input(s1, net.add_or(s0, a));
  net.add_po("f", net.add_and(s0, s1));

  const std::vector<double> pi_probs(1, 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_EQ(result.cut_latches.size(), 1u);
  EXPECT_EQ(result.sgraph_edges, 2u);
  // The non-cut latch probability is derived, not the 0.5 prior.
  const auto cut = result.cut_latches[0];
  const auto other = 1 - cut;
  if (cut == 0)
    EXPECT_NEAR(result.latch_probs[other], 0.75, 1e-9);  // p(s0|a), s0=0.5
  else
    EXPECT_NEAR(result.latch_probs[other], 0.25, 1e-9);  // p(s1&a)
}

TEST(Partition, ApproxFallbackUnderTinyNodeLimit) {
  BenchSpec spec;
  spec.name = "seqfb";
  spec.num_pis = 10;
  spec.num_pos = 4;
  spec.num_latches = 5;
  spec.gate_target = 120;
  spec.seed = 77;
  const Network net = generate_benchmark(spec);
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  const auto exact = sequential_signal_probabilities(net, pi_probs);
  ASSERT_TRUE(exact.used_exact_bdd);
  SeqProbOptions options;
  options.bdd_work_budget = 8;
  const auto result = sequential_signal_probabilities(net, pi_probs, options);
  EXPECT_FALSE(result.used_exact_bdd);
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    EXPECT_NEAR(result.node_probs[id], exact.node_probs[id], 0.01) << "node " << id;
  for (std::size_t k = 0; k < net.num_latches(); ++k)
    EXPECT_NEAR(result.latch_probs[k], exact.latch_probs[k], 0.01) << "latch " << k;
}

TEST(Partition, ProbabilitiesMatchSequentialSimulation) {
  // End-to-end sanity: steady-state latch probabilities from the analytic
  // partitioned computation should be close to a long clocked simulation of
  // an inverter-free sequential network.
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId s0 = net.add_latch("s0");
  const NodeId s1 = net.add_latch("s1");
  net.set_latch_input(s0, net.add_or(net.add_and(a, b), net.add_and(s1, b)));
  net.set_latch_input(s1, net.add_and(s0, net.add_or(a, b)));
  net.add_po("f", net.add_or(s0, s1));
  // Make it inverter-free for the domino simulator (it already is).

  const std::vector<double> pi_probs(2, 0.5);
  SeqProbOptions options;
  options.fixpoint_sweeps = 8;
  const auto analytic = sequential_signal_probabilities(net, pi_probs, options);

  SimPowerOptions sim;
  sim.steps = 3000;
  sim.warmup = 100;
  const auto measured = simulate_domino_power(net, pi_probs, sim);
  for (std::size_t k = 0; k < net.num_latches(); ++k) {
    const NodeId out = net.latches()[k].output;
    EXPECT_NEAR(analytic.latch_probs[k], measured.one_rate[out], 0.05)
        << "latch " << k;
  }
}

TEST(Partition, SymmetryStatsSurface) {
  // Clone-heavy sequential structure should report symmetry merges.
  Network net;
  const NodeId a = net.add_pi("a");
  std::vector<NodeId> group;
  for (int i = 0; i < 3; ++i) group.push_back(net.add_latch("g" + std::to_string(i)));
  const NodeId c = net.add_latch("c");
  const NodeId d = net.add_latch("d");
  // A/B/E-style: each group latch reads {c,d}; c,d read all group latches.
  for (const NodeId g : group)
    net.set_latch_input(g, net.add_and(net.add_or(c, d), a));
  const NodeId all = net.add_and(net.add_and(group[0], group[1]), group[2]);
  net.set_latch_input(c, all);
  net.set_latch_input(d, net.add_or(net.add_or(group[0], group[1]), group[2]));
  net.add_po("f", c);

  const std::vector<double> pi_probs(1, 0.5);
  const auto result = sequential_signal_probabilities(net, pi_probs);
  EXPECT_GT(result.symmetry_merges, 0u);
  EXPECT_EQ(result.cut_latches.size(), 2u);  // {c, d}
}

// ---- sampled fallback ----------------------------------------------------------

/// Sampled probabilities with the exact attempt tripped at once.
SeqProbResult sampled_probabilities(const Network& net, double pi_prob) {
  SeqProbOptions options;
  options.bdd_work_budget = 0;
  return sequential_signal_probabilities(
      net, std::vector<double>(net.num_pis(), pi_prob), options);
}

/// Checks a sampled result against the exact one: every node within 0.01
/// and inside the reported 95 % half-width.  That band is a 95 % interval at
/// the widest node, so at most 5 % of nodes may fall outside it, and none by
/// more than twice its width.
void expect_sampled_matches_exact(const Network& net, const SeqProbResult& exact,
                                  const SeqProbResult& sampled) {
  ASSERT_TRUE(exact.used_exact_bdd);
  ASSERT_FALSE(sampled.used_exact_bdd);
  EXPECT_EQ(exact.prob_halfwidth, 0.0);
  ASSERT_GT(sampled.prob_halfwidth, 0.0);
  std::size_t outside = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const double error = std::abs(sampled.node_probs[id] - exact.node_probs[id]);
    EXPECT_LE(error, 0.01) << "node " << id;
    EXPECT_LE(error, 2.0 * sampled.prob_halfwidth) << "node " << id;
    if (error > sampled.prob_halfwidth) ++outside;
  }
  EXPECT_LE(outside * 20, net.num_nodes())
      << outside << " of " << net.num_nodes() << " nodes outside";
  for (std::size_t k = 0; k < net.num_latches(); ++k)
    EXPECT_NEAR(sampled.latch_probs[k], exact.latch_probs[k], 0.01) << "latch " << k;
}

class SampledVsExact : public ::testing::TestWithParam<double> {};

TEST_P(SampledVsExact, Figure5) {
  const Network net = make_figure5_circuit();
  const std::vector<double> pi_probs(net.num_pis(), GetParam());
  expect_sampled_matches_exact(net, sequential_signal_probabilities(net, pi_probs),
                               sampled_probabilities(net, GetParam()));
}

TEST_P(SampledVsExact, RandomCombinationalBlocks) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    BenchSpec spec;
    spec.name = "comb";
    spec.num_pis = 16;
    spec.num_pos = 6;
    spec.gate_target = 300;
    spec.seed = seed;
    const Network net = generate_benchmark(spec);
    const std::vector<double> pi_probs(net.num_pis(), GetParam());
    SCOPED_TRACE(seed);
    expect_sampled_matches_exact(net, sequential_signal_probabilities(net, pi_probs),
                                 sampled_probabilities(net, GetParam()));
  }
}

TEST_P(SampledVsExact, RandomSequentialBlockWithNonCutLatches) {
  BenchSpec spec;
  spec.name = "seq";
  spec.num_pis = 14;
  spec.num_pos = 6;
  spec.num_latches = 10;
  spec.gate_target = 300;
  spec.seed = 5;
  const Network net = generate_benchmark(spec);
  const std::vector<double> pi_probs(net.num_pis(), GetParam());
  const auto exact = sequential_signal_probabilities(net, pi_probs);
  ASSERT_LT(exact.cut_latches.size(), net.num_latches()) << "no non-cut latch";
  const auto sampled = sampled_probabilities(net, GetParam());
  EXPECT_EQ(sampled.cut_latches, exact.cut_latches);
  expect_sampled_matches_exact(net, exact, sampled);
  // Each source draws from its own stream, so a resolved latch's sampled
  // probability is exactly its next-state node's.
  for (std::size_t k = 0; k < net.num_latches(); ++k) {
    if (std::find(exact.cut_latches.begin(), exact.cut_latches.end(), k) ==
        exact.cut_latches.end()) {
      EXPECT_EQ(sampled.node_probs[net.latches()[k].input], sampled.latch_probs[k])
          << "latch " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PiProbs, SampledVsExact, ::testing::Values(0.5, 0.9));

TEST(Sampled, DualNodesComplementExactly) {
  // Property 4.1: the dual of a node has probability 1 - p.  Both phases are
  // simulated on the same samples, so the sampled path keeps it exactly.
  BenchSpec spec;
  spec.name = "dual";
  spec.num_pis = 12;
  spec.num_pos = 6;
  spec.gate_target = 200;
  spec.seed = 3;
  FlowSession session(generate_benchmark(spec), FlowOptions{});
  const Network& net = session.synthesized();
  PhaseAssignment phases(net.num_pos(), Phase::kPositive);
  for (std::size_t i = 0; i < phases.size(); i += 2) phases[i] = Phase::kNegative;
  const DominoSynthesisResult domino = synthesize_domino(net, phases);
  const auto sampled = sampled_probabilities(domino.net, 0.7);
  ASSERT_FALSE(sampled.used_exact_bdd);
  std::size_t pairs = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NodeId pos = domino.pos_impl[id];
    const NodeId neg = domino.neg_impl[id];
    if (pos == kNullNode || neg == kNullNode) continue;
    ++pairs;
    EXPECT_NEAR(sampled.node_probs[neg], 1.0 - sampled.node_probs[pos], 1e-12)
        << "node " << id;
  }
  EXPECT_GT(pairs, 0u);
}

TEST(Sampled, DeterministicAcrossCallsAndThreadCounts) {
  BenchSpec spec;
  spec.name = "det";
  spec.num_pis = 12;
  spec.num_pos = 5;
  spec.num_latches = 6;
  spec.gate_target = 250;
  spec.seed = 9;
  const Network net = generate_benchmark(spec);
  FlowOptions options;
  options.pi_prob = 0.9;
  options.seqprob.bdd_work_budget = 0;
  std::vector<SeqProbResult> runs;
  for (const unsigned threads : {1u, 4u, 1u}) {
    options.num_threads = threads;
    FlowSession session(net, options);
    runs.push_back(session.probabilities());
  }
  ASSERT_FALSE(runs[0].used_exact_bdd);
  for (const SeqProbResult& run : runs) {
    EXPECT_EQ(run.node_probs, runs[0].node_probs);
    EXPECT_EQ(run.latch_probs, runs[0].latch_probs);
    EXPECT_EQ(run.prob_halfwidth, runs[0].prob_halfwidth);
  }
}

}  // namespace
}  // namespace dominosyn
