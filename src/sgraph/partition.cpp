#include "sgraph/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace dominosyn {

namespace {

/// Splits a topological order of the non-removed s-graph vertices into
/// levels: a vertex's level is one past the deepest non-removed predecessor.
std::vector<LatchGroup> level_groups(const SGraph& sgraph,
                                     const std::vector<bool>& removed,
                                     std::span<const std::uint32_t> topo) {
  std::vector<std::size_t> level(sgraph.num_vertices(), 0);
  std::vector<LatchGroup> groups;
  for (const std::uint32_t v : topo) {
    for (const std::uint32_t u : sgraph.predecessors(v))
      if (!removed[u]) level[v] = std::max(level[v], level[u] + 1);
    if (level[v] >= groups.size()) groups.resize(level[v] + 1);
    groups[level[v]].push_back(v);
  }
  return groups;
}

}  // namespace

SeqProbResult sequential_signal_probabilities(const Network& net,
                                              std::span<const double> pi_probs,
                                              const SeqProbOptions& options) {
  SeqProbResult result;
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("sequential_signal_probabilities: PI prob count mismatch");

  // Combinational case: no partitioning needed, the schedule stays empty.
  std::vector<LatchGroup> schedule;
  if (net.num_latches() > 0) {
    const SGraph sgraph = SGraph::from_network(net);
    result.sgraph_edges = sgraph.num_edges();
    const MfvsResult mfvs = mfvs_heuristic(sgraph, options.mfvs);
    result.cut_latches = mfvs.fvs;
    result.symmetry_merges = mfvs.symmetry_merges;

    std::vector<bool> removed(net.num_latches(), false);
    for (const std::uint32_t v : result.cut_latches) removed[v] = true;
    const std::vector<LatchGroup> levels =
        level_groups(sgraph, removed, sgraph.topo_order_without(removed));

    // Non-cut latches level by level; each fixpoint sweep then re-resolves
    // the cut latches one at a time and the levels again.
    schedule = levels;
    for (unsigned sweep = 0; sweep < options.fixpoint_sweeps; ++sweep) {
      for (const std::uint32_t v : result.cut_latches) schedule.push_back({v});
      schedule.insert(schedule.end(), levels.begin(), levels.end());
    }
  }

  const std::vector<double> initial(net.num_latches(), options.cut_latch_prob);
  NetworkProbabilities probs = network_probabilities(
      net, pi_probs, initial, schedule, options.ordering, options.bdd_work_budget);
  result.node_probs = std::move(probs.node_probs);
  result.latch_probs = std::move(probs.latch_probs);
  result.used_exact_bdd = probs.exact;
  result.prob_halfwidth = probs.halfwidth;
  result.abandoned_seconds = probs.abandoned_seconds;
  return result;
}

}  // namespace dominosyn
