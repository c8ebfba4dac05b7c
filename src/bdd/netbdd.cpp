#include "bdd/netbdd.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace dominosyn {

NetworkBdds build_bdds(const Network& net, const VariableOrder& order,
                       std::size_t work_budget) {
  NetworkBdds result;
  result.order = order;
  result.mgr = std::make_unique<BddManager>(order.num_vars(), work_budget);
  BddManager& mgr = *result.mgr;

  result.node_funcs.assign(net.num_nodes(), Bdd{});
  result.node_funcs[Network::const0()] = mgr.bdd_false();
  result.node_funcs[Network::const1()] = mgr.bdd_true();
  for (const NodeId src : net.pis())
    result.node_funcs[src] = mgr.var(order.level_of.at(src));
  for (const auto& latch : net.latches())
    result.node_funcs[latch.output] = mgr.var(order.level_of.at(latch.output));

  for (const NodeId id : net.topo_order()) {
    const auto& node = net.node(id);
    if (!is_gate_kind(node.kind)) continue;
    Bdd acc;
    switch (node.kind) {
      case NodeKind::kAnd: {
        acc = mgr.bdd_true();
        for (const NodeId f : node.fanins) acc = acc & result.node_funcs[f];
        break;
      }
      case NodeKind::kOr: {
        acc = mgr.bdd_false();
        for (const NodeId f : node.fanins) acc = acc | result.node_funcs[f];
        break;
      }
      case NodeKind::kXor: {
        acc = mgr.bdd_false();
        for (const NodeId f : node.fanins) acc = acc ^ result.node_funcs[f];
        break;
      }
      case NodeKind::kNot:
        acc = !result.node_funcs[node.fanins[0]];
        break;
      default:
        break;
    }
    result.node_funcs[id] = std::move(acc);
  }
  return result;
}

std::vector<double> exact_signal_probabilities(const Network& net,
                                               const NetworkBdds& bdds,
                                               std::span<const double> pi_probs,
                                               std::span<const double> latch_probs) {
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("exact_signal_probabilities: PI prob count mismatch");
  if (!latch_probs.empty() && latch_probs.size() != net.num_latches())
    throw std::runtime_error("exact_signal_probabilities: latch prob count mismatch");

  std::vector<double> var_probs(bdds.order.num_vars(), 0.5);
  for (std::size_t i = 0; i < net.num_pis(); ++i)
    var_probs[bdds.order.level_of.at(net.pis()[i])] = pi_probs[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    var_probs[bdds.order.level_of.at(net.latches()[i].output)] =
        latch_probs.empty() ? 0.5 : latch_probs[i];

  std::vector<double> result(net.num_nodes(), 0.0);
  // Shared memo across all nodes via prob_many.
  std::vector<Bdd> funcs;
  std::vector<NodeId> ids;
  funcs.reserve(net.num_nodes());
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (bdds.node_funcs[id].valid()) {
      funcs.push_back(bdds.node_funcs[id]);
      ids.push_back(id);
    }
  const auto probs = bdds.mgr->prob_many(funcs, var_probs);
  for (std::size_t i = 0; i < ids.size(); ++i) result[ids[i]] = probs[i];
  return result;
}

std::size_t scaled_work_budget(const Network& net, std::size_t base) {
  const std::size_t gates = net.num_gates();
  if (gates <= kBddBudgetGates) return base;
  const std::size_t per_gate = base / kBddBudgetGates;
  if (per_gate > std::numeric_limits<std::size_t>::max() / gates)
    return std::numeric_limits<std::size_t>::max();
  return std::max(base, per_gate * gates);
}

namespace {

/// Words per node simulated at a time: the live state of a pass is one
/// block per node.
constexpr std::size_t B = 16;
static_assert(B * 8 < 256, "per-byte popcount sums must not overflow");
static_assert(kSampleWords % B == 0);
constexpr std::uint64_t kSampleSeed = 0x5eed'9e37'79b9'7f4aULL;
constexpr double kSamples = static_cast<double>(kSampleWords * 64);

/// Number of one bits in one block of B words (SWAR byte counts, summed).
std::uint64_t block_popcount(const std::uint64_t* words) {
  std::uint64_t bytes = 0;
  for (std::size_t w = 0; w < B; ++w) {
    std::uint64_t x = words[w];
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    bytes += (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  }
  // Byte sums -> 16-bit lane sums (each <= 2 * 8 * B) -> total.
  bytes = (bytes & 0x00ff00ff00ff00ffULL) + ((bytes >> 8) & 0x00ff00ff00ff00ffULL);
  return (bytes * 0x0001000100010001ULL) >> 48;
}

/// out = op-fold of the fanin blocks.  Fanin slots precede the output slot,
/// so the blocks never overlap.
template <class Op>
void fold_block(std::uint64_t* __restrict out, const std::uint64_t* value,
                const std::uint32_t* fanin, const std::uint32_t* fanin_end, Op op) {
  const std::uint64_t* __restrict first = value + std::size_t{*fanin} * B;
  for (std::size_t w = 0; w < B; ++w) out[w] = first[w];
  for (++fanin; fanin != fanin_end; ++fanin) {
    const std::uint64_t* __restrict in = value + std::size_t{*fanin} * B;
    for (std::size_t w = 0; w < B; ++w) out[w] = op(out[w], in[w]);
  }
}

/// Word-parallel Monte Carlo over one network.  Nodes get dense slots in
/// topological order; a pass simulates kSampleWords words per node, B words
/// at a time.
class Sampler {
 public:
  explicit Sampler(const Network& net) : net_(net), topo_(net.topo_order()) {
    std::vector<std::uint32_t> slot(net.num_nodes(), 0);
    for (std::uint32_t s = 0; s < topo_.size(); ++s) slot[topo_[s]] = s;
    fanin_begin_.reserve(topo_.size() + 1);
    for (const NodeId id : topo_) {
      kind_.push_back(net.node(id).kind);
      fanin_begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
      for (const NodeId f : net.node(id).fanins) fanins_.push_back(slot[f]);
    }
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
  }

  /// Nodes in the transitive fanin of `roots` (roots included).
  [[nodiscard]] std::vector<bool> cone(std::span<const NodeId> roots) const {
    std::vector<bool> in_cone(net_.num_nodes(), false);
    std::vector<NodeId> stack(roots.begin(), roots.end());
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (in_cone[id]) continue;
      in_cone[id] = true;
      for (const NodeId f : net_.node(id).fanins)
        if (!in_cone[f]) stack.push_back(f);
    }
    return in_cone;
  }

  /// One pass over the nodes in `in_cone`: draws each source from its own
  /// stream at `source_prob[id]` (sources are constants, PIs and latches),
  /// simulates the gates, and returns the number of one-samples per NodeId
  /// (0 outside the cone).
  [[nodiscard]] std::vector<std::uint64_t> count_ones(
      std::span<const double> source_prob, const std::vector<bool>& in_cone) const {
    std::vector<std::uint32_t> sources, gates;
    for (std::uint32_t s = 0; s < topo_.size(); ++s) {
      if (!in_cone[topo_[s]]) continue;
      (is_source_kind(kind_[s]) ? sources : gates).push_back(s);
    }
    // Streams are seeded by NodeId, so every pass that draws a source at the
    // same probability sees the same samples.
    std::vector<Rng> streams;
    std::vector<BiasedBits> programs;
    streams.reserve(sources.size());
    programs.reserve(sources.size());
    for (const std::uint32_t s : sources) {
      streams.emplace_back(hash3(kSampleSeed, topo_[s], 0));
      programs.emplace_back(source_prob[topo_[s]]);
    }

    std::vector<std::uint64_t> value(topo_.size() * B, 0);
    std::vector<std::uint64_t> ones(topo_.size(), 0);
    for (std::size_t block = 0; block < kSampleWords / B; ++block) {
      for (std::size_t j = 0; j < sources.size(); ++j) {
        std::uint64_t* out = &value[sources[j] * B];
        for (std::size_t w = 0; w < B; ++w) out[w] = programs[j].next(streams[j]);
        ones[sources[j]] += block_popcount(out);
      }
      for (const std::uint32_t g : gates) {
        std::uint64_t* out = &value[g * B];
        const std::uint32_t* fanin = fanins_.data() + fanin_begin_[g];
        const std::uint32_t* fanin_end = fanins_.data() + fanin_begin_[g + 1];
        switch (kind_[g]) {
          case NodeKind::kAnd:
            fold_block(out, value.data(), fanin, fanin_end, std::bit_and<>{});
            break;
          case NodeKind::kOr:
            fold_block(out, value.data(), fanin, fanin_end, std::bit_or<>{});
            break;
          case NodeKind::kXor:
            fold_block(out, value.data(), fanin, fanin_end, std::bit_xor<>{});
            break;
          default: {  // kNot
            const std::uint64_t* in = &value[std::size_t{*fanin} * B];
            for (std::size_t w = 0; w < B; ++w) out[w] = ~in[w];
            break;
          }
        }
        ones[g] += block_popcount(out);
      }
    }
    std::vector<std::uint64_t> by_node(net_.num_nodes(), 0);
    for (std::uint32_t s = 0; s < topo_.size(); ++s) by_node[topo_[s]] = ones[s];
    return by_node;
  }

 private:
  const Network& net_;
  std::vector<NodeId> topo_;
  std::vector<NodeKind> kind_;              ///< per slot
  std::vector<std::uint32_t> fanin_begin_;  ///< CSR offsets per slot
  std::vector<std::uint32_t> fanins_;       ///< fanin slots
};

/// Resolves `schedule` and all node probabilities on the exact BDDs.
void resolve_exact(const Network& net, const NetworkBdds& bdds,
                   std::span<const double> pi_probs,
                   std::span<const LatchGroup> schedule,
                   NetworkProbabilities& result) {
  std::vector<double> var_probs(bdds.order.num_vars(), 0.5);
  for (std::size_t i = 0; i < net.num_pis(); ++i)
    var_probs[bdds.order.level_of.at(net.pis()[i])] = pi_probs[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    var_probs[bdds.order.level_of.at(net.latches()[i].output)] = result.latch_probs[i];
  // A group's latches do not depend on each other, so resolving them one by
  // one equals resolving them together.
  for (const LatchGroup& group : schedule)
    for (const std::uint32_t k : group) {
      const auto& latch = net.latches()[k];
      result.latch_probs[k] = bdds.mgr->prob(bdds.node_funcs.at(latch.input), var_probs);
      var_probs[bdds.order.level_of.at(latch.output)] = result.latch_probs[k];
    }
  result.node_probs = exact_signal_probabilities(net, bdds, pi_probs, result.latch_probs);
}

/// The sampled counterpart: one pass per group over the fanin cone of the
/// group's next-state nodes, then one pass over the whole network.  A
/// resolved latch is drawn at its next-state node's frequency.
void resolve_sampled(const Network& net, std::span<const double> pi_probs,
                     std::span<const LatchGroup> schedule,
                     NetworkProbabilities& result) {
  const Sampler sampler(net);
  std::vector<double> source_prob(net.num_nodes(), 0.0);
  source_prob[Network::const1()] = 1.0;
  for (std::size_t i = 0; i < net.num_pis(); ++i) source_prob[net.pis()[i]] = pi_probs[i];
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    source_prob[net.latches()[i].output] = result.latch_probs[i];
  for (const LatchGroup& group : schedule) {
    std::vector<NodeId> inputs;
    for (const std::uint32_t k : group) inputs.push_back(net.latches()[k].input);
    const auto ones = sampler.count_ones(source_prob, sampler.cone(inputs));
    for (std::size_t i = 0; i < group.size(); ++i) {
      result.latch_probs[group[i]] = static_cast<double>(ones[inputs[i]]) / kSamples;
      source_prob[net.latches()[group[i]].output] = result.latch_probs[group[i]];
    }
  }

  const auto ones = sampler.count_ones(source_prob, std::vector<bool>(net.num_nodes(), true));
  // Every node, sources included, reports its frequency in this one sample
  // set, so exact relations between nodes (a dual is 1 - p) survive.
  result.node_probs.assign(net.num_nodes(), 0.0);
  double max_variance = 0.0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const double p = static_cast<double>(ones[id]) / kSamples;
    result.node_probs[id] = p;
    max_variance = std::max(max_variance, p * (1.0 - p));
  }
  result.halfwidth = 1.96 * std::sqrt(max_variance / kSamples);
}

}  // namespace

NetworkProbabilities network_probabilities(const Network& net,
                                           std::span<const double> pi_probs,
                                           std::span<const double> latch_probs,
                                           std::span<const LatchGroup> schedule,
                                           OrderingKind ordering,
                                           std::size_t work_budget) {
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("network_probabilities: PI prob count mismatch");
  if (!latch_probs.empty() && latch_probs.size() != net.num_latches())
    throw std::runtime_error("network_probabilities: latch prob count mismatch");

  NetworkProbabilities result;
  if (latch_probs.empty())
    result.latch_probs.assign(net.num_latches(), 0.5);
  else
    result.latch_probs.assign(latch_probs.begin(), latch_probs.end());

  const std::size_t budget = scaled_work_budget(net, work_budget);
  const Stopwatch attempt;
  try {
    const auto bdds = build_bdds(net, compute_order(net, ordering), budget);
    result.bdd_work = bdds.mgr->work();
    resolve_exact(net, bdds, pi_probs, schedule, result);
    return result;
  } catch (const BddLimitExceeded&) {
    result.abandoned_seconds = attempt.seconds();
    result.bdd_work = budget;
  }
  result.exact = false;
  resolve_sampled(net, pi_probs, schedule, result);
  return result;
}

std::vector<double> signal_probabilities(const Network& net,
                                         std::span<const double> pi_probs,
                                         std::span<const double> latch_probs,
                                         OrderingKind ordering,
                                         std::size_t work_budget, bool* used_exact) {
  NetworkProbabilities result =
      network_probabilities(net, pi_probs, latch_probs, {}, ordering, work_budget);
  if (used_exact != nullptr) *used_exact = result.exact;
  return std::move(result.node_probs);
}

}  // namespace dominosyn
