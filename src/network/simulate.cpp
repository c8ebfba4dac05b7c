/// \file simulate.cpp
/// 64-way bit-parallel combinational evaluation of a Network, compiled once
/// to branch-free AND-form ops (network.hpp, SimulationPlan).  Used for
/// equivalence checking between phase-assigned realizations and the original
/// logic, and as the functional core of the power simulator.

#include <algorithm>
#include <stdexcept>

#include "network/network.hpp"

namespace dominosyn {

SimulationPlan::SimulationPlan(const Network& net)
    : num_nodes_(net.num_nodes()), pis_(net.pis()) {
  latch_outputs_.reserve(net.num_latches());
  for (const auto& latch : net.latches()) latch_outputs_.push_back(latch.output);

  // Level order, not DFS post-order: a post-order puts each gate right after
  // the fanin it reads, so consecutive ops form one long dependency chain;
  // level by level, consecutive ops are independent and overlap.
  std::vector<NodeId> order = net.topo_order();
  std::vector<std::uint32_t> level(net.num_nodes(), 0);
  for (const NodeId id : order)
    for (const NodeId f : net.fanins(id))
      level[id] = std::max(level[id], level[f] + 1);
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return level[a] < level[b]; });
  ops_.reserve(order.size());
  for (const NodeId id : order) {
    const NodeKind kind = net.kind(id);
    if (!is_gate_kind(kind)) continue;
    Op op;
    op.out = id;
    NodeId pad = Network::const1();  // neutral input of the AND form
    switch (kind) {
      case NodeKind::kOr:
        op.in_mask = op.out_mask = ~0ULL;
        pad = Network::const0();
        break;
      case NodeKind::kXor:
        op.is_xor = 1;
        pad = Network::const0();
        break;
      case NodeKind::kNot:
        op.out_mask = ~0ULL;
        break;
      default:  // kAnd
        break;
    }
    // The first op takes four fanins; each chained op takes the gate's own
    // partial value and three more.
    const auto& fanins = net.fanins(id);
    std::size_t next = 0;
    do {
      std::size_t slot = 0;
      if (next > 0) op.in[slot++] = id;
      for (; slot < 4; ++slot)
        op.in[slot] = next < fanins.size() ? fanins[next++] : pad;
      ops_.push_back(op);
    } while (next < fanins.size());
  }
}

void SimulationPlan::run(std::span<const std::uint64_t> pi_words,
                         std::span<const std::uint64_t> latch_words,
                         std::vector<std::uint64_t>& values) const {
  if (pi_words.size() != pis_.size())
    throw std::runtime_error("simulate: PI word count mismatch");
  if (!latch_words.empty() && latch_words.size() != latch_outputs_.size())
    throw std::runtime_error("simulate: latch word count mismatch");

  values.resize(num_nodes_);
  values[Network::const0()] = 0;
  values[Network::const1()] = ~0ULL;
  for (std::size_t i = 0; i < pis_.size(); ++i) values[pis_[i]] = pi_words[i];
  for (std::size_t i = 0; i < latch_outputs_.size(); ++i)
    values[latch_outputs_[i]] = latch_words.empty() ? 0 : latch_words[i];

  std::uint64_t* const value = values.data();
  for (const Op& op : ops_) {
    const std::uint64_t a = value[op.in[0]];
    const std::uint64_t b = value[op.in[1]];
    const std::uint64_t c = value[op.in[2]];
    const std::uint64_t d = value[op.in[3]];
    if (op.is_xor != 0) [[unlikely]] {
      value[op.out] = a ^ b ^ c ^ d;
    } else {
      const std::uint64_t m = op.in_mask;
      value[op.out] = ((a ^ m) & (b ^ m) & (c ^ m) & (d ^ m)) ^ op.out_mask;
    }
  }
}

std::vector<std::uint64_t> Network::simulate(
    std::span<const std::uint64_t> pi_words,
    std::span<const std::uint64_t> latch_words) const {
  std::vector<std::uint64_t> value;
  SimulationPlan(*this).run(pi_words, latch_words, value);
  return value;
}

std::vector<bool> Network::evaluate(std::span<const bool> pi_values,
                                    std::span<const bool> latch_values) const {
  std::vector<std::uint64_t> pi_words(pis_.size());
  for (std::size_t i = 0; i < pis_.size(); ++i)
    pi_words[i] = pi_values[i] ? ~0ULL : 0ULL;
  std::vector<std::uint64_t> latch_words;
  if (!latch_values.empty()) {
    latch_words.resize(latches_.size());
    for (std::size_t i = 0; i < latches_.size(); ++i)
      latch_words[i] = latch_values[i] ? ~0ULL : 0ULL;
  }
  const auto value = simulate(pi_words, latch_words);
  std::vector<bool> result(pos_.size());
  for (std::size_t i = 0; i < pos_.size(); ++i)
    result[i] = (value[pos_[i].driver] & 1ULL) != 0;
  return result;
}

}  // namespace dominosyn
