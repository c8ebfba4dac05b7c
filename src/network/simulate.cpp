/// \file simulate.cpp
/// 64-way bit-parallel combinational evaluation of a Network.  Used for
/// equivalence checking between phase-assigned realizations and the original
/// logic, and as the functional core of the power simulator.

#include <stdexcept>

#include "network/network.hpp"

namespace dominosyn {

SimulationPlan::SimulationPlan(const Network& net)
    : num_nodes_(net.num_nodes()), pis_(net.pis()) {
  latch_outputs_.reserve(net.num_latches());
  for (const auto& latch : net.latches()) latch_outputs_.push_back(latch.output);

  const std::vector<NodeId> order = net.topo_order();
  gates_.reserve(order.size());
  kinds_.reserve(order.size());
  fanin_begin_.reserve(order.size() + 1);
  fanin_begin_.push_back(0);
  for (const NodeId id : order) {
    const NodeKind kind = net.kind(id);
    if (!is_gate_kind(kind)) continue;
    const auto& fanins = net.fanins(id);
    gates_.push_back(id);
    kinds_.push_back(kind);
    fanins_.insert(fanins_.end(), fanins.begin(), fanins.end());
    fanin_begin_.push_back(static_cast<std::uint32_t>(fanins_.size()));
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
  const NodeId* const fanins = fanins_.data();
  for (std::size_t g = 0; g < gates_.size(); ++g) {
    const NodeId* f = fanins + fanin_begin_[g];
    const NodeId* const end = fanins + fanin_begin_[g + 1];
    std::uint64_t acc;
    switch (kinds_[g]) {
      case NodeKind::kAnd:
        acc = ~0ULL;
        for (; f != end; ++f) acc &= value[*f];
        break;
      case NodeKind::kOr:
        acc = 0;
        for (; f != end; ++f) acc |= value[*f];
        break;
      case NodeKind::kXor:
        acc = 0;
        for (; f != end; ++f) acc ^= value[*f];
        break;
      default:  // kNot
        acc = ~value[*f];
        break;
    }
    value[gates_[g]] = acc;
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
