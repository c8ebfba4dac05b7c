#include "flow/flow.hpp"

#include <stdexcept>

#include "flow/session.hpp"
#include "util/rng.hpp"

namespace dominosyn {

std::string_view to_string(PhaseMode mode) noexcept {
  switch (mode) {
    case PhaseMode::kAllPositive: return "all-positive";
    case PhaseMode::kMinArea: return "min-area";
    case PhaseMode::kMinPower: return "min-power";
    case PhaseMode::kExhaustivePower: return "exhaustive-power";
  }
  return "?";
}

bool random_equivalent(const Network& a, const Network& b, std::size_t words,
                       std::uint64_t seed) {
  return random_equivalent(a, b, {}, words, seed);
}

bool random_equivalent(const Network& a, const Network& b,
                       std::span<const Counterpart> counterparts, std::size_t words,
                       std::uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos() ||
      a.num_latches() != b.num_latches())
    return false;
  if (!counterparts.empty() && counterparts.size() != b.num_nodes())
    throw std::invalid_argument("random_equivalent: one counterpart per node of b");
  for (const Counterpart& counterpart : counterparts)
    if (counterpart.node != kNullNode && counterpart.node >= a.num_nodes()) return false;
  const SimulationPlan plan_a(a);
  const SimulationPlan plan_b(b);
  Rng rng(seed);
  std::vector<std::uint64_t> pi_words(a.num_pis());
  std::vector<std::uint64_t> latch_words(a.num_latches());
  std::vector<std::uint64_t> va, vb;
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& word : pi_words) word = rng.next();
    for (auto& word : latch_words) word = rng.next();
    plan_a.run(pi_words, latch_words, va);
    plan_b.run(pi_words, latch_words, vb);
    for (std::size_t i = 0; i < a.num_pos(); ++i)
      if (va[a.pos()[i].driver] != vb[b.pos()[i].driver]) return false;
    for (std::size_t i = 0; i < a.num_latches(); ++i)
      if (va[a.latches()[i].input] != vb[b.latches()[i].input]) return false;
    for (NodeId id = 0; id < counterparts.size(); ++id) {
      const Counterpart counterpart = counterparts[id];
      if (counterpart.node == kNullNode) continue;
      const std::uint64_t expected =
          counterpart.negated ? ~va[counterpart.node] : va[counterpart.node];
      if (vb[id] != expected) return false;
    }
  }
  return true;
}

std::vector<Counterpart> mapped_counterparts(const DominoSynthesisResult& domino,
                                             const MapResult& mapped) {
  const Network& domino_net = domino.net;
  std::vector<Counterpart> of_domino(domino_net.num_nodes());
  of_domino[Network::const0()] = {Network::const0(), false};
  of_domino[Network::const1()] = {Network::const1(), false};
  for (NodeId id = Network::const1() + 1; id < domino.pos_impl.size(); ++id) {
    if (domino.pos_impl[id] != kNullNode) of_domino[domino.pos_impl[id]] = {id, false};
    if (domino.neg_impl[id] != kNullNode) of_domino[domino.neg_impl[id]] = {id, true};
  }
  // Output inverters are the only nodes no implementation names; a node's
  // fanins always have smaller ids.
  for (NodeId id = 0; id < domino_net.num_nodes(); ++id) {
    if (of_domino[id].node != kNullNode || domino_net.kind(id) != NodeKind::kNot)
      continue;
    const Counterpart fanin = of_domino[domino_net.fanins(id)[0]];
    if (fanin.node != kNullNode) of_domino[id] = {fanin.node, !fanin.negated};
  }

  std::vector<Counterpart> out(mapped.netlist.net.num_nodes());
  for (NodeId id = 0; id < out.size(); ++id) {
    const NodeId origin = mapped.origin_of[id];
    if (origin != kNullNode && mapped.image_of[origin] == id) out[id] = of_domino[origin];
  }
  return out;
}

FlowReport run_flow(const Network& input, const FlowOptions& options) {
  // Compatibility wrapper: a one-shot staged session.  Callers that compare
  // several modes or clock targets on one circuit should hold a FlowSession
  // (or use run_flow_batch) so the synthesized form, BDD probabilities and
  // EvalContext are built once instead of per call.
  FlowSession session(input, options);
  return session.report(options.mode);
}

}  // namespace dominosyn
