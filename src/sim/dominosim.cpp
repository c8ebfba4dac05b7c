/// \file dominosim.cpp
/// 64-lane clocked power simulation of synthesized domino realizations.

#include <stdexcept>
#include <utility>

#include "sim/sim.hpp"

namespace dominosyn {

namespace {

/// Portable SWAR population count.  The build targets baseline x86-64, where
/// __builtin_popcountll is an out-of-line libgcc call per word; inline bit
/// arithmetic is several times cheaper in the per-step accounting sweep.
inline std::uint32_t count_ones(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace

VectorGenerator::VectorGenerator(std::vector<double> pi_probs, std::uint64_t seed)
    : probs_(std::move(pi_probs)), rng_(seed) {}

void VectorGenerator::next(std::vector<std::uint64_t>& words) {
  words.resize(probs_.size());
  for (std::size_t i = 0; i < probs_.size(); ++i)
    words[i] = rng_.biased_bits(probs_[i]);
}

SimPowerResult simulate_domino_power(const Network& net,
                                     std::span<const double> pi_probs,
                                     const SimPowerOptions& options) {
  if (pi_probs.size() != net.num_pis())
    throw std::runtime_error("simulate_domino_power: PI prob count mismatch");
  if (!options.node_caps.empty() && options.node_caps.size() != net.num_nodes())
    throw std::runtime_error("simulate_domino_power: node cap count mismatch");
  if (options.steps <= options.warmup)
    throw std::runtime_error("simulate_domino_power: steps must exceed warmup");

  const auto roles = classify_domino_roles(net);
  const PowerModelConfig& model = options.model;

  const auto cap_of = [&](NodeId id, double fallback) {
    return options.node_caps.empty() ? fallback : options.node_caps[id];
  };

  // Per-role node lists in ascending id order: each energy accumulator
  // below adds its role's nodes in exactly the order of one ascending-id
  // sweep, step after step, so the sums are order-for-order the same.
  struct DominoGate {
    NodeId id;
    double cap, mult, add;
  };
  struct Inverter {
    NodeId id, fanin;
    double cap;
  };
  std::vector<DominoGate> domino_gates;
  std::vector<Inverter> input_inverters, output_inverters;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    switch (roles[id]) {
      case DominoRole::kDominoGate: {
        const bool is_and = net.kind(id) == NodeKind::kAnd;
        domino_gates.push_back(
            {id, cap_of(id, model.gate_cap),
             is_and ? model.penalty.and_mult : model.penalty.or_mult,
             is_and ? model.penalty.and_add : model.penalty.or_add});
        break;
      }
      case DominoRole::kInputInverter:
        input_inverters.push_back(
            {id, net.fanins(id)[0], cap_of(id, model.inverter_cap)});
        break;
      case DominoRole::kOutputInverter:
        output_inverters.push_back(
            {id, net.fanins(id)[0], cap_of(id, model.inverter_cap)});
        break;
      case DominoRole::kSource:
        break;
    }
  }

  const SimulationPlan plan(net);
  VectorGenerator gen({pi_probs.begin(), pi_probs.end()}, options.seed);
  std::vector<std::uint64_t> pi_words;
  // Latch lane states: every bit lane is an independent trajectory.
  std::vector<std::uint64_t> latch_words(net.num_latches(), 0);
  for (std::size_t i = 0; i < net.num_latches(); ++i)
    if (net.latches()[i].init == LatchInit::kOne) latch_words[i] = ~0ULL;

  // This step's node values, and the previous step's for static
  // input-inverter edge counting; swapped after every step.
  std::vector<std::uint64_t> value(net.num_nodes(), 0);
  std::vector<std::uint64_t> prev_value(net.num_nodes(), 0);
  bool have_prev = false;

  std::vector<std::uint64_t> event_counts(net.num_nodes(), 0);
  std::vector<std::uint64_t> one_counts(net.num_nodes(), 0);
  std::vector<std::uint32_t> ones(net.num_nodes(), 0);  // this step's, per node
  SimPowerResult result;
  result.per_cycle = PowerBreakdown{};

  double domino_energy = 0.0;
  double input_inv_energy = 0.0;
  double output_inv_energy = 0.0;
  double clock_energy = 0.0;

  for (std::size_t step = 0; step < options.steps; ++step) {
    gen.next(pi_words);
    plan.run(pi_words, latch_words, value);

    if (step >= options.warmup) {
      for (NodeId id = 0; id < net.num_nodes(); ++id) {
        ones[id] = count_ones(value[id]);
        one_counts[id] += ones[id];
      }
      // One discharge per lane-cycle where the output evaluates to 1.
      for (const DominoGate& gate : domino_gates) {
        domino_energy += ones[gate.id] * gate.cap * gate.mult + 64.0 * gate.add;
        clock_energy += 64.0 * model.clock_cap_per_gate;
      }
      // Value changes of the (static) source between consecutive cycles.
      if (have_prev) {
        for (const Inverter& inv : input_inverters) {
          const std::uint32_t toggles =
              count_ones(value[inv.fanin] ^ prev_value[inv.fanin]);
          event_counts[inv.id] += toggles;
          input_inv_energy += toggles * inv.cap;
        }
      }
      // The domino driver rises and is then precharged: the inverter sees
      // `domino_driven_inverter_edges` edges per discharged cycle.
      for (const Inverter& inv : output_inverters)
        output_inv_energy +=
            model.domino_driven_inverter_edges * ones[inv.fanin] * inv.cap;
    }

    // Advance lanes: latches capture their next-state inputs.
    for (std::size_t i = 0; i < net.num_latches(); ++i)
      latch_words[i] = value[net.latches()[i].input];
    std::swap(value, prev_value);
    have_prev = true;
  }

  const std::size_t accounted_steps = options.steps - options.warmup;
  const double cycles = 64.0 * static_cast<double>(accounted_steps);
  result.cycles = static_cast<std::size_t>(cycles);
  result.per_cycle.domino_block = domino_energy / cycles;
  result.per_cycle.input_inverters = input_inv_energy / cycles;
  result.per_cycle.output_inverters = output_inv_energy / cycles;
  result.per_cycle.clock_load = clock_energy / cycles;

  // A domino gate's events are its discharges, i.e. its one count; an
  // output inverter's are its domino driver's.
  for (const DominoGate& gate : domino_gates)
    event_counts[gate.id] = one_counts[gate.id];
  for (const Inverter& inv : output_inverters)
    event_counts[inv.id] = one_counts[inv.fanin];
  result.activity.assign(net.num_nodes(), 0.0);
  result.one_rate.assign(net.num_nodes(), 0.0);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    result.activity[id] = static_cast<double>(event_counts[id]) / cycles;
    result.one_rate[id] = static_cast<double>(one_counts[id]) / cycles;
  }
  return result;
}

}  // namespace dominosyn
