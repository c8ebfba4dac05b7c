/// \file dominosim.cpp
/// 64-lane clocked power simulation of synthesized domino realizations.

#include <span>
#include <stdexcept>
#include <utility>

#include "sim/sim.hpp"
#include "util/bits.hpp"

#if defined(__x86_64__) && !defined(DOMINOSYN_NO_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define DOMINOSYN_DOMINOSIM_POPCNT 1
#endif

namespace dominosyn {

namespace {

/// A domino gate's per-step energy parameters, in ascending id order.
struct DominoGate {
  NodeId id;
  double cap, mult, add64;  // add64 = 64.0 * add, the per-step lane charge
};

/// One accounting step's counting pass over this step's node values.
struct StepCounts {
  std::span<const DominoGate> domino_gates;
  std::span<const NodeId> other_nodes;  ///< every node that is not a domino gate
  const std::uint64_t* value;
  std::uint64_t* one_counts;  ///< accumulated one counts, per node
  double* domino_terms;       ///< this step's energy term, per domino gate
};

// Counts every node's ones once, and computes each domino gate's energy term
// `ones * cap * mult + 64 * add` from its count in the same pass: the terms
// have no dependency between gates; the caller adds them up serially.
// Where the CPU has POPCNT, a copy compiled for it is selected once at load
// time; DOMINOSYN_NO_SIMD compiles it out so the forced-scalar build tests
// the SWAR fallback.  Integer counts are exact either way, and the POPCNT
// target enables no FMA, so the terms cannot be contracted.
template <typename CountOnes>
[[gnu::always_inline]] inline void count_step(const StepCounts& step,
                                              CountOnes count) {
  for (std::size_t g = 0; g < step.domino_gates.size(); ++g) {
    const DominoGate& gate = step.domino_gates[g];
    const std::uint32_t ones = count(step.value[gate.id]);
    step.one_counts[gate.id] += ones;
    step.domino_terms[g] = ones * gate.cap * gate.mult + gate.add64;
  }
  for (const NodeId id : step.other_nodes)
    step.one_counts[id] += count(step.value[id]);
}

void count_step_swar(const StepCounts& step) { count_step(step, count_ones); }

#ifdef DOMINOSYN_DOMINOSIM_POPCNT
__attribute__((target("popcnt"))) void count_step_popcnt(const StepCounts& step) {
  count_step(step, [](std::uint64_t x) {
    return static_cast<std::uint32_t>(__builtin_popcountll(x));
  });
}
#endif

using CountStepFn = void (*)(const StepCounts&);

CountStepFn pick_count_step() {
#ifdef DOMINOSYN_DOMINOSIM_POPCNT
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) return count_step_popcnt;
#endif
  return count_step_swar;
}

const CountStepFn g_count_step = pick_count_step();

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
  struct Inverter {
    NodeId id, fanin;
    double cap;
  };
  std::vector<DominoGate> domino_gates;
  std::vector<NodeId> other_nodes;
  std::vector<Inverter> input_inverters, output_inverters;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (roles[id] != DominoRole::kDominoGate) other_nodes.push_back(id);
    switch (roles[id]) {
      case DominoRole::kDominoGate: {
        const bool is_and = net.kind(id) == NodeKind::kAnd;
        domino_gates.push_back(
            {id, cap_of(id, model.gate_cap),
             is_and ? model.penalty.and_mult : model.penalty.or_mult,
             64.0 * (is_and ? model.penalty.and_add : model.penalty.or_add)});
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
  std::vector<double> domino_terms(domino_gates.size());  // this step's, per gate
  const double clock_term = 64.0 * model.clock_cap_per_gate;
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
      // One discharge per lane-cycle where the output evaluates to 1; each
      // sum adds its terms in ascending id order, step after step.
      g_count_step({domino_gates, other_nodes, value.data(), one_counts.data(),
                    domino_terms.data()});
      for (std::size_t g = 0; g < domino_gates.size(); ++g) {
        domino_energy += domino_terms[g];
        clock_energy += clock_term;
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
            model.domino_driven_inverter_edges * count_ones(value[inv.fanin]) *
            inv.cap;
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
