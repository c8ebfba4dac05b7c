/// \file dominosim.cpp
/// 64-lane clocked power simulation of synthesized domino realizations.

#include <span>
#include <stdexcept>
#include <string>
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

struct Inverter {
  NodeId id, fanin;
  double cap;
};

/// A realization's energy terms by role.  Each list is in ascending id
/// order: each energy accumulator adds its role's nodes in exactly the order
/// of one ascending-id sweep, step after step, so the simulated and the
/// replayed sums are order-for-order the same.
struct EnergyTerms {
  std::vector<DominoGate> domino_gates;
  std::vector<NodeId> other_nodes;  ///< every node that is not a domino gate
  std::vector<Inverter> input_inverters, output_inverters;
  double clock_term = 0.0;  ///< clock charge per domino gate per step
};

void check_sim_options(const Network& net, std::size_t num_pi_probs,
                       const SimPowerOptions& options, const char* who) {
  if (num_pi_probs != net.num_pis())
    throw std::runtime_error(std::string(who) + ": PI prob count mismatch");
  if (!options.node_caps.empty() && options.node_caps.size() != net.num_nodes())
    throw std::runtime_error(std::string(who) + ": node cap count mismatch");
  if (options.steps <= options.warmup)
    throw std::runtime_error(std::string(who) + ": steps must exceed warmup");
}

EnergyTerms energy_terms(const Network& net, const SimPowerOptions& options) {
  const auto roles = classify_domino_roles(net);
  const PowerModelConfig& model = options.model;
  const auto cap_of = [&](NodeId id, double fallback) {
    return options.node_caps.empty() ? fallback : options.node_caps[id];
  };

  EnergyTerms terms;
  terms.clock_term = 64.0 * model.clock_cap_per_gate;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (roles[id] != DominoRole::kDominoGate) terms.other_nodes.push_back(id);
    switch (roles[id]) {
      case DominoRole::kDominoGate: {
        const bool is_and = net.kind(id) == NodeKind::kAnd;
        terms.domino_gates.push_back(
            {id, cap_of(id, model.gate_cap),
             is_and ? model.penalty.and_mult : model.penalty.or_mult,
             64.0 * (is_and ? model.penalty.and_add : model.penalty.or_add)});
        break;
      }
      case DominoRole::kInputInverter:
        terms.input_inverters.push_back(
            {id, net.fanins(id)[0], cap_of(id, model.inverter_cap)});
        break;
      case DominoRole::kOutputInverter:
        terms.output_inverters.push_back(
            {id, net.fanins(id)[0], cap_of(id, model.inverter_cap)});
        break;
      case DominoRole::kSource:
        break;
    }
  }
  return terms;
}

/// The four energy sums, turned into average energy per cycle.
PowerBreakdown per_cycle(double domino, double input_inv, double output_inv,
                         double clock, std::size_t accounted_steps) {
  const double cycles = 64.0 * static_cast<double>(accounted_steps);
  PowerBreakdown out;
  out.domino_block = domino / cycles;
  out.input_inverters = input_inv / cycles;
  out.output_inverters = output_inv / cycles;
  out.clock_load = clock / cycles;
  return out;
}

/// One accounting step's counting pass over this step's node values.
struct StepCounts {
  std::span<const DominoGate> domino_gates;
  std::span<const NodeId> other_nodes;  ///< every node that is not a domino gate
  const std::uint64_t* value;
  std::uint64_t* one_counts;  ///< accumulated one counts, per node
  double* domino_terms;       ///< this step's energy term, per domino gate
};

/// One accounted step of a PowerSample: the one counts of its AND/OR nodes
/// and, when there is a previous step, its sources' toggle counts.
struct SampleRow {
  std::span<const NodeId> gates, sources;
  const std::uint64_t* value;
  const std::uint64_t* prev;  ///< nullptr on the first simulated step
  std::uint8_t* ones;
  std::uint8_t* toggles;
};

// Counts every node's ones once, and computes each domino gate's energy term
// `ones * cap * mult + 64 * add` from its count in the same pass: the terms
// have no dependency between gates; the caller adds them up serially.
// Where the CPU has POPCNT, copies compiled for it are selected once at load
// time; DOMINOSYN_NO_SIMD compiles them out so the forced-scalar build tests
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

template <typename CountOnes>
[[gnu::always_inline]] inline void count_row(const SampleRow& row, CountOnes count) {
  for (std::size_t k = 0; k < row.gates.size(); ++k)
    row.ones[k] = static_cast<std::uint8_t>(count(row.value[row.gates[k]]));
  if (row.prev == nullptr) return;
  for (std::size_t k = 0; k < row.sources.size(); ++k) {
    const NodeId id = row.sources[k];
    row.toggles[k] = static_cast<std::uint8_t>(count(row.value[id] ^ row.prev[id]));
  }
}

void count_step_swar(const StepCounts& step) { count_step(step, count_ones); }
void count_row_swar(const SampleRow& row) { count_row(row, count_ones); }

#ifdef DOMINOSYN_DOMINOSIM_POPCNT
inline constexpr auto kPopcnt = [](std::uint64_t x) {
  return static_cast<std::uint32_t>(__builtin_popcountll(x));
};
__attribute__((target("popcnt"))) void count_step_popcnt(const StepCounts& step) {
  count_step(step, kPopcnt);
}
__attribute__((target("popcnt"))) void count_row_popcnt(const SampleRow& row) {
  count_row(row, kPopcnt);
}
#endif

struct Counters {
  void (*step)(const StepCounts&);
  void (*row)(const SampleRow&);
};

Counters pick_counters() {
#ifdef DOMINOSYN_DOMINOSIM_POPCNT
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt")) return {count_step_popcnt, count_row_popcnt};
#endif
  return {count_step_swar, count_row_swar};
}

const Counters g_count = pick_counters();

/// The clocked lanes of a simulation: the input stream, the latch lanes
/// (every bit lane is an independent trajectory, latches starting at their
/// init values) and two value buffers, this step's and the previous one's.
class ClockedLanes {
 public:
  ClockedLanes(const Network& net, std::span<const double> pi_probs, std::uint64_t seed)
      : net_(net),
        plan_(net),
        gen_({pi_probs.begin(), pi_probs.end()}, seed),
        latch_words_(net.num_latches(), 0),
        value_(net.num_nodes(), 0),
        prev_value_(net.num_nodes(), 0) {
    for (std::size_t i = 0; i < net.num_latches(); ++i)
      if (net.latches()[i].init == LatchInit::kOne) latch_words_[i] = ~0ULL;
  }

  /// Draws the next input words and evaluates every node.
  void evaluate() {
    gen_.next(pi_words_);
    plan_.run(pi_words_, latch_words_, value_);
  }
  /// Latches capture their next-state inputs; this step becomes the previous.
  void advance() {
    for (std::size_t i = 0; i < net_.num_latches(); ++i)
      latch_words_[i] = value_[net_.latches()[i].input];
    std::swap(value_, prev_value_);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& value() const noexcept { return value_; }
  [[nodiscard]] const std::vector<std::uint64_t>& prev_value() const noexcept {
    return prev_value_;
  }

 private:
  const Network& net_;
  const SimulationPlan plan_;
  VectorGenerator gen_;
  std::vector<std::uint64_t> pi_words_;
  std::vector<std::uint64_t> latch_words_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> prev_value_;
};

}  // namespace

VectorGenerator::VectorGenerator(std::vector<double> pi_probs, std::uint64_t seed)
    : programs_(pi_probs.begin(), pi_probs.end()), rng_(seed) {}

void VectorGenerator::next(std::vector<std::uint64_t>& words) {
  words.resize(programs_.size());
  for (std::size_t i = 0; i < programs_.size(); ++i) words[i] = programs_[i].next(rng_);
}

SimPowerResult simulate_domino_power(const Network& net,
                                     std::span<const double> pi_probs,
                                     const SimPowerOptions& options) {
  check_sim_options(net, pi_probs.size(), options, "simulate_domino_power");
  const EnergyTerms terms = energy_terms(net, options);
  const PowerModelConfig& model = options.model;

  ClockedLanes lanes(net, pi_probs, options.seed);
  bool have_prev = false;

  std::vector<std::uint64_t> event_counts(net.num_nodes(), 0);
  std::vector<std::uint64_t> one_counts(net.num_nodes(), 0);
  std::vector<double> domino_terms(terms.domino_gates.size());  // this step's, per gate

  double domino_energy = 0.0;
  double input_inv_energy = 0.0;
  double output_inv_energy = 0.0;
  double clock_energy = 0.0;

  for (std::size_t step = 0; step < options.steps; ++step) {
    lanes.evaluate();
    const std::vector<std::uint64_t>& value = lanes.value();
    const std::vector<std::uint64_t>& prev_value = lanes.prev_value();

    if (step >= options.warmup) {
      // One discharge per lane-cycle where the output evaluates to 1; each
      // sum adds its terms in ascending id order, step after step.
      g_count.step({terms.domino_gates, terms.other_nodes, value.data(),
                    one_counts.data(), domino_terms.data()});
      for (std::size_t g = 0; g < terms.domino_gates.size(); ++g) {
        domino_energy += domino_terms[g];
        clock_energy += terms.clock_term;
      }
      // Value changes of the (static) source between consecutive cycles.
      if (have_prev) {
        for (const Inverter& inv : terms.input_inverters) {
          const std::uint32_t toggles =
              count_ones(value[inv.fanin] ^ prev_value[inv.fanin]);
          event_counts[inv.id] += toggles;
          input_inv_energy += toggles * inv.cap;
        }
      }
      // The domino driver rises and is then precharged: the inverter sees
      // `domino_driven_inverter_edges` edges per discharged cycle.
      for (const Inverter& inv : terms.output_inverters)
        output_inv_energy +=
            model.domino_driven_inverter_edges * count_ones(value[inv.fanin]) *
            inv.cap;
    }
    lanes.advance();
    have_prev = true;
  }

  const std::size_t accounted_steps = options.steps - options.warmup;
  SimPowerResult result;
  result.per_cycle = per_cycle(domino_energy, input_inv_energy, output_inv_energy,
                               clock_energy, accounted_steps);
  const double cycles = 64.0 * static_cast<double>(accounted_steps);
  result.cycles = static_cast<std::size_t>(cycles);

  // A domino gate's events are its discharges, i.e. its one count; an
  // output inverter's are its domino driver's.
  for (const DominoGate& gate : terms.domino_gates)
    event_counts[gate.id] = one_counts[gate.id];
  for (const Inverter& inv : terms.output_inverters)
    event_counts[inv.id] = one_counts[inv.fanin];
  result.activity.assign(net.num_nodes(), 0.0);
  result.one_rate.assign(net.num_nodes(), 0.0);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    result.activity[id] = static_cast<double>(event_counts[id]) / cycles;
    result.one_rate[id] = static_cast<double>(one_counts[id]) / cycles;
  }
  return result;
}

// -- sampled trajectories and their replay ------------------------------------

PowerSample::PowerSample(const Network& net, std::span<const double> pi_probs,
                         const SimPowerOptions& options)
    : steps_(options.steps),
      warmup_(options.warmup),
      seed_(options.seed),
      num_pis_(net.num_pis()),
      ones_column_(net.num_nodes(), kNoColumn),
      toggle_column_(net.num_nodes(), kNoColumn) {
  check_sim_options(net, pi_probs.size(), options, "PowerSample");
  std::vector<NodeId> gates, sources;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NodeKind kind = net.kind(id);
    if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
      ones_column_[id] = static_cast<std::uint32_t>(gates.size());
      gates.push_back(id);
    } else if (is_source_kind(kind)) {
      toggle_column_[id] = static_cast<std::uint32_t>(sources.size());
      sources.push_back(id);
    }
  }
  num_gates_ = gates.size();
  num_sources_ = sources.size();
  const std::size_t accounted = steps_ - warmup_;
  ones_.assign(accounted * num_gates_, 0);
  toggles_.assign(accounted * num_sources_, 0);

  ClockedLanes lanes(net, pi_probs, seed_);
  for (std::size_t step = 0; step < steps_; ++step) {
    lanes.evaluate();
    if (step >= warmup_) {
      const std::size_t row = step - warmup_;
      g_count.row({gates, sources, lanes.value().data(),
                   step > 0 ? lanes.prev_value().data() : nullptr,
                   ones_.data() + row * num_gates_,
                   toggles_.data() + row * num_sources_});
    }
    lanes.advance();
  }
}

PowerBreakdown replay_domino_power(const PowerSample& sample, const Network& net,
                                   std::span<const Counterpart> counterparts,
                                   const SimPowerOptions& options) {
  check_sim_options(net, net.num_pis(), options, "replay_domino_power");
  if (net.num_pis() != sample.num_pis() || counterparts.size() != net.num_nodes())
    throw std::invalid_argument("replay_domino_power: network does not fit the sample");
  if (options.steps != sample.steps() || options.warmup != sample.warmup() ||
      options.seed != sample.seed())
    throw std::invalid_argument(
        "replay_domino_power: steps, warmup and seed must be the sample's");
  const EnergyTerms terms = energy_terms(net, options);
  const PowerModelConfig& model = options.model;

  const auto missing = [](NodeId id) {
    std::string message = "replay_domino_power: node ";
    message += std::to_string(id);
    message += " has no sampled counterpart";
    return std::invalid_argument(message);
  };
  // A node's one count is its counterpart's, or 64 minus it when the node
  // is the complement: ones = base + sign * count.
  struct OnesRead {
    std::uint32_t column;
    std::int32_t base, sign;
  };
  const auto ones_read = [&](NodeId id) {
    const Counterpart counterpart = counterparts[id];
    const std::uint32_t column = counterpart.node < sample.num_nodes()
                                     ? sample.ones_column(counterpart.node)
                                     : PowerSample::kNoColumn;
    if (column == PowerSample::kNoColumn) throw missing(id);
    return counterpart.negated ? OnesRead{column, 64, -1} : OnesRead{column, 0, 1};
  };
  struct ReplayGate {
    OnesRead read;
    double cap, mult, add64;
  };
  struct ReplayInverter {
    OnesRead read;  ///< the fanin's ones (output inverters)
    std::uint32_t toggle_column;  ///< the fanin's toggles (input inverters)
    double cap;
  };
  std::vector<ReplayGate> gates;
  gates.reserve(terms.domino_gates.size());
  for (const DominoGate& gate : terms.domino_gates)
    gates.push_back({ones_read(gate.id), gate.cap, gate.mult, gate.add64});
  std::vector<ReplayInverter> input_inverters, output_inverters;
  for (const Inverter& inv : terms.input_inverters) {
    const NodeId source = counterparts[inv.fanin].node;
    const std::uint32_t column = source < sample.num_nodes()
                                     ? sample.toggle_column(source)
                                     : PowerSample::kNoColumn;
    if (column == PowerSample::kNoColumn) throw missing(inv.fanin);
    input_inverters.push_back({{}, column, inv.cap});
  }
  for (const Inverter& inv : terms.output_inverters)
    output_inverters.push_back({ones_read(inv.fanin), 0, inv.cap});

  // simulate_domino_power's sums, term for term and in its order.
  double domino_energy = 0.0;
  double input_inv_energy = 0.0;
  double output_inv_energy = 0.0;
  double clock_energy = 0.0;
  const std::size_t accounted = sample.steps() - sample.warmup();
  for (std::size_t row = 0; row < accounted; ++row) {
    const std::uint8_t* ones = sample.ones_row(row);
    const auto ones_of = [ones](const OnesRead& read) {
      return static_cast<std::uint32_t>(read.base + read.sign * ones[read.column]);
    };
    for (const ReplayGate& gate : gates) {
      const std::uint32_t count = ones_of(gate.read);
      domino_energy += count * gate.cap * gate.mult + gate.add64;
      clock_energy += terms.clock_term;
    }
    if (sample.warmup() + row > 0) {
      const std::uint8_t* toggles = sample.toggle_row(row);
      for (const ReplayInverter& inv : input_inverters) {
        const std::uint32_t count = toggles[inv.toggle_column];
        input_inv_energy += count * inv.cap;
      }
    }
    for (const ReplayInverter& inv : output_inverters)
      output_inv_energy +=
          model.domino_driven_inverter_edges * ones_of(inv.read) * inv.cap;
  }
  return per_cycle(domino_energy, input_inv_energy, output_inv_energy, clock_energy,
                   accounted);
}

}  // namespace dominosyn
