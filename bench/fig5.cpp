/// \file fig5.cpp
/// Regenerates Figure 5: the two-output example (f = (a+b)+(c·d),
/// g = (a+b)·(c·d)) under PI probability 0.9, comparing the switching of the
/// positive-phase realization against the all-negative dual.
///
/// Exact paper numbers reconstructed (see README, "Provenance and
/// caveats"): positive block gates switch .99 + .81 + .9981 + .8019 = 3.6
/// per cycle; the dual block .01 + .19 + .0019 + .1981 = 0.40 with
/// 4 × .18 = 0.72 of input-inverter switching.  The paper quotes "75% fewer transitions" overall; our
/// boundary-inverter conventions are printed component-wise.

#include <iostream>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"
#include "flow/report.hpp"
#include "phase/assignment.hpp"
#include "sim/sim.hpp"

int main() {
  using namespace dominosyn;
  std::cout << "=== Figure 5: phase assignment vs switching on the worked "
               "example ===\n\n";

  const Network net = make_figure5_circuit();
  const std::vector<double> pi_probs(4, 0.9);
  const auto probs = signal_probabilities(net, pi_probs);
  const AssignmentEvaluator evaluator(net, probs);

  TextTable table;
  table.header({"assignment", "block", "in-inv", "out-inv", "total(est)",
                "total(sim)", "cells"});

  const auto phase_name = [](const PhaseAssignment& phases) {
    std::string name;
    for (const Phase p : phases) name += p == Phase::kPositive ? '+' : '-';
    return name;
  };

  SimPowerOptions sim_options;
  sim_options.steps = 8000;
  sim_options.warmup = 16;

  double best = 1e99, worst = 0.0;
  for (unsigned code = 0; code < 4; ++code) {
    const PhaseAssignment phases = {
        (code & 1) ? Phase::kNegative : Phase::kPositive,
        (code & 2) ? Phase::kNegative : Phase::kPositive};
    const auto est = evaluator.evaluate(phases);
    const auto domino = synthesize_domino(net, phases);
    const auto sim = simulate_domino_power(domino.net, pi_probs, sim_options);
    table.row({phase_name(phases), fmt(est.power.domino_block, 4),
               fmt(est.power.input_inverters, 4),
               fmt(est.power.output_inverters, 4), fmt(est.power.total(), 4),
               fmt(sim.per_cycle.total(), 4),
               std::to_string(est.area_cells())});
    best = std::min(best, est.power.total());
    worst = std::max(worst, est.power.total());
  }
  table.print(std::cout);

  std::cout << "\nPaper figure values: positive block 3.6, dual block 0.40, "
               "dual input inverters 0.72.\n"
            << "Reduction best-vs-worst (total switching): "
            << fmt_pct((worst - best) / worst, 1) << "% (paper: ~75% counting "
            << "its inverter conventions;\ndomino-block-only reduction: "
            << fmt_pct(1.0 - 0.40 / 3.6, 1) << "%).\n";

  std::cout << "\nPer-gate signal probabilities:\n";
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (is_gate_kind(net.kind(id)))
      std::cout << "  node " << id << " (" << to_string(net.kind(id))
                << "): p = " << fmt(probs[id], 4)
                << "   dual: 1-p = " << fmt(1.0 - probs[id], 4) << "\n";
  return 0;
}
