/// \file netbdd.hpp
/// Bridges the logic network to the BDD package: builds one BDD per network
/// node under a chosen variable ordering and evaluates exact signal
/// probabilities (the paper's §4.2 power-computation core).
///
/// network_probabilities() is the one exact-or-sampled entry point.  It first
/// makes an exact attempt under a deterministic work budget (BddManager
/// counts ITE cache misses plus allocated nodes).  If the attempt trips the
/// budget, it answers with a seeded, word-parallel Monte Carlo estimate of the
/// same quantity instead, and reports a 95 % confidence half-width.  Both
/// paths treat every source as an independent Bernoulli variable.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/order.hpp"
#include "network/network.hpp"

namespace dominosyn {

/// Per-node global BDDs of a network.  The manager is owned here; node_funcs
/// handles keep all intermediate functions alive, so gc() is a no-op until
/// this struct is destroyed.
struct NetworkBdds {
  std::unique_ptr<BddManager> mgr;
  VariableOrder order;
  std::vector<Bdd> node_funcs;  ///< indexed by NodeId

  [[nodiscard]] const Bdd& po_func(const Network& net, std::size_t po) const {
    return node_funcs.at(net.pos().at(po).driver);
  }
};

/// Builds BDDs for every node reachable from the combinational roots.
/// Latch outputs are treated as free variables (the post-partitioning view).
/// Throws BddLimitExceeded once the build spends more than `work_budget`.
[[nodiscard]] NetworkBdds build_bdds(const Network& net, const VariableOrder& order,
                                     std::size_t work_budget = kBddWorkBudget);

/// Exact per-node signal probabilities given independent source
/// probabilities.  `pi_probs[i]` belongs to net.pis()[i] and
/// `latch_probs[i]` to net.latches()[i]; pass an empty latch span to default
/// latches to 0.5.  Returns one probability per NodeId (dead nodes get 0).
[[nodiscard]] std::vector<double> exact_signal_probabilities(
    const Network& net, const NetworkBdds& bdds, std::span<const double> pi_probs,
    std::span<const double> latch_probs = {});

/// Networks up to this many gates get the base work budget; larger ones get
/// a budget proportional to their gate count.
inline constexpr std::size_t kBddBudgetGates = 4096;

/// The work budget of an exact attempt on `net`: `base` up to
/// kBddBudgetGates gates, base / kBddBudgetGates per gate beyond that.
[[nodiscard]] std::size_t scaled_work_budget(const Network& net,
                                             std::size_t base = kBddWorkBudget);

/// Sampling effort of the fallback: kSampleWords 64-bit words per node,
/// i.e. 65,536 samples.
inline constexpr std::size_t kSampleWords = 1024;

/// One latch-resolution step: every latch in the group takes the probability
/// of its next-state function, evaluated with the latch probabilities known
/// before the step.  Latches of one s-graph level never depend on each
/// other, so a level is one group.
using LatchGroup = std::vector<std::uint32_t>;

struct NetworkProbabilities {
  std::vector<double> node_probs;   ///< per NodeId
  std::vector<double> latch_probs;  ///< per latch index, after the schedule
  bool exact = true;                ///< false = sampled estimate
  /// 95 % confidence half-width of the sampled estimate: the max over nodes
  /// of 1.96·sqrt(p(1-p)/n).  0 on the exact path.
  double halfwidth = 0.0;
  /// Work the exact attempt spent (its whole budget when it tripped).
  std::size_t bdd_work = 0;
  /// Wall time of a tripped exact attempt.  Reported only; it never enters
  /// the exact-or-sampled decision.
  double abandoned_seconds = 0.0;
};

/// Signal probabilities of `net` with independent sources: PIs at
/// `pi_probs`, latches at `latch_probs` (empty = 0.5 each), after resolving
/// `schedule` group by group.  Exact when the BDD build fits
/// scaled_work_budget(net, work_budget); otherwise a deterministic sampled
/// estimate from kSampleWords words per node.  Each source draws from its
/// own seeded stream, so a resolved latch's sampled probability equals its
/// next-state node's.
[[nodiscard]] NetworkProbabilities network_probabilities(
    const Network& net, std::span<const double> pi_probs,
    std::span<const double> latch_probs = {},
    std::span<const LatchGroup> schedule = {},
    OrderingKind ordering = OrderingKind::kReverseTopological,
    std::size_t work_budget = kBddWorkBudget);

/// Combinational convenience over network_probabilities: per-node
/// probabilities only.  `used_exact`, if non-null, reports which path was
/// taken.
[[nodiscard]] std::vector<double> signal_probabilities(
    const Network& net, std::span<const double> pi_probs,
    std::span<const double> latch_probs = {},
    OrderingKind ordering = OrderingKind::kReverseTopological,
    std::size_t work_budget = kBddWorkBudget, bool* used_exact = nullptr);

}  // namespace dominosyn
