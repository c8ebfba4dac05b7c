/// \file power.hpp
/// Switching-activity and power models for domino blocks and their static
/// CMOS boundary inverters (paper §2 and §4.2).
///
/// Conventions (normalized units):
///  * A domino gate with signal probability p contributes `p · C · penalty`
///    per cycle (Property 2.1: switching probability equals signal
///    probability; the discharge/precharge pair is one switching event, the
///    unit the paper's Figure 5 uses — e.g. the 3.6 vs 0.40 block totals).
///  * A static inverter driven by a *static* signal with probability p
///    toggles `2·p·(1-p)` per cycle under zero delay (two edges per value
///    change in expectation; Figure 5's 0.18-per-input-inverter at p = 0.9).
///  * A static inverter driven by a *domino* output toggles twice per
///    discharged cycle: `2·p(driver)`.
///  * An optional per-gate clock load models the precharge-clock power that
///    makes domino cost "up to four times" static (§1); it charges every
///    cycle regardless of data, so it also penalizes duplication area.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "network/network.hpp"

namespace dominosyn {

/// Zero-delay switching activity of a static CMOS gate output (Fig. 2 curve).
[[nodiscard]] constexpr double static_switching(double p) noexcept {
  return 2.0 * p * (1.0 - p);
}

/// Switching activity of a domino gate output (Fig. 2 line).
[[nodiscard]] constexpr double domino_switching(double p) noexcept { return p; }

/// Gate-type penalties P_i of §4.2 ("domino AND gates are slower than OR
/// gates ... we account for this penalty").  §5 runs with penalties off
/// (pure switching activity); see README, "Provenance and caveats", on the
/// paper's P_i ambiguity.
struct GateTypePenalty {
  double and_mult = 1.0;  ///< multiplicative penalty for domino AND
  double or_mult = 1.0;   ///< multiplicative penalty for domino OR
  double and_add = 0.0;   ///< additive penalty per domino AND instance
  double or_add = 0.0;    ///< additive penalty per domino OR instance
};

struct PowerModelConfig {
  double gate_cap = 1.0;           ///< C_i for domino gates (paper §5: 1)
  double inverter_cap = 1.0;       ///< C for boundary static inverters
  double clock_cap_per_gate = 0.0; ///< precharge-clock load per domino gate
  GateTypePenalty penalty;

  /// Edge-counting convention for a static inverter driven by a domino gate:
  /// 2.0 counts both the evaluate and the precharge edge (default),
  /// 1.0 counts discharge events only (matches the domino-gate unit).
  double domino_driven_inverter_edges = 2.0;

  /// Structural load model: C_i = wire_cap + pin_cap * (#consuming gate
  /// instances) + po_cap * (#primary outputs driven), computed per polarity
  /// instance during the demand walk.  This is the paper's C_i ("the load
  /// capacitance at the output of gate i") instantiated structurally; the
  /// paper's §5 simplification C_i = 1 corresponds to load_aware = false.
  bool load_aware = false;
  double wire_cap = 0.2;
  double pin_cap = 1.0;
  double po_cap = 1.0;
};

/// Itemized power estimate; total() is the optimization objective.
struct PowerBreakdown {
  double domino_block = 0.0;      ///< Σ S·C·penalty over domino gates
  double input_inverters = 0.0;   ///< static inverters on PI/latch boundary
  double output_inverters = 0.0;  ///< static inverters on PO boundary
  double clock_load = 0.0;        ///< precharge clock power (optional)

  [[nodiscard]] double total() const noexcept {
    return domino_block + input_inverters + output_inverters + clock_load;
  }
};

/// Role of each node in a synthesized domino realization.
enum class DominoRole : std::uint8_t {
  kSource,          ///< PI / latch output / constant
  kDominoGate,      ///< AND/OR inside the inverter-free block
  kInputInverter,   ///< static inverter whose fanin is a source
  kOutputInverter,  ///< static inverter feeding only POs
};

/// Classifies the nodes of an inverter-free domino realization (as produced
/// by synthesize_domino).  Throws std::runtime_error if a NOT node violates
/// the boundary invariant — i.e. the network is not a legal domino block.
[[nodiscard]] std::vector<DominoRole> classify_domino_roles(const Network& net);

/// Estimates the power of a synthesized domino network given per-node signal
/// probabilities (exact BDD probabilities or simulator estimates).
[[nodiscard]] PowerBreakdown estimate_domino_network_power(
    const Network& net, std::span<const double> node_probs,
    const PowerModelConfig& config = {});

}  // namespace dominosyn
