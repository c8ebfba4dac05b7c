/// \file mapper.hpp
/// Technology mapping of an inverter-free domino realization onto the cell
/// library: same-kind fanout-free trees of 2-input AND/OR gates are collapsed
/// into the widest fitting domino cells; boundary inverters map to static
/// INV cells and latches to LATCH cells.

#pragma once

#include <span>
#include <vector>

#include "mapping/library.hpp"
#include "network/network.hpp"

namespace dominosyn {

struct MapOptions {
  unsigned max_and_arity = 4;  ///< clamp (series stacks get slow)
  unsigned max_or_arity = 8;
};

/// A mapped design: an n-ary network whose every gate/latch carries a cell
/// binding.  Node ids index both `net` and `cell_of`.
class MappedNetlist {
 public:
  Network net;
  std::vector<const Cell*> cell_of;  ///< nullptr for PIs/constants/PO wires
  const CellLibrary* library = nullptr;

  [[nodiscard]] std::size_t cell_count() const;
  [[nodiscard]] double total_area() const;

  /// Output load per node: sum of driven input pins plus a wire constant.
  /// This is the C_i the power model and the timing engine consume.
  [[nodiscard]] std::vector<double> node_loads(double wire_cap = 0.2) const;

  /// Total clock-pin capacitance (domino precharge + latch clocks) — charged
  /// every cycle regardless of data.
  [[nodiscard]] double clock_load() const;

  /// Swaps the node's cell for the same family at `size_index`.
  void resize_cell(NodeId id, unsigned size_index);
};

/// Maps a synthesized domino network (output of synthesize_domino).  The
/// input must pass classify_domino_roles.  The mapped network is
/// functionally identical; node probabilities can be re-derived or carried
/// over via the returned `origin_of` (mapped node -> source node id).
struct MapResult {
  MappedNetlist netlist;
  std::vector<NodeId> origin_of;  ///< per mapped node: originating node id
  /// Per input node: the mapped node computing its function; kNullNode when
  /// it was absorbed into a wider cell.  A mapped node `n` computes its
  /// origin's function iff image_of[origin_of[n]] == n; the other cells of a
  /// tree wider than the library's widest cell compute only part of it.
  std::vector<NodeId> image_of;
};

[[nodiscard]] MapResult map_network(const Network& domino_net,
                                    const CellLibrary& library,
                                    const MapOptions& options = {});

}  // namespace dominosyn
