/// \file library.hpp
/// Generic domino standard-cell library — the reproduction's stand-in for the
/// proprietary Intel library of §5 (see README, "Provenance and caveats").
/// Values follow textbook ratios (Weste & Eshraghian): series-stacked domino
/// ANDs are slower than parallel ORs, wider gates cost area and input
/// capacitance, and each cell comes in three drive sizes (X1/X2/X4) for the
/// timing-driven resizing flow of Table 2.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "network/node.hpp"

namespace dominosyn {

enum class CellFunction : std::uint8_t {
  kDominoAnd,   ///< dynamic AND + output buffer
  kDominoOr,    ///< dynamic OR + output buffer
  kStaticInv,   ///< boundary static inverter
  kLatch,       ///< transparent latch
};

struct Cell {
  std::string name;
  CellFunction function = CellFunction::kDominoAnd;
  unsigned arity = 2;          ///< logic fanin count (1 for INV/latch)
  unsigned size_index = 0;     ///< 0 = X1, 1 = X2, 2 = X4
  double area = 1.0;           ///< layout area units
  double input_cap = 1.0;      ///< per input pin (normalized fF)
  double clock_cap = 0.0;      ///< precharge/evaluate clock pin load (domino)
  double intrinsic_delay = 0.1;///< unloaded delay (normalized ns)
  double drive_res = 1.0;      ///< delay slope per unit load
};

/// Immutable cell library with lookup by (function, arity, size).
class CellLibrary {
 public:
  /// The built-in generic library: domino AND2-4, OR2-4 and OR8, static
  /// inverter and latch, each in sizes X1/X2/X4.
  [[nodiscard]] static CellLibrary generic();

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }

  /// Largest available arity for a function.
  [[nodiscard]] unsigned max_arity(CellFunction function) const;

  /// Cell with exact (function, arity, size); throws if absent.
  [[nodiscard]] const Cell& pick(CellFunction function, unsigned arity,
                                 unsigned size_index = 0) const;

  /// Smallest available arity >= requested (e.g. arity 5 OR -> OR8 exists?).
  /// Returns nullptr when nothing fits.
  [[nodiscard]] const Cell* pick_at_least(CellFunction function, unsigned arity,
                                          unsigned size_index = 0) const;

  /// Number of size variants for a (function, arity) family.
  [[nodiscard]] unsigned num_sizes(CellFunction function, unsigned arity) const;

  void add(Cell cell) { cells_.push_back(std::move(cell)); }

 private:
  std::vector<Cell> cells_;
};

[[nodiscard]] std::string_view to_string(CellFunction function) noexcept;

}  // namespace dominosyn
