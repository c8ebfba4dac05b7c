/// \file eval_batch.hpp
/// Batched multi-candidate phase evaluation (docs/eval_batch.md).
///
/// EvalState scores one candidate per cone walk: apply_flip cascades demand
/// through the flipped output's cone and pays an O(log nodes) summation-tree
/// path update per touched leaf.  The search engines, however, score *many*
/// candidates against the *same* base state between commits — speculative
/// §4.1 trials, both phases of a branch-and-bound output, whole descent
/// sweeps — and those candidates overwhelmingly share cones (the PR 4
/// inverted cone index exists because they do).
///
/// EvalBatch restructures that per-candidate bookkeeping into a sparse
/// structure-of-arrays form.  Each lane replays the exact scalar cascade of
/// its phase overrides (EvalState::add_output_refs / remove_output_refs)
/// against the *unmutated* bound base through an epoch-stamped delta
/// overlay — counters the lane never touches are read from the base and
/// never copied, so a lane costs O(|cone|), not O(region).  What the lanes
/// share is everything the scalar path pays per flip *and again per undo*:
///
///  * plan(outputs)  — records the variable outputs (O(#outputs); the
///    cascades discover their own cones lazily).  Reusable across binds.
///  * bind(base)     — O(1): the base is referenced, not gathered.  The
///    lanes' deltas ride on top of it, so there is nothing to strip and
///    nothing to undo — W candidates cost W apply-cascades, zero undos.
///  * lanes          — each lane overrides the variable outputs' phases
///    (keep-base / positive / negative; unassigned base outputs stay
///    unassigned under keep-base, which is what the branch-and-bound
///    partial states batch with).
///  * evaluate()     — runs the lane cascades, recomputes each changed
///    leaf once through EvalState::compute_leaf (the exact scalar formula),
///    then replaces the per-flip O(log nodes) root-path updates — the
///    scalar path's dominant cost, paid per refreshed leaf — with a
///    deduplicated summation-tree recombination over the changed leaves,
///    executed level by level; untouched subtrees are read from the base
///    state's tree.  The recombination is adaptive: when the lanes' leaf
///    sets overlap (branch-and-bound siblings and pods, §4.1 pair windows)
///    it runs ONE shared schedule over the union with lanes-wide SIMD adds
///    on contiguous [leaf][component][lane] blocks; when they are disjoint
///    (independent trial cones) each lane recombines only its own marked
///    ancestors.  Both orders compute every marked node as left + right,
///    so they are interchangeable bit-for-bit.
///
/// Bit-identity (the contract every engine relies on): the fixed-shape
/// summation tree's root is a pure function of the current leaf values, each
/// leaf is a pure function of integer counters, and the lanes reproduce the
/// scalar counters exactly (integer arithmetic is path-independent).  The
/// tree pass only *adds* — vector adds are IEEE-identical to scalar adds —
/// so cost(lane) is bit-for-bit what EvalState::apply_flip + cost() would
/// report, at any lane width, with or without the AVX2 kernel (which is
/// compiled out under DOMINOSYN_NO_SIMD and runtime-dispatched otherwise).

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "phase/eval.hpp"

namespace dominosyn {

/// Default lane width of the batched evaluator: the sweet spot measured by
/// bench/micro_incremental's `batched_eval` lane sweep — wide enough to
/// amortize the per-window planning and union work, before the per-key rows
/// outgrow a couple of cache lines.
inline constexpr std::size_t kDefaultEvalBatchLanes = 16;

/// Hard lane-width ceiling (scratch sizing; wider lanes stop paying once the
/// per-key row exceeds a few cache lines).
inline constexpr std::size_t kMaxEvalBatchLanes = 64;

/// Resolves a requested lane width: 0 = the default, larger requests clamp
/// to the ceiling.  1 means "scalar" — engines take their unbatched path.
[[nodiscard]] constexpr std::size_t resolve_eval_batch_lanes(
    std::size_t requested) noexcept {
  if (requested == 0) return kDefaultEvalBatchLanes;
  return requested < kMaxEvalBatchLanes ? requested : kMaxEvalBatchLanes;
}

/// True when the runtime-dispatched AVX2 tree kernel is active (x86-64 with
/// AVX2, not compiled out by DOMINOSYN_NO_SIMD).  Informational only: both
/// kernels are bit-identical.
[[nodiscard]] bool eval_batch_simd_active() noexcept;

/// W-lane batched evaluator over a shared EvalContext.  One instance is a
/// reusable scratch arena: plan() may be called any number of times with
/// different output sets, bind() any number of times per plan.  Not
/// thread-safe; concurrent EvalBatch instances may bind the same (unmutated)
/// base state.
class EvalBatch {
 public:
  /// A lane's choice for one variable output.
  enum class LanePhase : std::uint8_t {
    kBase = 0,      ///< inherit the base state (assigned phase, or unassigned)
    kPositive = 1,  ///< output realized in positive phase in this lane
    kNegative = 2,  ///< output realized in negative phase in this lane
  };

  EvalBatch(std::shared_ptr<const EvalContext> context, std::size_t max_lanes);

  /// Records a new set of variable outputs (duplicates are rejected).
  /// O(#outputs); invalidates the current bind.
  void plan(std::span<const std::uint32_t> outputs);
  void plan(std::initializer_list<std::uint32_t> outputs);

  [[nodiscard]] std::size_t max_lanes() const noexcept { return max_lanes_; }
  [[nodiscard]] std::span<const std::uint32_t> outputs() const noexcept {
    return outputs_;
  }
  /// Touched-leaf union of the last evaluate() (telemetry: the shared
  /// summation-tree schedule's width).  0 before the first evaluate.
  [[nodiscard]] std::size_t region_size() const noexcept {
    return region_size_;
  }

  /// Binds the lane programme to a base state (same context) in O(1) — the
  /// base is referenced, not copied.  It must outlive evaluate() calls and
  /// must not be mutated while bound.  Resets the lane programme.  Throws
  /// std::logic_error for an area-only base (it has no summation tree).
  void bind(const EvalState& base);

  /// Adds a lane (all choices kBase) and returns its index.
  std::size_t add_lane();
  /// Sets lane `lane`'s choice for variable output outputs()[slot].
  void set_choice(std::size_t lane, std::size_t slot, LanePhase choice);
  /// Shorthand: the opposite of the bound base's assigned phase.
  void set_flip(std::size_t lane, std::size_t slot);
  void clear_lanes() noexcept { num_lanes_ = 0; }
  [[nodiscard]] std::size_t num_lanes() const noexcept { return num_lanes_; }

  /// Scores every added lane against the bound base in one shared walk.
  void evaluate();

  /// Per-lane results, valid until the next bind()/plan().  Bit-identical to
  /// EvalState with the lane's flips applied.
  [[nodiscard]] AssignmentCost cost(std::size_t lane) const;
  [[nodiscard]] double power_total(std::size_t lane) const {
    return cost(lane).power.total();
  }
  [[nodiscard]] std::size_t area_cells(std::size_t lane) const;
  /// The search metric: power total or area cells as double (exactly
  /// minarea.cpp's metric_of).
  [[nodiscard]] double metric(std::size_t lane, bool by_power) const;

 private:
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;

  // Per-lane delta overlay over the bound base's counters: a key's deltas
  // are live iff d_[key].stamp == lane_tick_ (re-zeroed on first touch, so
  // switching lanes is O(1)).
  void touch_key(InstanceKey key);
  [[nodiscard]] std::int64_t eff_ref(InstanceKey key) const;
  void lane_add_ref(InstanceKey key);
  void lane_remove_ref(InstanceKey key);
  void lane_touch_pin(InstanceKey key, std::int32_t delta);
  void lane_add_output(std::uint32_t output, LanePhase phase);
  void lane_remove_output(std::uint32_t output, LanePhase phase);
  /// Registers key's SoA leaf block (broadcasting the base leaf across all
  /// lanes on first registration) and returns its index.
  std::uint32_t ensure_block(InstanceKey key);
  /// Appends an uninitialized 3-row block and returns its index.
  std::uint32_t append_block();

  std::shared_ptr<const EvalContext> ctx_;
  std::size_t max_lanes_;
  std::size_t leaf_base_;

  // -- plan (context-only) ----------------------------------------------------
  std::vector<std::uint32_t> outputs_;

  // -- bind -------------------------------------------------------------------
  const EvalState* base_ = nullptr;

  // -- lane programme ---------------------------------------------------------
  std::size_t num_lanes_ = 0;
  std::vector<LanePhase> choices_;  ///< max_lanes_ x outputs_.size()

  // -- evaluate scratch -------------------------------------------------------
  // Delta overlay (sized num_instances, epoch-stamped per lane).  Stamp and
  // deltas share one struct so a cascade touch costs one cache line, not
  // five.
  struct Delta {
    std::uint32_t stamp = 0;  ///< live iff == lane_tick_
    std::int32_t ref = 0;
    std::int32_t pins = 0;
    std::int32_t po_refs = 0;
    std::int32_t po_inv = 0;
  };
  std::vector<Delta> d_;
  std::uint32_t lane_tick_ = 0;
  bool plain_ = false;  ///< !config().load_aware: leaves are per-key constants
  std::vector<InstanceKey> lane_touched_;  ///< touched keys (load-aware only)
  std::vector<InstanceKey> lane_stack_;    ///< cascade worklist
  // Per-lane integer deltas accumulated during the cascade.
  std::int64_t gates_d_ = 0, dup_d_ = 0, iinv_d_ = 0, oinv_d_ = 0;
  // Changed leaves per lane (flat, lane_begin_-delimited) and their union.
  std::vector<std::pair<InstanceKey, EvalState::Leaf>> lane_leaves_;
  std::vector<std::uint32_t> lane_begin_;  ///< num_lanes_ + 1 offsets
  std::vector<InstanceKey> blocks_;        ///< union of changed leaf keys
  std::vector<std::uint32_t> blk_index_;   ///< key -> SoA block / kNoBlock
  std::vector<std::uint32_t> blk_stamp_;
  std::uint32_t eval_tick_ = 0;
  // SoA value blocks ([block][3][num_lanes_], grow-only storage).
  std::vector<double> values_;
  std::uint32_t num_blocks_ = 0;
  // Summation-tree recombination: marked internal positions bucketed by
  // depth (bit_width), processed deepest-first so children resolve first.
  std::vector<std::uint32_t> pos_stamp_;   ///< position marked this pass
  std::vector<std::uint32_t> pos_block_;   ///< marked position -> block / val
  std::uint32_t pos_tick_ = 0;
  std::vector<std::vector<std::uint32_t>> levels_;
  std::uint32_t root_block_ = kNoBlock;    ///< SIMD-path root block
  // Sparse-path scratch: the climbing fold's parked-partial-sums stack
  // (each entry is the fully-combined left child of the LCA with the next
  // leaf), and the per-lane roots it produces.
  struct FrontierNode {
    std::uint32_t pos;
    EvalState::Leaf val;
  };
  std::vector<std::uint64_t> sort_keys_;   ///< (leaf key << 32) | slot packs
  std::vector<FrontierNode> frontier_;
  std::vector<EvalState::Leaf> roots_;     ///< sparse-path per-lane roots
  // Plain-model fast path.  A plain leaf depends only on (kind, ref > 0,
  // po_inv > 0), so its realized and shared-output-inverter contributions
  // are per-key constants precomputed once; the cascades record each key's
  // boundary flags at the 0-crossings themselves (the last emission per key
  // wins through leaf_slot_), and scanning the per-lane key bitmap recovers
  // the changed keys already sorted — no sweep pass and no sort.  Leaves
  // are materialized from the tables only once per distinct key, at fold
  // time, via plain_make.
  void emit_plain(InstanceKey key, bool realized, bool oinv);
  EvalState::Leaf plain_make(InstanceKey key, std::uint32_t flags) const;
  std::vector<EvalState::Leaf> plain_leaf_;  ///< realized part (ref > 0)
  std::vector<double> plain_oinv_;           ///< po_inv > 0 part
  std::vector<std::uint64_t> leaf_bits_;     ///< per-lane changed-key bitmap
  std::vector<std::uint64_t> win_bits_;      ///< whole-window union bitmap
  std::vector<std::uint32_t> leaf_slot_;     ///< key -> last boundary flags
  std::vector<std::uint64_t> sorted_packs_;  ///< per-lane sorted key packs
  std::vector<std::uint32_t> sorted_begin_;  ///< num_lanes_ + 1 offsets
  bool sparse_tree_ = false;               ///< which path the last evaluate ran
  std::size_t region_size_ = 0;            ///< touched-leaf union count
  // Per-lane results.
  std::vector<std::size_t> gates_l_, dup_l_, iinv_l_, oinv_l_;
  bool evaluated_ = false;
};

}  // namespace dominosyn
