/// \file eval_batch.cpp
/// Batched multi-candidate evaluation: per-lane sparse delta cascades over
/// the bound base plus one shared deduplicated summation-tree schedule
/// (docs/eval_batch.md).

#include "phase/eval_batch.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"

#if defined(__x86_64__) && !defined(DOMINOSYN_NO_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define DOMINOSYN_EVAL_BATCH_AVX2 1
#include <immintrin.h>
#endif

namespace dominosyn {

namespace {

// The tree pass is pure element-wise addition over contiguous doubles, which
// is exactly the operation where a vector lane is bit-identical to the scalar
// loop (IEEE addition, no fusion, no reassociation).  The AVX2 kernel is
// selected once at load time; DOMINOSYN_NO_SIMD compiles it out entirely so
// the forced-scalar CI job proves the fallback agrees.

void add_rows_scalar(double* dst, const double* a, const double* b,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b[i];
}

void add_rows_const_scalar(double* dst, const double* a, double b,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] + b;
}

#ifdef DOMINOSYN_EVAL_BATCH_AVX2
__attribute__((target("avx2"))) void add_rows_avx2(double* dst, const double* a,
                                                   const double* b,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i,
                     _mm256_add_pd(_mm256_loadu_pd(a + i),
                                   _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) dst[i] = a[i] + b[i];
}

__attribute__((target("avx2"))) void add_rows_const_avx2(double* dst,
                                                         const double* a,
                                                         double b,
                                                         std::size_t n) {
  std::size_t i = 0;
  const __m256d vb = _mm256_set1_pd(b);
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(a + i), vb));
  for (; i < n; ++i) dst[i] = a[i] + b;
}
#endif

using AddRowsFn = void (*)(double*, const double*, const double*, std::size_t);
using AddRowsConstFn = void (*)(double*, const double*, double, std::size_t);

AddRowsFn pick_add_rows() {
#ifdef DOMINOSYN_EVAL_BATCH_AVX2
  if (__builtin_cpu_supports("avx2")) return add_rows_avx2;
#endif
  return add_rows_scalar;
}

AddRowsConstFn pick_add_rows_const() {
#ifdef DOMINOSYN_EVAL_BATCH_AVX2
  if (__builtin_cpu_supports("avx2")) return add_rows_const_avx2;
#endif
  return add_rows_const_scalar;
}

const AddRowsFn g_add_rows = pick_add_rows();
const AddRowsConstFn g_add_rows_const = pick_add_rows_const();

}  // namespace

bool eval_batch_simd_active() noexcept {
  return g_add_rows != static_cast<AddRowsFn>(add_rows_scalar);
}

EvalBatch::EvalBatch(std::shared_ptr<const EvalContext> context,
                     std::size_t max_lanes)
    : ctx_(std::move(context)), max_lanes_(max_lanes) {
  if (!ctx_) throw std::runtime_error("EvalBatch: null context");
  if (max_lanes_ == 0 || max_lanes_ > kMaxEvalBatchLanes)
    throw std::runtime_error("EvalBatch: bad lane width");
  const std::size_t keys = ctx_->num_instances();
  leaf_base_ = std::bit_ceil(std::max<std::size_t>(keys, 2));
  d_.assign(keys, Delta{});
  blk_index_.resize(keys);
  blk_stamp_.assign(keys, 0);
  pos_stamp_.assign(leaf_base_, 0);
  pos_block_.resize(leaf_base_);
  levels_.resize(std::bit_width(leaf_base_) - 1);
  plain_ = !ctx_->config().load_aware;
  if (plain_) {
    // ref = 1 / po_inv = 1 exercise both plain-model contributions through
    // the one shared formula; any positive count produces the same doubles.
    plain_leaf_.resize(keys);
    plain_oinv_.resize(keys);
    for (InstanceKey key = 0; key < keys; ++key) {
      const EvalState::Leaf full =
          EvalState::compute_leaf(*ctx_, key, 1, 0, 0, 1);
      plain_leaf_[key] = {full.domino, full.input_inv, 0.0};
      plain_oinv_[key] = full.output_inv;
    }
    leaf_bits_.assign((keys + 63) / 64, 0);
    win_bits_.assign((keys + 63) / 64, 0);
    leaf_slot_.resize(keys);
  }
}

void EvalBatch::emit_plain(InstanceKey key, bool realized, bool oinv) {
  // Called at a 0-crossing with the key's CURRENT effective boundary state.
  // A key's last crossing sees its final state, and the last emission wins
  // through leaf_slot_, so the recorded flags describe the end-of-lane
  // leaf.  A cancelled crossing records the base state, which folds back to
  // the base values — harmless.  The leaf itself is built from the plain
  // tables only once per distinct key, at fold time.
  leaf_bits_[key >> 6] |= std::uint64_t{1} << (key & 63u);
  leaf_slot_[key] = (realized ? 1u : 0u) | (oinv ? 2u : 0u);
}

EvalState::Leaf EvalBatch::plain_make(InstanceKey key,
                                      std::uint32_t flags) const {
  // Pure selects from the precomputed per-key contributions — the exact
  // doubles compute_leaf would produce for this boundary state.
  EvalState::Leaf leaf = (flags & 1u) != 0 ? plain_leaf_[key]
                                           : EvalState::Leaf{};
  if ((flags & 2u) != 0) leaf.output_inv = plain_oinv_[key];
  return leaf;
}

void EvalBatch::plan(std::initializer_list<std::uint32_t> outputs) {
  plan(std::span<const std::uint32_t>(outputs.begin(), outputs.size()));
}

void EvalBatch::plan(std::span<const std::uint32_t> outputs) {
  const EvalContext& ctx = *ctx_;
  base_ = nullptr;
  evaluated_ = false;
  num_lanes_ = 0;

  outputs_.assign(outputs.begin(), outputs.end());
  for (std::size_t a = 0; a < outputs_.size(); ++a) {
    if (outputs_[a] >= ctx.num_outputs())
      throw std::runtime_error("EvalBatch::plan: output out of range");
    for (std::size_t b = a + 1; b < outputs_.size(); ++b)
      if (outputs_[a] == outputs_[b])
        throw std::runtime_error("EvalBatch::plan: duplicate output");
  }
}

void EvalBatch::bind(const EvalState& base) {
  if (base.ctx_.get() != ctx_.get())
    throw std::runtime_error("EvalBatch::bind: context mismatch");
  if (base.area_only())
    throw std::logic_error("EvalBatch::bind: area-only base has no power tree");
  base_ = &base;
  evaluated_ = false;
  num_lanes_ = 0;
}

std::size_t EvalBatch::add_lane() {
  if (base_ == nullptr) throw std::runtime_error("EvalBatch::add_lane: not bound");
  if (num_lanes_ >= max_lanes_)
    throw std::runtime_error("EvalBatch::add_lane: lane width exceeded");
  choices_.resize(max_lanes_ * outputs_.size(), LanePhase::kBase);
  LanePhase* row = choices_.data() + num_lanes_ * outputs_.size();
  std::fill(row, row + outputs_.size(), LanePhase::kBase);
  evaluated_ = false;
  return num_lanes_++;
}

void EvalBatch::set_choice(std::size_t lane, std::size_t slot,
                           LanePhase choice) {
  if (lane >= num_lanes_ || slot >= outputs_.size())
    throw std::runtime_error("EvalBatch::set_choice: out of range");
  choices_[lane * outputs_.size() + slot] = choice;
  evaluated_ = false;
}

void EvalBatch::set_flip(std::size_t lane, std::size_t slot) {
  if (slot >= outputs_.size())
    throw std::runtime_error("EvalBatch::set_flip: out of range");
  const std::uint32_t o = outputs_[slot];
  if (base_ == nullptr || !base_->output_assigned(o))
    throw std::runtime_error("EvalBatch::set_flip: base output unassigned");
  set_choice(lane, slot,
             base_->assignment()[o] == Phase::kPositive ? LanePhase::kNegative
                                                        : LanePhase::kPositive);
}

void EvalBatch::touch_key(InstanceKey key) {
  Delta& d = d_[key];
  if (d.stamp == lane_tick_) return;
  d.stamp = lane_tick_;
  d.ref = 0;
  d.pins = 0;
  d.po_refs = 0;
  d.po_inv = 0;
  if (!plain_) lane_touched_.push_back(key);
}

std::int64_t EvalBatch::eff_ref(InstanceKey key) const {
  std::int64_t v = base_->ref_[key];
  const Delta& d = d_[key];
  if (d.stamp == lane_tick_) v += d.ref;
  return v;
}

void EvalBatch::lane_touch_pin(InstanceKey key, std::int32_t delta) {
  touch_key(key);
  d_[key].pins += delta;
}

// lane_add_ref / lane_remove_ref replay EvalState::add_ref / remove_ref
// exactly, with the base's counters read through the lane's delta overlay
// instead of mutated.  The integer cell counters update at the same
// realization boundaries; their final values are path-independent, so the
// lane reproduces the scalar totals bit-for-bit.

void EvalBatch::lane_add_ref(InstanceKey key) {
  // Hot loop: everything it dereferences is hoisted into locals so the stores
  // through the delta overlay can't force reloads of the vector data
  // pointers.
  Delta* const deltas = d_.data();
  const std::uint32_t* const bref = base_->ref_.data();
  const std::uint32_t* const bpo = base_->po_inv_.data();
  const EvalContext& ctx = *ctx_;
  const std::uint32_t tick = lane_tick_;
  const bool plain = plain_;
  lane_stack_.clear();
  lane_stack_.push_back(key);
  while (!lane_stack_.empty()) {
    const InstanceKey k = lane_stack_.back();
    lane_stack_.pop_back();
    Delta& d = deltas[k];
    if (d.stamp != tick) {
      d.stamp = tick;
      d.ref = 0;
      d.pins = 0;
      d.po_refs = 0;
      d.po_inv = 0;
      if (!plain) lane_touched_.push_back(k);
    }
    const std::int64_t prev = static_cast<std::int64_t>(bref[k]) + d.ref;
    ++d.ref;
    if (prev != 0) continue;  // already realized
    if (plain)  // realization 0 -> 1
      emit_plain(k, true, static_cast<std::int64_t>(bpo[k]) + d.po_inv > 0);
    const NodeId node = k >> 1;
    const bool neg = (k & 1) != 0;
    const NodeKind kind = ctx.kind(node);
    if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
      ++gates_d_;
      const Delta& sib = deltas[k ^ 1u];
      std::int64_t sib_ref = bref[k ^ 1u];
      if (sib.stamp == tick) sib_ref += sib.ref;
      if (sib_ref > 0) ++dup_d_;
      if (plain) {
        // Plain leaves never read pin counts, and a child's own stamp
        // check initializes its delta when popped — only the walk matters.
        for (const InstanceKey edge : ctx.gate_edges(node))
          lane_stack_.push_back(neg ? (edge ^ 1u) : edge);
        continue;
      }
      for (const InstanceKey edge : ctx.gate_edges(node)) {
        const InstanceKey fk = neg ? (edge ^ 1u) : edge;
        Delta& fd = deltas[fk];
        if (fd.stamp != tick) {
          fd.stamp = tick;
          fd.ref = 0;
          fd.pins = 0;
          fd.po_refs = 0;
          fd.po_inv = 0;
          lane_touched_.push_back(fk);
        }
        ++fd.pins;
        lane_stack_.push_back(fk);
      }
    } else if ((kind == NodeKind::kPi || kind == NodeKind::kLatch) && neg) {
      ++iinv_d_;
    }
  }
}

void EvalBatch::lane_remove_ref(InstanceKey key) {
  Delta* const deltas = d_.data();
  const std::uint32_t* const bref = base_->ref_.data();
  const std::uint32_t* const bpo = base_->po_inv_.data();
  const EvalContext& ctx = *ctx_;
  const std::uint32_t tick = lane_tick_;
  const bool plain = plain_;
  lane_stack_.clear();
  lane_stack_.push_back(key);
  while (!lane_stack_.empty()) {
    const InstanceKey k = lane_stack_.back();
    lane_stack_.pop_back();
    Delta& d = deltas[k];
    if (d.stamp != tick) {
      d.stamp = tick;
      d.ref = 0;
      d.pins = 0;
      d.po_refs = 0;
      d.po_inv = 0;
      if (!plain) lane_touched_.push_back(k);
    }
    --d.ref;
    if (static_cast<std::int64_t>(bref[k]) + d.ref != 0)
      continue;  // still demanded elsewhere
    if (plain)  // realization 1 -> 0
      emit_plain(k, false, static_cast<std::int64_t>(bpo[k]) + d.po_inv > 0);
    const NodeId node = k >> 1;
    const bool neg = (k & 1) != 0;
    const NodeKind kind = ctx.kind(node);
    if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
      --gates_d_;
      const Delta& sib = deltas[k ^ 1u];
      std::int64_t sib_ref = bref[k ^ 1u];
      if (sib.stamp == tick) sib_ref += sib.ref;
      if (sib_ref > 0) --dup_d_;
      if (plain) {
        for (const InstanceKey edge : ctx.gate_edges(node))
          lane_stack_.push_back(neg ? (edge ^ 1u) : edge);
        continue;
      }
      for (const InstanceKey edge : ctx.gate_edges(node)) {
        const InstanceKey fk = neg ? (edge ^ 1u) : edge;
        Delta& fd = deltas[fk];
        if (fd.stamp != tick) {
          fd.stamp = tick;
          fd.ref = 0;
          fd.pins = 0;
          fd.po_refs = 0;
          fd.po_inv = 0;
          lane_touched_.push_back(fk);
        }
        --fd.pins;
        lane_stack_.push_back(fk);
      }
    } else if ((kind == NodeKind::kPi || kind == NodeKind::kLatch) && neg) {
      --iinv_d_;
    }
  }
}

// The PO-root folding of EvalState::add_output_refs / remove_output_refs,
// on the delta overlay (leaf refreshes are deferred to the touched-key sweep
// in evaluate(), which recomputes every touched leaf from its effective
// counters — a superset of the scalar refresh points, with equal values).

void EvalBatch::lane_add_output(std::uint32_t output, LanePhase phase) {
  const EvalContext::Resolved& root = ctx_->po_root(output);
  const bool negative = phase == LanePhase::kNegative;
  const NodeId node = root.node;
  const bool pol = root.parity != negative;
  const bool source = is_source_kind(ctx_->kind(node));

  if (negative && source) {
    if (!pol) lane_add_ref(instance_key(node, true));
  } else {
    lane_add_ref(instance_key(node, pol));
  }

  if (node <= Network::const1()) return;
  if (!negative) {
    const InstanceKey key = instance_key(node, pol);
    touch_key(key);
    ++d_[key].po_refs;
  } else if (source) {
    if (!pol) {
      const InstanceKey key = instance_key(node, true);
      touch_key(key);
      ++d_[key].po_refs;
    }
  } else {
    const InstanceKey key = instance_key(node, pol);
    touch_key(key);
    const std::int64_t prev =
        static_cast<std::int64_t>(base_->po_inv_[key]) + d_[key].po_inv;
    ++d_[key].po_inv;
    if (prev == 0) {
      ++oinv_d_;
      ++d_[key].pins;  // the shared inverter's input pin
      if (plain_)      // po_inv 0 -> 1
        emit_plain(key,
                   static_cast<std::int64_t>(base_->ref_[key]) + d_[key].ref > 0,
                   true);
    }
  }
}

void EvalBatch::lane_remove_output(std::uint32_t output, LanePhase phase) {
  const EvalContext::Resolved& root = ctx_->po_root(output);
  const bool negative = phase == LanePhase::kNegative;
  const NodeId node = root.node;
  const bool pol = root.parity != negative;
  const bool source = is_source_kind(ctx_->kind(node));

  if (negative && source) {
    if (!pol) lane_remove_ref(instance_key(node, true));
  } else {
    lane_remove_ref(instance_key(node, pol));
  }

  if (node <= Network::const1()) return;
  if (!negative) {
    const InstanceKey key = instance_key(node, pol);
    touch_key(key);
    --d_[key].po_refs;
  } else if (source) {
    if (!pol) {
      const InstanceKey key = instance_key(node, true);
      touch_key(key);
      --d_[key].po_refs;
    }
  } else {
    const InstanceKey key = instance_key(node, pol);
    touch_key(key);
    --d_[key].po_inv;
    if (static_cast<std::int64_t>(base_->po_inv_[key]) + d_[key].po_inv == 0) {
      --oinv_d_;
      --d_[key].pins;
      if (plain_)  // po_inv 1 -> 0
        emit_plain(key,
                   static_cast<std::int64_t>(base_->ref_[key]) + d_[key].ref > 0,
                   false);
    }
  }
}

std::uint32_t EvalBatch::append_block() {
  // Grow-only raw storage: blocks are always fully written before they are
  // read, so stale values from earlier evaluates never leak.
  const std::size_t w3 = 3 * num_lanes_;
  const std::uint32_t blk = num_blocks_++;
  const std::size_t need = static_cast<std::size_t>(num_blocks_) * w3;
  if (values_.size() < need)
    values_.resize(std::max(values_.size() * 2, need));
  return blk;
}

std::uint32_t EvalBatch::ensure_block(InstanceKey key) {
  if (blk_index_[key] != kNoBlock) return blk_index_[key];
  const std::uint32_t blk = append_block();
  blk_index_[key] = blk;
  // Lanes that never change this leaf keep the base value: broadcast it, and
  // let changing lanes overwrite their slot.
  const std::size_t W = num_lanes_;
  const EvalState::Leaf& bl = base_->tree_[leaf_base_ + key];
  double* b = values_.data() + static_cast<std::size_t>(blk) * 3 * W;
  std::fill_n(b, W, bl.domino);
  std::fill_n(b + W, W, bl.input_inv);
  std::fill_n(b + 2 * W, W, bl.output_inv);
  return blk;
}

void EvalBatch::evaluate() {
  if (base_ == nullptr) throw std::runtime_error("EvalBatch::evaluate: not bound");
  if (num_lanes_ == 0)
    throw std::runtime_error("EvalBatch::evaluate: no lanes");
  const obs::TraceSpan span("batch.walk", obs::SpanCat::kBatch);
  const EvalState& base = *base_;
  const std::size_t W = num_lanes_;
  const std::size_t num_outs = outputs_.size();
  const std::size_t w3 = 3 * W;

  ++eval_tick_;
  blocks_.clear();
  num_blocks_ = 0;
  root_block_ = kNoBlock;
  gates_l_.resize(W);
  dup_l_.resize(W);
  iinv_l_.resize(W);
  oinv_l_.resize(W);
  lane_leaves_.clear();
  lane_begin_.resize(W + 1);
  lane_begin_[0] = 0;

  const bool load_aware = !plain_;
  sorted_packs_.clear();
  sorted_begin_.resize(W + 1);
  sorted_begin_[0] = 0;
  for (std::size_t w = 0; w < W; ++w) {
    ++lane_tick_;
    lane_touched_.clear();
    gates_d_ = dup_d_ = iinv_d_ = oinv_d_ = 0;

    // Replay the lane's overrides: assigning an unassigned base output adds
    // its cascade; overriding an assigned one adds the new phase's and
    // removes the old's (exactly EvalState::apply_flip / assign_output).  A
    // kBase choice inherits the base untouched.
    const LanePhase* row = choices_.data() + w * num_outs;
    for (std::size_t s = 0; s < num_outs; ++s) {
      if (row[s] == LanePhase::kBase) continue;
      const std::uint32_t o = outputs_[s];
      if (!base.output_assigned(o)) {
        lane_add_output(o, row[s]);
        continue;
      }
      const LanePhase bp = base.assignment()[o] == Phase::kNegative
                               ? LanePhase::kNegative
                               : LanePhase::kPositive;
      if (bp == row[s]) continue;
      lane_add_output(o, row[s]);
      lane_remove_output(o, bp);
    }

    gates_l_[w] = static_cast<std::size_t>(
        static_cast<std::int64_t>(base.domino_gates_) + gates_d_);
    dup_l_[w] = static_cast<std::size_t>(
        static_cast<std::int64_t>(base.duplicated_gates_) + dup_d_);
    iinv_l_[w] = static_cast<std::size_t>(
        static_cast<std::int64_t>(base.input_inverters_) + iinv_d_);
    oinv_l_[w] = static_cast<std::size_t>(
        static_cast<std::int64_t>(base.output_inverters_) + oinv_d_);

    if (load_aware) {
      // Load-aware leaves read pins / po_refs too, so every touched key is
      // recomputed through the one shared formula; a leaf bitwise equal to
      // the base's is dropped — the base subtree already holds exactly what
      // a scalar recomputation would produce.
      for (const InstanceKey k : lane_touched_) {
        const Delta& d = d_[k];
        const EvalState::Leaf leaf = EvalState::compute_leaf(
            *ctx_, k,
            static_cast<std::uint32_t>(
                static_cast<std::int64_t>(base.ref_[k]) + d.ref),
            static_cast<std::uint32_t>(
                static_cast<std::int64_t>(base.pins_[k]) + d.pins),
            static_cast<std::uint32_t>(
                static_cast<std::int64_t>(base.po_refs_[k]) + d.po_refs),
            static_cast<std::uint32_t>(
                static_cast<std::int64_t>(base.po_inv_[k]) + d.po_inv));
        const EvalState::Leaf& bl = base.tree_[leaf_base_ + k];
        if (std::memcmp(&leaf, &bl, sizeof(EvalState::Leaf)) == 0) continue;
        lane_leaves_.emplace_back(k, leaf);
      }
    } else {
      // The cascades already emitted this lane's changed leaves at their
      // 0-crossings.  Scanning the key bitmap (and clearing it for the next
      // lane) recovers the distinct changed keys in ascending order, with
      // each key's last — and therefore final — emission via leaf_slot_.
      for (std::size_t wi = 0; wi < leaf_bits_.size(); ++wi) {
        std::uint64_t bits = leaf_bits_[wi];
        if (bits == 0) continue;
        leaf_bits_[wi] = 0;
        win_bits_[wi] |= bits;  // whole-window union, for free
        const std::uint64_t key_base = static_cast<std::uint64_t>(wi) << 6;
        do {
          const std::uint64_t key =
              key_base + static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          sorted_packs_.push_back((key << 32) | leaf_slot_[key]);
        } while (bits != 0);
      }
    }
    sorted_begin_[w + 1] = static_cast<std::uint32_t>(sorted_packs_.size());
    lane_begin_[w + 1] = static_cast<std::uint32_t>(lane_leaves_.size());
  }

  // Union of changed leaves, and the path choice: the shared W-wide SIMD
  // schedule processes union ancestors with full lane rows, the per-lane
  // sparse pass exactly each lane's own ancestors.  SIMD vector adds are
  // 4-wide, so the shared pass wins once the lanes' leaf sets overlap by
  // more than W/4 on average; below that (disjoint trial cones) the wide
  // rows waste adds on lanes whose subtree didn't change.  Both passes
  // compute every marked node as left + right, so they agree bit-for-bit.
  // The vector-add economy argument caps out at narrow widths: a 2-lane
  // row still pays full per-node scheduling and scatter, which measurement
  // shows never beats per-lane folds there, so the crossover ratio is
  // floored at the 8-lane value (overlap ratio 2).
  // Plain lanes may have emitted the same key at several crossings; the
  // sorted packs carry the deduplicated per-lane sets, so both the union
  // and the path choice count each changed leaf once.  Their union comes
  // from popcounting the window bitmap; blocks_ is materialized (sorted)
  // from it only when the shared schedule actually runs.
  std::size_t changed_total = 0;
  if (plain_) {
    changed_total = sorted_packs_.size();
    std::size_t uni = 0;
    for (const std::uint64_t word : win_bits_)
      uni += static_cast<std::size_t>(std::popcount(word));
    region_size_ = uni;
    sparse_tree_ = changed_total * 4 < uni * std::max<std::size_t>(W, 8);
    for (std::size_t wi = 0; wi < win_bits_.size(); ++wi) {
      std::uint64_t bits = win_bits_[wi];
      if (bits == 0) continue;
      win_bits_[wi] = 0;
      if (sparse_tree_) continue;
      const std::uint64_t key_base = static_cast<std::uint64_t>(wi) << 6;
      do {
        const InstanceKey k = static_cast<InstanceKey>(
            key_base + static_cast<unsigned>(std::countr_zero(bits)));
        bits &= bits - 1;
        blk_stamp_[k] = eval_tick_;
        blk_index_[k] = kNoBlock;
        blocks_.push_back(k);
      } while (bits != 0);
    }
  } else {
    changed_total = lane_leaves_.size();
    for (const auto& [k, leaf] : lane_leaves_) {
      if (blk_stamp_[k] == eval_tick_) continue;
      blk_stamp_[k] = eval_tick_;
      blk_index_[k] = kNoBlock;
      blocks_.push_back(k);
    }
    region_size_ = blocks_.size();
    sparse_tree_ =
        changed_total * 4 < blocks_.size() * std::max<std::size_t>(W, 8);
  }

  if (!sparse_tree_) {
    for (std::size_t w = 0; w < W; ++w) {
      if (plain_) {
        for (std::uint32_t i = sorted_begin_[w]; i < sorted_begin_[w + 1];
             ++i) {
          const std::uint64_t p = sorted_packs_[i];
          const InstanceKey k = static_cast<InstanceKey>(p >> 32);
          const EvalState::Leaf leaf =
              plain_make(k, static_cast<std::uint32_t>(p));
          const std::uint32_t blk = ensure_block(k);
          double* b = values_.data() + static_cast<std::size_t>(blk) * w3;
          b[w] = leaf.domino;
          b[W + w] = leaf.input_inv;
          b[2 * W + w] = leaf.output_inv;
        }
        continue;
      }
      for (std::uint32_t i = lane_begin_[w]; i < lane_begin_[w + 1]; ++i) {
        const auto& [k, leaf] = lane_leaves_[i];
        const std::uint32_t blk = ensure_block(k);
        double* b = values_.data() + static_cast<std::size_t>(blk) * w3;
        b[w] = leaf.domino;
        b[W + w] = leaf.input_inv;
        b[2 * W + w] = leaf.output_inv;
      }
    }
    // Shared schedule: the deduplicated ancestors of every changed leaf,
    // bucketed by depth and recombined deepest-first so each node's
    // children are final when it runs.  Unchanged children read from the
    // base state's tree.
    ++pos_tick_;
    for (auto& level : levels_) level.clear();
    for (const InstanceKey k : blocks_) {
      std::size_t p = (leaf_base_ + k) >> 1;
      while (p >= 1 && pos_stamp_[p] != pos_tick_) {
        pos_stamp_[p] = pos_tick_;
        levels_[std::bit_width(p) - 1].push_back(static_cast<std::uint32_t>(p));
        p >>= 1;
      }
    }
    const auto child_block = [&](std::size_t c) -> std::uint32_t {
      if (c >= leaf_base_) {
        const std::size_t key = c - leaf_base_;
        if (key < blk_stamp_.size() && blk_stamp_[key] == eval_tick_)
          return blk_index_[key];
        return kNoBlock;
      }
      return pos_stamp_[c] == pos_tick_ ? pos_block_[c] : kNoBlock;
    };
    for (std::size_t level = levels_.size(); level-- > 0;) {
      for (const std::uint32_t pos : levels_[level]) {
        const std::size_t left = static_cast<std::size_t>(pos) * 2;
        const std::uint32_t lb = child_block(left);
        const std::uint32_t rb = child_block(left + 1);
        const std::uint32_t dst = append_block();
        pos_block_[pos] = dst;
        double* d = values_.data() + static_cast<std::size_t>(dst) * w3;
        if (lb != kNoBlock && rb != kNoBlock) {
          g_add_rows(d, values_.data() + static_cast<std::size_t>(lb) * w3,
                     values_.data() + static_cast<std::size_t>(rb) * w3, w3);
        } else if (lb != kNoBlock || rb != kNoBlock) {
          const std::uint32_t blk = lb != kNoBlock ? lb : rb;
          const EvalState::Leaf& bl =
              base.tree_[lb != kNoBlock ? left + 1 : left];
          const double* a = values_.data() + static_cast<std::size_t>(blk) * w3;
          g_add_rows_const(d, a, bl.domino, W);
          g_add_rows_const(d + W, a + W, bl.input_inv, W);
          g_add_rows_const(d + 2 * W, a + 2 * W, bl.output_inv, W);
        } else {
          // Unreachable by construction (a marked position has a changed
          // leaf in at least one child's subtree), but keep it correct.
          const EvalState::Leaf& l = base.tree_[left];
          const EvalState::Leaf& r = base.tree_[left + 1];
          std::fill_n(d, W, l.domino + r.domino);
          std::fill_n(d + W, W, l.input_inv + r.input_inv);
          std::fill_n(d + 2 * W, W, l.output_inv + r.output_inv);
        }
      }
    }
    if (!blocks_.empty()) root_block_ = pos_block_[1];
  } else {
    // Per-lane sparse pass.  Every changed leaf sits at the same depth of
    // the perfect tree, so each lane's marked ancestors can be folded in one
    // left-to-right climbing walk over its key-sorted changed leaves (see
    // the climbing-fold comment below): sequential buffers, no per-node
    // marking — and every marked parent is still computed as
    // combine(left, right), so the result is bit-identical to the shared
    // schedule and to the scalar path walk.
    roots_.resize(W);
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint32_t b0 = plain_ ? sorted_begin_[w] : lane_begin_[w];
      const std::uint32_t b1 =
          plain_ ? sorted_begin_[w + 1] : lane_begin_[w + 1];
      if (b0 == b1) {
        roots_[w] = base.tree_[1];
        continue;
      }
      // Order the lane's changed leaves by key without moving the 24-byte
      // values: fold (key << 32 | slot-or-flags) packs instead.  Plain
      // lanes got their packs sorted and deduplicated for free from the
      // bitmap scan; load-aware lanes sort theirs here.
      const auto* const seg = lane_leaves_.data();
      const std::uint64_t* packs;
      std::size_t n;
      if (plain_) {
        packs = sorted_packs_.data() + b0;
        n = b1 - b0;
      } else {
        sort_keys_.clear();
        for (std::uint32_t i = b0; i < b1; ++i)
          sort_keys_.push_back(
              (static_cast<std::uint64_t>(seg[i].first) << 32) | i);
        std::sort(sort_keys_.begin(), sort_keys_.end());
        packs = sort_keys_.data();
        n = sort_keys_.size();
      }

      // Climbing fold.  Each changed subtree's value climbs toward the
      // root adding the base tree's sibling at every level (finite IEEE
      // adds commute bitwise, so the add order within a parent is free),
      // pausing on a small stack as the left child of the lowest common
      // ancestor it shares with the next leaf until the right side arrives.
      // That computes the identical combine DAG as a level-by-level frontier
      // fold — every marked parent is the sum of its two children — with
      // straight-line runs instead of per-level rescans, so the result is
      // still bit-identical to the scalar path walk.
      frontier_.clear();
      const std::uint32_t leaf_depth =
          static_cast<std::uint32_t>(std::bit_width(leaf_base_));
      for (std::size_t j = 0; j < n;) {
        const std::uint32_t key = static_cast<std::uint32_t>(packs[j] >> 32);
        EvalState::Leaf val =
            plain_ ? plain_make(key, static_cast<std::uint32_t>(packs[j]))
                   : seg[static_cast<std::uint32_t>(packs[j])].second;
        ++j;
        while (j < n && (packs[j] >> 32) == key) ++j;  // repeats recompute ==
        std::uint32_t pos = static_cast<std::uint32_t>(leaf_base_) + key;
        for (;;) {
          if ((pos & 1u) != 0 && !frontier_.empty() &&
              frontier_.back().pos == (pos ^ 1u)) {
            // The pending left sibling's subtree is complete: merge and
            // keep climbing as the parent.
            val = EvalState::combine(frontier_.back().val, val);
            frontier_.pop_back();
            pos >>= 1;
            continue;
          }
          const std::uint32_t d =
              static_cast<std::uint32_t>(std::bit_width(pos));
          std::uint32_t climb =
              frontier_.empty()
                  ? d - 1
                  : d - static_cast<std::uint32_t>(
                            std::bit_width(frontier_.back().pos));
          bool park = false;
          if (j < n) {
            const std::uint32_t next_anc =
                (static_cast<std::uint32_t>(leaf_base_) +
                 static_cast<std::uint32_t>(packs[j] >> 32)) >>
                (leaf_depth - d);
            const std::uint32_t meet =
                static_cast<std::uint32_t>(std::bit_width(pos ^ next_anc));
            if (meet - 1 < climb) {
              climb = meet - 1;
              park = true;
            }
          }
          for (std::uint32_t s = 0; s < climb; ++s) {
            const EvalState::Leaf& sib = base.tree_[pos ^ 1u];
            val.domino += sib.domino;
            val.input_inv += sib.input_inv;
            val.output_inv += sib.output_inv;
            pos >>= 1;
          }
          if (park) {
            frontier_.push_back({pos, val});
            break;
          }
          if (frontier_.empty()) {
            roots_[w] = val;
            break;
          }
          // Arrived at the stack top's depth as its right sibling: the
          // merge check at the loop head fires next.
        }
      }
    }
  }
  evaluated_ = true;
}

AssignmentCost EvalBatch::cost(std::size_t lane) const {
  if (!evaluated_ || lane >= num_lanes_)
    throw std::runtime_error("EvalBatch::cost: not evaluated");
  AssignmentCost cost;
  if (sparse_tree_) {
    const EvalState::Leaf& root = roots_[lane];
    cost.power.domino_block = root.domino;
    cost.power.input_inverters = root.input_inv;
    cost.power.output_inverters = root.output_inv;
  } else if (root_block_ != kNoBlock) {
    const double* root =
        values_.data() + static_cast<std::size_t>(root_block_) * 3 * num_lanes_;
    cost.power.domino_block = root[lane];
    cost.power.input_inverters = root[num_lanes_ + lane];
    cost.power.output_inverters = root[2 * num_lanes_ + lane];
  } else {
    const EvalState::Leaf& root = base_->tree_[1];
    cost.power.domino_block = root.domino;
    cost.power.input_inverters = root.input_inv;
    cost.power.output_inverters = root.output_inv;
  }
  cost.power.clock_load = ctx_->config().clock_cap_per_gate *
                          static_cast<double>(gates_l_[lane]);
  cost.domino_gates = gates_l_[lane];
  cost.duplicated_gates = dup_l_[lane];
  cost.input_inverters = iinv_l_[lane];
  cost.output_inverters = oinv_l_[lane];
  return cost;
}

std::size_t EvalBatch::area_cells(std::size_t lane) const {
  if (!evaluated_ || lane >= num_lanes_)
    throw std::runtime_error("EvalBatch::area_cells: not evaluated");
  return gates_l_[lane] + iinv_l_[lane] + oinv_l_[lane];
}

double EvalBatch::metric(std::size_t lane, bool by_power) const {
  return by_power ? power_total(lane)
                  : static_cast<double>(area_cells(lane));
}

}  // namespace dominosyn
