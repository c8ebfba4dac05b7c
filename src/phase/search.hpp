/// \file search.hpp
/// Phase-assignment search algorithms:
///  * min_area_assignment — the Puri et al. (ICCAD'96, ref [15]) baseline:
///    minimize duplication (standard-cell count).  Exhaustive when the
///    output count is small, seeded simulated annealing + greedy descent
///    otherwise.
///  * min_power_assignment — the paper's §4.1 heuristic: pairwise cost
///    function K built from cone sizes |D|, current average probabilities A
///    and overlaps O(i,j); greedy commit loop with measured power.
///  * exhaustive_min_power — exact search over all 2^P assignments (the
///    frg1 "only 8 assignments" observation), by default as a
///    branch-and-bound enumeration with admissible per-output lower bounds
///    (docs/search.md); the unpruned Gray-code walk remains available as
///    the reference algorithm.
///
/// All searches run on the incremental engine (phase/eval.hpp): candidate
/// moves cost O(|cone|) instead of O(network), the exhaustive searches
/// shard the assignment space across threads (Gray-code chunks, or
/// branch-and-bound subtrees exchanging the incumbent through an atomic
/// best cost), and annealing restarts run concurrently.  Results are
/// deterministic in the seed and independent of the thread count; for the
/// pruned search only the *result* is — the work counters (nodes expanded,
/// subtrees pruned) depend on when workers observe each other's incumbent,
/// so they are reproducible only single-threaded.

#pragma once

#include <cstdint>
#include <stdexcept>

#include "network/network.hpp"
#include "phase/assignment.hpp"

namespace dominosyn {

struct SearchResult {
  PhaseAssignment assignment;
  AssignmentCost cost;
  /// Candidates whose exact cost was computed: every Gray-walk position, or
  /// the branch-and-bound leaves plus its incumbent-seeding evaluations.
  std::size_t evaluations = 0;
  /// Branch-and-bound telemetry (zero for the Gray walk and annealing).
  /// `nodes_expanded` counts prefix-tree nodes whose partial state was
  /// built (the unit the node budget meters); `subtrees_pruned` counts
  /// subtrees cut by the admissible bound; `bound_tightness` is the root
  /// lower bound divided by the optimal cost (≤ 1, →1 = tight).  The
  /// counters vary with worker timing when num_threads > 1 — only the
  /// (cost, assignment) result is thread-count invariant.
  std::size_t nodes_expanded = 0;
  std::size_t subtrees_pruned = 0;
  double bound_tightness = 0.0;
  /// Batched-evaluation telemetry (docs/eval_batch.md): candidates scored
  /// through EvalBatch lanes and the shared cone walks that scored them.
  /// `batched_evals - batch_walks` is the cone walks the batching saved;
  /// `batched_evals / batch_walks` the average lane occupancy.  Zero when
  /// the engine ran its scalar path (batch_lanes == 1, or nothing to batch).
  std::size_t batched_evals = 0;
  std::size_t batch_walks = 0;
};

// -- exhaustive enumeration limits --------------------------------------------
// Every exhaustive ceiling in the code base derives from the two named
// constants below (plus the uint64 hard cap); callers clamp, never invent
// their own numbers:
//   * requested limits above kMaxExhaustiveOutputs are clamped to it by the
//     searches themselves (min_area_assignment clamps likewise before
//     comparing, so flow thresholds and search refusals can never disagree);
//   * auto-selecting callers (min_area_assignment, the flow's kMinPower /
//     kExhaustivePower paths) default to the *pruned* ceiling and rely on
//     the node budget — not the limit — to bail out of loose-bound runs.

/// Unpruned enumeration budget: the full-2^P Gray walk stays tractable up
/// to this many outputs (2^20 candidates).
inline constexpr std::size_t kDefaultExhaustiveLimit = 20;

/// Branch-and-bound ceiling: with admissible per-output bounds the pruned
/// enumeration is tractable past 2^20 — runs at P = 24–28 complete when the
/// bound is tight, so pruned-mode callers default to this limit and let the
/// node budget catch the loose-bound cases.
inline constexpr std::size_t kDefaultPrunedExhaustiveLimit = 24;

/// Default branch-and-bound work budget, in expanded prefix-tree nodes
/// (each one O(|cone|) incremental work — the same unit as one Gray-walk
/// candidate): about 2x the unpruned 2^20 walk.  When a pruned run trips
/// the budget it throws ExhaustiveBudgetError and auto-selecting callers
/// fall back to their heuristic (annealing / §4.1).
inline constexpr std::uint64_t kDefaultExhaustiveNodeBudget = 1ULL << 21;

/// Absolute ceiling on exhaustively enumerable outputs (the 2^P code space
/// must fit uint64 arithmetic); larger requested limits are clamped here.
inline constexpr std::size_t kMaxExhaustiveOutputs = 62;

/// Thrown when an exhaustive search is asked to enumerate more outputs than
/// its limit allows (2^P candidates would be intractable).  Callers that
/// auto-select between exhaustive and heuristic search should catch — or
/// better, avoid triggering — this specific type.
class ExhaustiveLimitError : public std::runtime_error {
 public:
  ExhaustiveLimitError(std::size_t num_outputs, std::size_t limit);
  [[nodiscard]] std::size_t num_outputs() const noexcept { return num_outputs_; }
  [[nodiscard]] std::size_t limit() const noexcept { return limit_; }

 private:
  std::size_t num_outputs_;
  std::size_t limit_;
};

/// Thrown when an exhaustive search exceeds its node budget before proving
/// optimality (the admissible bound was too loose for this circuit).
/// Auto-selecting callers catch this and fall back to the heuristic search.
/// With num_threads > 1 the trip point depends on worker timing (pruning
/// tightens as the shared incumbent spreads), so budgets should carry
/// margin; a search that *completes* returns the identical result at every
/// thread count regardless.
class ExhaustiveBudgetError : public std::runtime_error {
 public:
  ExhaustiveBudgetError(std::uint64_t nodes_expanded, std::uint64_t budget);
  [[nodiscard]] std::uint64_t nodes_expanded() const noexcept { return nodes_expanded_; }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint64_t nodes_expanded_;
  std::uint64_t budget_;
};

enum class ExhaustiveAlgorithm : std::uint8_t {
  /// Prefix-tree enumeration pruned by admissible per-output lower bounds;
  /// bit-identical (cost, assignment, tie-break) to the Gray walk.
  kBranchAndBound,
  /// The unpruned 2^P Gray-code walk — the reference implementation the
  /// pruned search is verified against, and the faster choice only when
  /// nothing prunes (it pays one flip per candidate instead of two).
  kGrayWalk,
};

struct ExhaustiveOptions {
  /// Refuse (with ExhaustiveLimitError) when #POs exceeds this; values
  /// above kMaxExhaustiveOutputs are clamped to it.
  std::size_t max_outputs = kDefaultPrunedExhaustiveLimit;
  /// Worker threads sharding the space; 0 = one per hardware thread.
  /// The result is identical for every value.
  unsigned num_threads = 1;
  ExhaustiveAlgorithm algorithm = ExhaustiveAlgorithm::kBranchAndBound;
  /// Abort with ExhaustiveBudgetError after this many expanded nodes
  /// (branch-and-bound) or when 2^P exceeds it outright (Gray walk).
  /// 0 = unlimited.
  std::uint64_t node_budget = 0;
  /// Lane width of the batched evaluator under the branch-and-bound search
  /// (sibling branches and bottom prefix pods share one cone walk each):
  /// 0 = auto (kDefaultEvalBatchLanes), 1 = scalar path.  Results are
  /// bit-identical at every width.
  std::size_t batch_lanes = 0;
};

/// Exact minimum-power assignment over all 2^P candidates.  Ties are broken
/// towards the smallest assignment code (output i negative iff bit i set) —
/// exactly the seed scan's first-minimum-in-code-order — so the result is
/// thread-count independent for both algorithms.
[[nodiscard]] SearchResult exhaustive_min_power(const AssignmentEvaluator& evaluator,
                                                const ExhaustiveOptions& options);

/// Exact minimum-area assignment over all 2^P candidates.
[[nodiscard]] SearchResult exhaustive_min_area(const AssignmentEvaluator& evaluator,
                                               const ExhaustiveOptions& options);

/// Convenience overloads with a bare output-count limit.
[[nodiscard]] SearchResult exhaustive_min_power(
    const AssignmentEvaluator& evaluator,
    std::size_t limit = kDefaultPrunedExhaustiveLimit);
[[nodiscard]] SearchResult exhaustive_min_area(
    const AssignmentEvaluator& evaluator,
    std::size_t limit = kDefaultPrunedExhaustiveLimit);

struct MinAreaOptions {
  std::uint64_t seed = 1;
  /// Use exact branch-and-bound search when #POs <= this (clamped to
  /// kMaxExhaustiveOutputs), falling back to annealing when the node budget
  /// below trips instead.
  std::size_t exhaustive_limit = kDefaultPrunedExhaustiveLimit;
  /// Node budget of the exact search (see ExhaustiveOptions::node_budget);
  /// 0 = unlimited (never fall back on work, only on the output count).
  std::uint64_t node_budget = kDefaultExhaustiveNodeBudget;
  std::size_t anneal_iterations = 0;  ///< 0 = auto (scales with #POs)
  unsigned restarts = 2;
  /// Worker threads (exhaustive sharding / concurrent annealing restarts);
  /// 0 = one per hardware thread.  The result is identical for every value.
  unsigned num_threads = 1;
  /// Lane width of the batched evaluator under the exact branch-and-bound
  /// search (sibling/pod batching): 0 = auto, 1 = scalar path.  Annealing
  /// never batches.  Bit-identical results at every width.
  std::size_t batch_lanes = 0;
};

[[nodiscard]] SearchResult min_area_assignment(const AssignmentEvaluator& evaluator,
                                               const MinAreaOptions& options = {});

/// How candidate pairs/combos are chosen in the min-power loop (the paper's
/// §4.1 uses the cost function; the others are ablation baselines).
enum class GuidanceMode : std::uint8_t {
  kCostFunction,  ///< paper: pick globally min-K (pair, combo), measure, commit
  kMeasureAll,    ///< oracle: measure all 4 combos of each pair (expensive)
  kRandom,        ///< random pair order and combo (null hypothesis)
};

struct MinPowerOptions {
  PhaseAssignment initial;  ///< empty = all positive
  GuidanceMode guidance = GuidanceMode::kCostFunction;
  std::uint64_t seed = 1;
  /// After the pairwise §4.1 loop, run a greedy single-output descent until
  /// no flip improves.  This is the paper's own suggested extension ("the
  /// cost function can be extended ... reduces to a greedily ordered
  /// exhaustive search") and costs O(#POs) measurements per round.
  bool polish_descent = true;
  /// Worker threads for the polish descent (speculative evaluation of the
  /// remaining flips of a sweep); 0 = one per hardware thread.  The result
  /// and the reported trial count are identical for every value.
  unsigned num_threads = 1;
  /// Lane width of the batched evaluator (trial-window prefetch in the §4.1
  /// loop, lane-evaluated polish sweeps): 0 = auto (kDefaultEvalBatchLanes),
  /// 1 = scalar path.  The trajectory — assignments, trials, commits,
  /// rescore counts — is bit-identical at every width.
  std::size_t batch_lanes = 0;
};

struct MinPowerResult {
  PhaseAssignment assignment;
  AssignmentCost cost;            ///< final cost
  double initial_power = 0.0;
  double final_power = 0.0;
  std::size_t trials = 0;         ///< candidate measurements
  std::size_t commits = 0;        ///< accepted candidates
  /// Commit-path telemetry.  `commit_rescore_pairs` counts the candidate
  /// pairs whose cost function K was recomputed on commits under
  /// kCostFunction guidance — the delta-updated K-queue re-scores only the
  /// pairs touching a flipped output (≤ 2·(P-1) per commit), where the seed
  /// rebuilt and re-sorted every surviving pair.  `avg_update_nodes` totals
  /// the cone gate instances covered by the A_i refreshes those pairwise
  /// commits required — the O(|cone|) bound an explicit delta walk would
  /// touch; the maintained per-phase averages make each refresh O(1).
  std::size_t commit_rescore_pairs = 0;
  std::size_t avg_update_nodes = 0;
  /// Batched-evaluation telemetry (docs/eval_batch.md): trials measured
  /// through EvalBatch lanes and the shared cone walks that measured them.
  /// Under kCostFunction a trial whose rejection is already certain (no
  /// flip, or a single flip rejected since the last commit) is answered
  /// without a measurement, so with lanes `trials - batched_trials` is the
  /// number of trials answered that way.  Zero on the scalar path
  /// (batch_lanes == 1).
  std::size_t batched_trials = 0;
  std::size_t batch_walks = 0;
};

/// The paper's minimum-power phase assignment heuristic (§4.1).
/// `overlap` must be built from the same network as `evaluator`.
[[nodiscard]] MinPowerResult min_power_assignment(
    const AssignmentEvaluator& evaluator, const ConeOverlap& overlap,
    const MinPowerOptions& options = {});

}  // namespace dominosyn
