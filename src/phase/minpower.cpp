/// \file minpower.cpp
/// The paper's minimum-power phase assignment heuristic (§4.1).
///
/// Loop (paper steps 1-7): from an initial assignment, repeatedly evaluate
/// the pairwise cost function
///   K(i±, j±) = |Di|·Ai± + |Dj|·Aj± + 0.5·O(i,j)·(Ai± + Aj±)
/// over all remaining candidate pairs, where Ai+ = Ai (retain phase) and
/// Ai- = 1 - Ai (flip; Property 4.1), pick the globally cheapest (pair,
/// combination), *measure* the resulting realization's power, commit only if
/// it improves, and remove the pair from the candidate set either way.
/// O(i,j) is fixed by the circuit, so it is read from ConeOverlap's table of
/// pair intersections, computed once per circuit (and cached by FlowSession
/// across warm re-runs), rather than re-derived at every scoring.
///
/// Measurements run on the incremental engine: a trial is one or two
/// O(|cone|) flips on a persistent EvalState, undone unless committed — or,
/// with batch_lanes > 1, a lane of the batched evaluator (eval_batch.hpp):
/// the loop prefetches the next W candidates its selection rule would pick,
/// scores them in one shared cone walk, and consumes the lane results in the
/// exact scalar order, discarding the unconsumed tail whenever a commit
/// invalidates it.  Trajectories — assignments, trials, commits, rescores —
/// are bit-identical at every lane width (docs/eval_batch.md).
///
/// Under kCostFunction, both drivers answer two kinds of trial without a
/// measurement, because their rejection is already certain:
///   * a trial that flips nothing measures the incumbent itself, which can
///     never beat final_power by kImprovementEps;
///   * a trial that flips one output whose single flip was already measured
///     and rejected since the last commit meets the same base with the same
///     flip, so its summation-tree root — and its rejection — would be
///     bit-identical.
/// K's coefficients (|Di| + O/2) are positive, so each output's chosen flip
/// depends only on its own A_i, and these two kinds are most of the trials
/// (77–92 % of the MA-seeded loop on Table 1's circuits wider than frg1).
/// Every consumed candidate still counts in `trials`; with lanes,
/// `trials - batched_trials` is the number answered without a measurement.
/// The batched driver's window keeps `lanes` entries: known rejections take
/// no lane, nor does a single flip an earlier entry of the window already
/// measures, and a window with no lane runs no walk.
///
/// Commits are as cheap as trials: A_i depends only on output i's own phase
/// (both values precomputed in EvalContext with the reference walk's
/// summation order), so a commit refreshes the averages of just the flipped
/// outputs in O(1) each, re-scores only the candidate pairs touching them,
/// and fixes the K-queue — a lazy-deletion binary min-heap on (K, candidate
/// index), the same lexicographic order the seed's full re-sort produced —
/// with O(Δ · log C) pushes instead of an O(P·|circuit| + C·log C) rebuild.

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "phase/eval.hpp"
#include "phase/eval_batch.hpp"
#include "phase/search.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace dominosyn {

namespace {

constexpr double kImprovementEps = 1e-12;

/// Fenwick-tree order-statistic set over candidate indices [0, n): erase and
/// "k-th live index in ascending order" in O(log n).  Replaces the seed's
/// O(candidates) scans — kRandom's nth-live-candidate walk and kMeasureAll's
/// restart-from-zero first-live loop — while picking the exact same
/// candidate, so rng-driven trajectories are unchanged.
class LiveCandidateSet {
 public:
  explicit LiveCandidateSet(std::size_t n) : n_(n), tree_(n + 1, 1) {
    tree_[0] = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      const std::size_t parent = i + (i & (~i + 1));
      if (parent <= n) tree_[parent] += tree_[i];
    }
  }

  void erase(std::size_t index) {
    for (std::size_t i = index + 1; i <= n_; i += i & (~i + 1)) --tree_[i];
  }

  /// k-th (0-based) live index in ascending index order.
  [[nodiscard]] std::size_t nth(std::size_t k) const {
    std::size_t pos = 0;
    std::size_t need = k + 1;
    for (std::size_t step = std::bit_floor(n_); step > 0; step >>= 1) {
      const std::size_t next = pos + step;
      if (next <= n_ && tree_[next] < need) {
        pos = next;
        need -= tree_[next];
      }
    }
    return pos;  // 1-based position pos+1 holds the k-th live index
  }

 private:
  std::size_t n_;
  std::vector<std::size_t> tree_;
};

/// One trial: a candidate pair with its flip combination — in the batched
/// drivers, a prefetched window entry scored as one lane of a shared walk.
struct WindowEntry {
  std::size_t pick = 0;
  bool flip_i = false;
  bool flip_j = false;
};

constexpr std::size_t kNoLane = std::numeric_limits<std::size_t>::max();

}  // namespace

MinPowerResult min_power_assignment(const AssignmentEvaluator& evaluator,
                                    const ConeOverlap& overlap,
                                    const MinPowerOptions& options) {
  const Network& net = evaluator.network();
  const std::size_t num_pos = net.num_pos();
  if (overlap.num_outputs() != num_pos)
    throw std::runtime_error("min_power_assignment: overlap/network mismatch");

  MinPowerResult result;
  result.assignment = options.initial.empty() ? all_positive(net) : options.initial;
  if (result.assignment.size() != num_pos)
    throw std::runtime_error("min_power_assignment: initial assignment size mismatch");

  EvalState state(evaluator.context(), result.assignment);
  result.cost = state.cost();
  result.initial_power = result.cost.power.total();
  result.final_power = result.initial_power;

  // Measures the current assignment with flips applied, then reverts.
  const auto measure_flips = [&state](std::size_t i, bool flip_i, std::size_t j,
                                      bool flip_j) {
    unsigned applied = 0;
    if (flip_i) { state.apply_flip(i); ++applied; }
    if (flip_j) { state.apply_flip(j); ++applied; }
    const AssignmentCost cost = state.cost();
    while (applied-- > 0) state.undo();
    return cost;
  };

  // Commits the current EvalState position as the new best.
  const auto commit = [&](const AssignmentCost& cost) {
    result.assignment = state.assignment();
    result.cost = cost;
    result.final_power = cost.power.total();
    ++result.commits;
  };

  if (num_pos < 2) return result;

  // Candidate set: all unordered output pairs.
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  candidates.reserve(num_pos * (num_pos - 1) / 2);
  for (std::size_t i = 0; i < num_pos; ++i)
    for (std::size_t j = i + 1; j < num_pos; ++j) candidates.emplace_back(i, j);

  // |Di| as doubles; O(i,j) is a table read.  The averages come from the
  // EvalContext's per-phase table (bit-identical to the from-scratch walk);
  // a commit refreshes only the flipped outputs' entries.
  std::vector<double> cone_size(num_pos);
  for (std::size_t i = 0; i < num_pos; ++i)
    cone_size[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> avg = state.cone_average_probs();

  // Best (K, flips) for one pair under the current averages.
  struct Scored {
    double k = 0.0;
    bool flip_i = false;
    bool flip_j = false;
  };
  const auto score_pair = [&](std::size_t i, std::size_t j) {
    Scored best;
    best.k = std::numeric_limits<double>::infinity();
    const double o = overlap.overlap(i, j);
    for (const bool fi : {false, true}) {
      const double ai = fi ? 1.0 - avg[i] : avg[i];
      for (const bool fj : {false, true}) {
        const double aj = fj ? 1.0 - avg[j] : avg[j];
        const double k =
            cone_size[i] * ai + cone_size[j] * aj + 0.5 * o * (ai + aj);
        if (k < best.k) best = Scored{k, fi, fj};
      }
    }
    return best;
  };

  // K only changes when a commit changes a flipped output's average, so keep
  // candidates in a lazy-deletion binary min-heap on (K, candidate index) —
  // the lexicographic order the seed's sorted-queue rebuild produced.  An
  // entry is stale iff its candidate was consumed or its key no longer
  // equals current_k.  Invariant: every live candidate has exactly one entry
  // whose key equals its current_k, so the heap top always yields the
  // globally cheapest live (K, pair) without ever rebuilding.
  std::vector<bool> consumed(candidates.size(), false);
  std::vector<double> current_k(candidates.size());
  using HeapEntry = std::pair<double, std::size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  // Candidate pairs touching each output — the K entries a flip invalidates.
  std::vector<std::vector<std::uint32_t>> pairs_of_output;
  // Last commit that re-scored a candidate, so a two-output commit scores
  // pairs containing both flipped outputs once.
  std::vector<std::uint32_t> rescored_at(candidates.size(), 0);
  std::uint32_t commit_id = 0;

  if (options.guidance == GuidanceMode::kCostFunction) {
    pairs_of_output.resize(num_pos);
    std::vector<HeapEntry> entries;
    entries.reserve(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto [i, j] = candidates[c];
      pairs_of_output[i].push_back(static_cast<std::uint32_t>(c));
      pairs_of_output[j].push_back(static_cast<std::uint32_t>(c));
      current_k[c] = score_pair(i, j).k;
      entries.emplace_back(current_k[c], c);
    }
    heap = decltype(heap)(std::greater<>{}, std::move(entries));  // O(C) make_heap
  }

  // The ablation modes' pick state: kRandom draws from rng over the live
  // set, kMeasureAll takes the live set's first index.  kCostFunction picks
  // from the heap and reads neither.
  const bool cost_guided = options.guidance == GuidanceMode::kCostFunction;
  std::optional<LiveCandidateSet> live;
  std::optional<Rng> rng;
  if (!cost_guided) live.emplace(candidates.size());
  if (options.guidance == GuidanceMode::kRandom) rng.emplace(options.seed);
  std::size_t remaining = candidates.size();

  // Known rejections (kCostFunction): output o's single flip was measured
  // and rejected at the current base iff single_rejected[o] == commit_id + 1,
  // so a commit invalidates every stamp by advancing commit_id.
  std::vector<std::uint32_t> single_rejected(num_pos, 0);
  // The output a trial flips alone, or num_pos if it flips none or both.
  const auto lone_flip = [&](const WindowEntry& e) {
    if (e.flip_i == e.flip_j) return num_pos;
    return e.flip_i ? candidates[e.pick].first : candidates[e.pick].second;
  };
  const auto rejection_known = [&](const WindowEntry& e) {
    if (!e.flip_i && !e.flip_j) return true;  // re-measures the incumbent
    const std::size_t output = lone_flip(e);
    return output != num_pos && single_rejected[output] == commit_id + 1;
  };
  const auto note_rejection = [&](const WindowEntry& e) {
    const std::size_t output = lone_flip(e);
    if (output != num_pos) single_rejected[output] = commit_id + 1;
  };

  // Commit bookkeeping shared by the scalar and batched drivers: refresh the
  // flipped outputs' averages and re-score the surviving pairs touching them.
  const auto after_commit = [&](std::size_t i, bool flip_i, std::size_t j,
                                bool flip_j) {
    // One span per accepted commit, covering the incremental re-score —
    // pure observation, so trajectories stay bit-identical with tracing on.
    const obs::TraceSpan span("search.commit", obs::SpanCat::kSearch);
    ++commit_id;
    // A_i changed only at the flipped outputs (a commit always flips at
    // least one: a no-flip trial cannot improve).  Refresh those entries
    // from the maintained state and re-score exactly the surviving pairs
    // that touch them.
    std::size_t changed[2];
    std::size_t num_changed = 0;
    if (flip_i) changed[num_changed++] = i;
    if (flip_j) changed[num_changed++] = j;
    for (std::size_t at = 0; at < num_changed; ++at) {
      const std::size_t output = changed[at];
      avg[output] = state.cone_average(output);
      result.avg_update_nodes += state.context().cone_gate_count(output);
    }
    if (options.guidance == GuidanceMode::kCostFunction) {
      for (std::size_t at = 0; at < num_changed; ++at) {
        for (const std::uint32_t c : pairs_of_output[changed[at]]) {
          if (consumed[c] || rescored_at[c] == commit_id) continue;
          rescored_at[c] = commit_id;
          ++result.commit_rescore_pairs;
          const double k =
              score_pair(candidates[c].first, candidates[c].second).k;
          if (k != current_k[c]) {
            current_k[c] = k;
            heap.emplace(k, c);
          }
        }
      }
    }
  };

  const std::size_t lanes = resolve_eval_batch_lanes(options.batch_lanes);

  if (lanes > 1) {
    // ---- batched drivers: prefetch the exact candidates the scalar loop
    // would pick next, score them as lanes of one shared walk, consume the
    // results in scalar order.  A commit invalidates the unconsumed tail —
    // each mode restores precisely the state its scalar twin would hold.
    EvalBatch batch(evaluator.context(), lanes);
    std::vector<std::uint32_t> vars;  // union of the window's flipped outputs

    // Scores a window in one walk: lane t carries window[t]'s flips.
    const auto score_window = [&](std::span<const WindowEntry> window) {
      vars.clear();
      const auto var_slot = [&](std::size_t output) {
        const auto o = static_cast<std::uint32_t>(output);
        const auto it = std::find(vars.begin(), vars.end(), o);
        if (it != vars.end())
          return static_cast<std::size_t>(it - vars.begin());
        vars.push_back(o);
        return vars.size() - 1;
      };
      for (const WindowEntry& e : window) {
        if (e.flip_i) var_slot(candidates[e.pick].first);
        if (e.flip_j) var_slot(candidates[e.pick].second);
      }
      batch.plan(vars);
      batch.bind(state);
      for (const WindowEntry& e : window) {
        const std::size_t lane = batch.add_lane();
        if (e.flip_i) batch.set_flip(lane, var_slot(candidates[e.pick].first));
        if (e.flip_j) batch.set_flip(lane, var_slot(candidates[e.pick].second));
      }
      batch.evaluate();
      ++result.batch_walks;
    };

    switch (options.guidance) {
      case GuidanceMode::kCostFunction: {
        std::vector<WindowEntry> window;
        // The window's trials that need a measurement, one per lane, and
        // the lane each window entry reads (kNoLane: answered without one).
        std::vector<WindowEntry> measured;
        std::vector<std::size_t> lane_of;
        // Candidates currently prefetched (popped but unconsumed): distinct
        // from `consumed` — a prefetched candidate must not be popped twice,
        // but must still be rescored by a commit.
        std::vector<std::uint8_t> in_window(candidates.size(), 0);
        while (remaining > 0) {
          // Prefetch the next min(lanes, remaining) valid heap entries — the
          // exact (pair, combo) sequence the scalar loop would pop, the
          // averages (and therefore the combos) being stable between commits.
          window.clear();
          measured.clear();
          lane_of.clear();
          const std::size_t want = std::min(lanes, remaining);
          while (window.size() < want) {
            const auto [k, c] = heap.top();
            heap.pop();
            if (consumed[c] || in_window[c] != 0 || k != current_k[c])
              continue;  // stale entry
            const Scored scored =
                score_pair(candidates[c].first, candidates[c].second);
            in_window[c] = 1;
            const WindowEntry entry{c, scored.flip_i, scored.flip_j};
            window.push_back(entry);
            // A known rejection takes no lane, nor does a single flip an
            // earlier entry of this window measures: that entry commits,
            // discarding this one, or its rejection answers this one.
            const std::size_t output = lone_flip(entry);
            const bool shared =
                output != num_pos &&
                std::any_of(measured.begin(), measured.end(),
                            [&](const WindowEntry& m) { return lone_flip(m) == output; });
            if (rejection_known(entry) || shared) {
              lane_of.push_back(kNoLane);
            } else {
              lane_of.push_back(measured.size());
              measured.push_back(entry);
            }
          }
          if (!measured.empty()) score_window(measured);

          for (std::size_t t = 0; t < window.size(); ++t) {
            const WindowEntry& e = window[t];
            in_window[e.pick] = 0;
            ++result.trials;
            consumed[e.pick] = true;
            --remaining;
            if (rejection_known(e)) continue;
            ++result.batched_trials;
            if (batch.power_total(lane_of[t]) < result.final_power - kImprovementEps) {
              const auto [i, j] = candidates[e.pick];
              if (e.flip_i) state.apply_flip(i);
              if (e.flip_j) state.apply_flip(j);
              commit(state.cost());
              // The unconsumed prefetched entries return to the heap at
              // their pre-commit keys *before* the rescore — the rescore
              // then supersedes exactly the ones a scalar commit would
              // have, restoring the one-valid-entry heap invariant.
              for (std::size_t u = t + 1; u < window.size(); ++u) {
                in_window[window[u].pick] = 0;
                heap.emplace(current_k[window[u].pick], window[u].pick);
              }
              after_commit(i, e.flip_i, j, e.flip_j);
              break;  // discard the invalidated tail
            }
            note_rejection(e);
          }
        }
        break;
      }
      case GuidanceMode::kRandom: {
        std::vector<WindowEntry> pending;
        while (remaining > 0 || !pending.empty()) {
          if (pending.empty()) {
            // The rng stream is measurement-independent, so drawing a whole
            // window's picks and combos up front replays the exact scalar
            // sequence.  Candidates leave the live set at draw time (the
            // next draw's modulus depends on it), and are re-measured —
            // not re-drawn — when a commit moves the base.
            const std::size_t want = std::min(lanes, remaining);
            for (std::size_t t = 0; t < want; ++t) {
              const std::size_t pick = live->nth(rng->below(remaining));
              live->erase(pick);
              --remaining;
              consumed[pick] = true;
              const bool fi = rng->bernoulli(0.5);
              const bool fj = rng->bernoulli(0.5);
              pending.push_back({pick, fi, fj});
            }
          }
          score_window(pending);
          std::size_t done = pending.size();
          for (std::size_t t = 0; t < pending.size(); ++t) {
            ++result.trials;
            ++result.batched_trials;
            if (batch.power_total(t) < result.final_power - kImprovementEps) {
              const WindowEntry& e = pending[t];
              const auto [i, j] = candidates[e.pick];
              if (e.flip_i) state.apply_flip(i);
              if (e.flip_j) state.apply_flip(j);
              commit(state.cost());
              after_commit(i, e.flip_i, j, e.flip_j);
              done = t + 1;  // the tail re-evaluates against the new base
              break;
            }
          }
          pending.erase(pending.begin(),
                        pending.begin() + static_cast<std::ptrdiff_t>(done));
        }
        break;
      }
      case GuidanceMode::kMeasureAll: {
        while (remaining > 0) {
          const std::size_t pick = live->nth(0);
          const auto [i, j] = candidates[pick];
          // All four (fi, fj) combos of the pair — combo bit 1 = flip i,
          // bit 0 = flip j.  A width-2 or width-3 batch scores them across
          // two walks of the same plan; wider ones take a single walk.
          double combo_power[4];
          batch.plan({static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j)});
          for (std::size_t first = 0; first < 4; first += lanes) {
            const std::size_t count = std::min(lanes, std::size_t{4} - first);
            batch.bind(state);
            for (std::size_t t = 0; t < count; ++t) {
              const std::size_t lane = batch.add_lane();
              if (((first + t) & 2u) != 0) batch.set_flip(lane, 0);
              if (((first + t) & 1u) != 0) batch.set_flip(lane, 1);
            }
            batch.evaluate();
            ++result.batch_walks;
            for (std::size_t t = 0; t < count; ++t)
              combo_power[first + t] = batch.power_total(t);
          }

          double best_power = std::numeric_limits<double>::infinity();
          bool flip_i = false;
          bool flip_j = false;
          for (std::size_t combo = 0; combo < 4; ++combo) {
            ++result.trials;
            ++result.batched_trials;
            if (combo_power[combo] < best_power) {
              best_power = combo_power[combo];
              flip_i = (combo & 2u) != 0;
              flip_j = (combo & 1u) != 0;
            }
          }
          // The scalar common path re-measures the chosen combo; that value
          // is the winning lane's, reused without another walk.
          ++result.trials;
          ++result.batched_trials;
          consumed[pick] = true;
          --remaining;
          live->erase(pick);
          if (best_power < result.final_power - kImprovementEps) {
            if (flip_i) state.apply_flip(i);
            if (flip_j) state.apply_flip(j);
            commit(state.cost());
            after_commit(i, flip_i, j, flip_j);
          }
        }
        break;
      }
    }
  } else {
    // ---- scalar driver (batch_lanes == 1): one cone walk per trial.
    while (remaining > 0) {
      std::size_t pick = 0;
      bool flip_i = false;
      bool flip_j = false;

      switch (options.guidance) {
        case GuidanceMode::kCostFunction: {
          for (;;) {
            const auto [k, c] = heap.top();
            heap.pop();
            if (consumed[c] || k != current_k[c]) continue;  // stale entry
            pick = c;
            break;
          }
          const auto [i, j] = candidates[pick];
          const Scored scored = score_pair(i, j);
          flip_i = scored.flip_i;
          flip_j = scored.flip_j;
          break;
        }
        case GuidanceMode::kRandom: {
          pick = live->nth(rng->below(remaining));
          flip_i = rng->bernoulli(0.5);
          flip_j = rng->bernoulli(0.5);
          break;
        }
        case GuidanceMode::kMeasureAll: {
          // Oracle baseline: take the first live pair, measure all four combos.
          pick = live->nth(0);
          double best_power = std::numeric_limits<double>::infinity();
          const auto [i, j] = candidates[pick];
          for (const bool fi : {false, true})
            for (const bool fj : {false, true}) {
              const double power = measure_flips(i, fi, j, fj).power.total();
              ++result.trials;
              if (power < best_power) {
                best_power = power;
                flip_i = fi;
                flip_j = fj;
              }
            }
          break;
        }
      }

      const auto [i, j] = candidates[pick];
      const WindowEntry trial{pick, flip_i, flip_j};
      ++result.trials;
      consumed[pick] = true;
      --remaining;
      if (live) live->erase(pick);
      if (cost_guided && rejection_known(trial)) continue;
      unsigned applied = 0;
      if (flip_i) { state.apply_flip(i); ++applied; }
      if (flip_j) { state.apply_flip(j); ++applied; }
      const AssignmentCost trial_cost = state.cost();
      if (trial_cost.power.total() < result.final_power - kImprovementEps) {
        commit(trial_cost);
        after_commit(i, flip_i, j, flip_j);
      } else {
        while (applied-- > 0) state.undo();
        if (cost_guided) note_rejection(trial);
      }
    }
  }

  // Optional polish: greedy first-improvement descent to a local optimum.
  if (options.polish_descent) {
    const unsigned num_threads = ThreadPool::resolve_threads(options.num_threads);
    if (num_threads <= 1) {
      if (lanes > 1) {
        // Windowed first-improvement: lanes score the next W flips of the
        // sweep in one walk; consuming stops at the first improvement, so
        // every output is still measured exactly once per sweep and the
        // trajectory equals the sequential flip-by-flip descent.
        EvalBatch batch(evaluator.context(), lanes);
        std::vector<std::uint32_t> vars;
        bool improved = true;
        while (improved) {
          improved = false;
          std::size_t start = 0;
          while (start < num_pos) {
            const std::size_t count = std::min(lanes, num_pos - start);
            vars.clear();
            for (std::size_t t = 0; t < count; ++t)
              vars.push_back(static_cast<std::uint32_t>(start + t));
            batch.plan(vars);
            batch.bind(state);
            for (std::size_t t = 0; t < count; ++t) {
              batch.add_lane();
              batch.set_flip(t, t);
            }
            batch.evaluate();
            ++result.batch_walks;
            std::size_t advanced = count;
            for (std::size_t t = 0; t < count; ++t) {
              ++result.trials;
              ++result.batched_trials;
              if (batch.power_total(t) < result.final_power - kImprovementEps) {
                state.apply_flip(start + t);
                commit(state.cost());
                improved = true;
                advanced = t + 1;  // the tail re-measures from the new base
                break;
              }
            }
            start += advanced;
          }
        }
      } else {
        bool improved = true;
        while (improved) {
          improved = false;
          for (std::size_t i = 0; i < num_pos; ++i) {
            state.apply_flip(i);
            const AssignmentCost trial_cost = state.cost();
            ++result.trials;
            if (trial_cost.power.total() < result.final_power - kImprovementEps) {
              commit(trial_cost);
              improved = true;
            } else {
              state.undo();
            }
          }
        }
      }
    } else {
      // Speculative parallel descent: evaluate the remaining flips of the
      // sweep from the current base, commit the first improving one, resume
      // after it — the exact trajectory (and trial count, defined as flips
      // measured up to the committed one) of the sequential sweep.  With
      // batch_lanes > 1 each shard scores its strided flips in lane groups
      // against the shared (read-only) base instead of flipping a private
      // EvalState copy.
      ThreadPool pool(options.num_threads);
      std::vector<double> powers(num_pos);
      std::vector<std::unique_ptr<EvalBatch>> shard_batch(pool.size());
      std::vector<std::size_t> shard_walks(pool.size(), 0);
      std::vector<std::vector<std::uint32_t>> shard_vars(pool.size());
      bool improved = true;
      while (improved) {
        improved = false;
        std::size_t start = 0;
        while (start < num_pos) {
          const std::size_t count = num_pos - start;
          const std::size_t shards = std::min<std::size_t>(pool.size(), count);
          pool.parallel_for(shards, [&](std::size_t shard) {
            if (lanes > 1) {
              if (!shard_batch[shard])
                shard_batch[shard] =
                    std::make_unique<EvalBatch>(evaluator.context(), lanes);
              EvalBatch& batch = *shard_batch[shard];
              std::vector<std::uint32_t>& mine = shard_vars[shard];
              mine.clear();
              for (std::size_t idx = shard; idx < count; idx += shards)
                mine.push_back(static_cast<std::uint32_t>(start + idx));
              for (std::size_t at = 0; at < mine.size(); at += lanes) {
                const std::size_t n = std::min(lanes, mine.size() - at);
                batch.plan(std::span<const std::uint32_t>(mine.data() + at, n));
                batch.bind(state);
                for (std::size_t t = 0; t < n; ++t) {
                  batch.add_lane();
                  batch.set_flip(t, t);
                }
                batch.evaluate();
                ++shard_walks[shard];
                for (std::size_t t = 0; t < n; ++t)
                  powers[mine[at + t]] = batch.power_total(t);
              }
            } else {
              EvalState local = state;
              for (std::size_t idx = shard; idx < count; idx += shards) {
                local.apply_flip(start + idx);
                powers[start + idx] = local.power_total();
                local.undo();
              }
            }
          });
          std::size_t found = count;
          for (std::size_t idx = 0; idx < count; ++idx) {
            if (powers[start + idx] < result.final_power - kImprovementEps) {
              found = idx;
              break;
            }
          }
          if (found == count) {
            result.trials += count;
            if (lanes > 1) result.batched_trials += count;
            break;
          }
          result.trials += found + 1;
          if (lanes > 1) result.batched_trials += found + 1;
          state.apply_flip(start + found);
          commit(state.cost());
          improved = true;
          start += found + 1;
        }
      }
      for (const std::size_t walks : shard_walks) result.batch_walks += walks;
    }
  }
  return result;
}

}  // namespace dominosyn
