/// \file micro_incremental.cpp
/// Wall-time comparison of the three evaluation strategies for the §4.1
/// min-power search and the exhaustive 2^P search:
///   * full       — the seed's code path: every candidate re-scored with
///                  AssignmentEvaluator::evaluate(), O(nodes) per trial
///                  (a faithful local copy of the pre-engine search loop),
///   * incremental — EvalState::apply_flip/undo, O(|cone|) per trial,
///   * parallel   — incremental plus the thread-parallel search layer.
/// The commit_path section isolates the §4.1 commit cost: the seed's
/// from-scratch A walk + full K-queue rebuild vs the maintained averages +
/// delta-rescored lazy-deletion heap (docs/commit_path.md).
/// Also times a paper-style MA+MP sweep as back-to-back monolithic run_flow
/// calls vs one run_flow_batch over shared FlowSessions (the staged-API
/// amortization win), and measures in-process ServerCore throughput —
/// requests/sec and p50/p95 client-observed latency for N client threads
/// over a cold vs hot SessionCache.  Emits JSON so future PRs can track the
/// perf trajectory.
///
/// The exhaustive_bb section measures the branch-and-bound exact search
/// (docs/search.md) against the unpruned Gray walk on the main circuit
/// family at growing output counts: evaluated-candidate counts pruned vs
/// unpruned, wall time, bound tightness, and the largest P solved exactly
/// within a wall-clock budget.
///
/// The batched_eval section measures the structure-of-arrays batched
/// evaluator (docs/eval_batch.md): per-candidate trial-scoring throughput
/// scalar vs W-lane windows (with a lane-width sweep), and end-to-end §4.1 /
/// branch-and-bound runs with the lanes forced off vs on — every batched
/// number is checked bit-identical against its scalar twin before it is
/// reported.
///
/// The flow_stages section times the cold Table 1 flow of one paper circuit
/// (Industry 2, bench_table1's options) stage by stage on fresh
/// FlowSessions — the per-stage ms bench_trend.py gates, so a slowdown in
/// any stage a cold submit waits on fails the nightly trend.  Industry 2's
/// MP search is small (86 outputs), so assign_mp_wide_ms adds the MP stage
/// of Industry 3 (199 outputs, 19,701 candidate pairs), where the §4.1
/// pair scoring shows, and assign_mp_wide_measured_trials the trials of
/// that search that needed a measurement.  restage_measure_ms is the warm
/// MP re-measure after a clock change (Table 2's restage), which replays the
/// session's power sample instead of simulating.
///
/// Usage (positional, CI-compatible):
///   micro_incremental [num_threads] [gate_target] [num_pos]
///                     [sweep_steps] [bb_budget_seconds]
///   num_threads  0 = one per hardware thread (default), 1 = sequential
///   gate_target  synthesis gate budget of the main circuit (default 2000)
///   num_pos      outputs of the main circuit (default 48; >= 32 keeps the
///                acceptance scenario)
///   sweep_steps  simulation steps of the MA+MP sweep / serving jobs
///                (default 256; the nightly long-run raises this)
///   bb_budget_seconds  wall budget of the exhaustive_bb P-climb
///                (default 20; the nightly long-run raises this)
/// or flag form (any argument starting with "--" selects it):
///   micro_incremental [--threads N] [--gates N] [--pos N] [--steps N]
///                     [--bb-budget S] [--lanes W]
///   --lanes      batched-evaluator lane width: 0 = auto (default), 1 =
///                scalar engines, up to kMaxEvalBatchLanes

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "bdd/netbdd.hpp"
#include "benchgen/benchgen.hpp"
#include "flow/batch.hpp"
#include "flow/session.hpp"
#include "obs/trace.hpp"
#include "phase/assignment.hpp"
#include "phase/eval.hpp"
#include "phase/eval_batch.hpp"
#include "phase/search.hpp"
#include "server/core.hpp"
#include "sgraph/partition.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dominosyn;

/// The seed's min_power_assignment (§4.1 pairwise loop + polish descent),
/// kept verbatim except that every measurement goes through the full
/// O(nodes) evaluate() — the baseline this PR replaced.
MinPowerResult seed_full_reeval_min_power(const AssignmentEvaluator& evaluator,
                                          const ConeOverlap& overlap) {
  const Network& net = evaluator.network();
  const std::size_t num_pos = net.num_pos();
  constexpr double kEps = 1e-12;

  MinPowerResult result;
  result.assignment = all_positive(net);
  result.cost = evaluator.evaluate(result.assignment);
  result.initial_power = result.cost.power.total();
  result.final_power = result.initial_power;
  if (num_pos < 2) return result;

  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  candidates.reserve(num_pos * (num_pos - 1) / 2);
  for (std::size_t i = 0; i < num_pos; ++i)
    for (std::size_t j = i + 1; j < num_pos; ++j) candidates.emplace_back(i, j);

  std::vector<double> cone_size(num_pos);
  for (std::size_t i = 0; i < num_pos; ++i)
    cone_size[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> avg = evaluator.cone_average_probs(result.assignment);

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

  std::vector<std::pair<double, std::size_t>> queue;
  std::vector<bool> consumed(candidates.size(), false);
  const auto rebuild_queue = [&] {
    queue.clear();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (consumed[c]) continue;
      queue.emplace_back(score_pair(candidates[c].first, candidates[c].second).k,
                         c);
    }
    std::sort(queue.begin(), queue.end());
  };
  rebuild_queue();
  std::size_t queue_head = 0;
  std::size_t remaining = candidates.size();

  const auto with_flips = [](PhaseAssignment phases, std::size_t i, bool fi,
                             std::size_t j, bool fj) {
    const auto flip = [](Phase p) {
      return p == Phase::kPositive ? Phase::kNegative : Phase::kPositive;
    };
    if (fi) phases[i] = flip(phases[i]);
    if (fj) phases[j] = flip(phases[j]);
    return phases;
  };

  while (remaining > 0) {
    while (queue_head < queue.size() && consumed[queue[queue_head].second])
      ++queue_head;
    if (queue_head >= queue.size()) {
      rebuild_queue();
      queue_head = 0;
    }
    const std::size_t pick = queue[queue_head].second;
    const auto [i, j] = candidates[pick];
    const Scored scored = score_pair(i, j);

    const PhaseAssignment trial =
        with_flips(result.assignment, i, scored.flip_i, j, scored.flip_j);
    const AssignmentCost trial_cost = evaluator.evaluate(trial);  // O(nodes)
    ++result.trials;
    consumed[pick] = true;
    --remaining;
    if (trial_cost.power.total() < result.final_power - kEps) {
      result.assignment = trial;
      result.cost = trial_cost;
      result.final_power = trial_cost.power.total();
      ++result.commits;
      avg = evaluator.cone_average_probs(result.assignment);
      rebuild_queue();
      queue_head = 0;
    }
  }

  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < num_pos; ++i) {
      PhaseAssignment trial = result.assignment;
      trial[i] = trial[i] == Phase::kPositive ? Phase::kNegative
                                              : Phase::kPositive;
      const AssignmentCost trial_cost = evaluator.evaluate(trial);  // O(nodes)
      ++result.trials;
      if (trial_cost.power.total() < result.final_power - kEps) {
        result.assignment = std::move(trial);
        result.cost = trial_cost;
        result.final_power = trial_cost.power.total();
        ++result.commits;
        improved = true;
      }
    }
  }
  return result;
}

Network make_circuit(const std::string& name, std::size_t gates,
                     std::size_t pos) {
  BenchSpec spec;
  spec.name = name;
  spec.num_pis = 24;
  spec.num_pos = pos;
  spec.gate_target = gates;
  spec.seed = 77;
  return generate_benchmark(spec);
}

}  // namespace

int main(int argc, char** argv) {
  // Hybrid argv: the historical positional form stays CI-compatible; any
  // "--" argument switches to named flags (the only way to set --lanes).
  bool flag_form = false;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]).rfind("--", 0) == 0) flag_form = true;

  std::optional<long> threads_arg, gates_arg, pos_arg, steps_arg,
      bb_budget_arg, lanes_arg;
  if (flag_form) {
    const auto flags = cli::FlagSet::parse(argc, argv);
    if (flags && flags->only({"threads", "gates", "pos", "steps", "bb-budget",
                              "lanes"})) {
      threads_arg = flags->get_long("threads", 0, 0, 1024);
      gates_arg = flags->get_long("gates", 2000, 1,
                                  std::numeric_limits<long>::max());
      pos_arg = flags->get_long("pos", 48, 1,
                                std::numeric_limits<long>::max());
      steps_arg = flags->get_long("steps", 256, 1, 1 << 24);
      bb_budget_arg = flags->get_long("bb-budget", 20, 1, 3600);
      lanes_arg = flags->get_long(
          "lanes", 0, 0, static_cast<long>(kMaxEvalBatchLanes));
    }
  } else {
    threads_arg = cli::parse_long_arg(argc, argv, 1, 0, 0, 1024);
    gates_arg = cli::parse_long_arg(argc, argv, 2, 2000, 1);
    pos_arg = cli::parse_long_arg(argc, argv, 3, 48, 1);
    steps_arg = cli::parse_long_arg(argc, argv, 4, 256, 1, 1 << 24);
    bb_budget_arg = cli::parse_long_arg(argc, argv, 5, 20, 1, 3600);
    lanes_arg = 0;
  }
  if (!threads_arg || !gates_arg || !pos_arg || !steps_arg || !bb_budget_arg ||
      !lanes_arg) {
    std::cerr << "usage: micro_incremental [num_threads 0..1024] "
                 "[gate_target>=1] [num_pos>=1] [sweep_steps>=1] "
                 "[bb_budget_seconds 1..3600]\n"
                 "   or: micro_incremental [--threads N] [--gates N] "
                 "[--pos N] [--steps N] [--bb-budget S] [--lanes 0..64]\n";
    return 2;
  }
  const unsigned num_threads = static_cast<unsigned>(*threads_arg);
  const std::size_t gate_target = static_cast<std::size_t>(*gates_arg);
  const std::size_t num_pos = static_cast<std::size_t>(*pos_arg);
  const std::size_t sweep_steps = static_cast<std::size_t>(*steps_arg);
  const double bb_budget_seconds = static_cast<double>(*bb_budget_arg);
  /// 0 = auto stays 0 in the engine options (engines resolve themselves);
  /// lane_width is the resolved width the batched_eval section reports.
  const std::size_t requested_lanes = static_cast<std::size_t>(*lanes_arg);
  const std::size_t lane_width = resolve_eval_batch_lanes(requested_lanes);

  const Network net = make_circuit("inc", gate_target, num_pos);
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  const AssignmentEvaluator evaluator(net, signal_probabilities(net, pi_probs));
  const ConeOverlap overlap(net);
  Stopwatch stopwatch;

  // -- raw candidate-evaluation throughput ------------------------------------
  const std::size_t walk = 2000;
  Rng rng(5);
  std::vector<std::size_t> flips(walk);
  for (auto& f : flips) f = rng.below(net.num_pos());

  PhaseAssignment phases = all_positive(net);
  stopwatch.restart();
  double sink = 0.0;
  for (const std::size_t f : flips) {
    phases[f] = phases[f] == Phase::kPositive ? Phase::kNegative
                                              : Phase::kPositive;
    sink += evaluator.evaluate(phases).power.total();
  }
  const double full_eval_seconds = stopwatch.seconds();

  EvalState state(evaluator.context(), all_positive(net));
  stopwatch.restart();
  double sink2 = 0.0;
  for (const std::size_t f : flips) {
    state.apply_flip(f);
    sink2 += state.power_total();
  }
  const double incremental_eval_seconds = stopwatch.seconds();
  if (sink != sink2) {
    std::cerr << "FATAL: incremental walk diverged from full evaluation\n";
    return 1;
  }

  // -- §4.1 min-power search --------------------------------------------------
  stopwatch.restart();
  const MinPowerResult full = seed_full_reeval_min_power(evaluator, overlap);
  const double full_search_seconds = stopwatch.seconds();

  MinPowerOptions sequential;
  sequential.num_threads = 1;
  sequential.batch_lanes = requested_lanes;
  stopwatch.restart();
  const MinPowerResult incremental =
      min_power_assignment(evaluator, overlap, sequential);
  const double incremental_search_seconds = stopwatch.seconds();

  MinPowerOptions threaded;
  threaded.num_threads = num_threads;
  threaded.batch_lanes = requested_lanes;
  stopwatch.restart();
  const MinPowerResult parallel =
      min_power_assignment(evaluator, overlap, threaded);
  const double parallel_search_seconds = stopwatch.seconds();

  if (incremental.final_power != full.final_power ||
      parallel.final_power != incremental.final_power) {
    std::cerr << "FATAL: search arms disagree on the final power\n";
    return 1;
  }

  // -- per-commit cost: seed rebuild vs incremental delta update --------------
  // Replays the two generations of commit work over real data structures.
  // Seed: a from-scratch A walk over every PO cone plus a full re-score +
  // re-sort of all surviving pairs.  Incremental: refresh the two flipped
  // outputs' averages from the EvalContext table, re-score only the pairs
  // touching them, and push the changed keys into a binary heap.
  const std::size_t cp_pairs = net.num_pos() * (net.num_pos() - 1) / 2;
  std::vector<std::pair<std::size_t, std::size_t>> cp_candidates;
  cp_candidates.reserve(cp_pairs);
  for (std::size_t i = 0; i < net.num_pos(); ++i)
    for (std::size_t j = i + 1; j < net.num_pos(); ++j)
      cp_candidates.emplace_back(i, j);
  std::vector<double> cp_cone(net.num_pos());
  for (std::size_t i = 0; i < net.num_pos(); ++i)
    cp_cone[i] = static_cast<double>(overlap.cone_size(i));
  std::vector<double> cp_avg =
      evaluator.cone_average_probs(incremental.assignment);
  const auto cp_score = [&](std::size_t i, std::size_t j) {
    double best = std::numeric_limits<double>::infinity();
    const double o = overlap.overlap(i, j);
    for (const bool fi : {false, true}) {
      const double ai = fi ? 1.0 - cp_avg[i] : cp_avg[i];
      for (const bool fj : {false, true}) {
        const double aj = fj ? 1.0 - cp_avg[j] : cp_avg[j];
        best = std::min(best,
                        cp_cone[i] * ai + cp_cone[j] * aj + 0.5 * o * (ai + aj));
      }
    }
    return best;
  };

  const std::size_t cold_reps = 50;
  std::vector<std::pair<double, std::size_t>> cp_queue;
  stopwatch.restart();
  for (std::size_t rep = 0; rep < cold_reps; ++rep) {
    cp_avg = evaluator.cone_average_probs(incremental.assignment);
    cp_queue.clear();
    for (std::size_t c = 0; c < cp_candidates.size(); ++c)
      cp_queue.emplace_back(cp_score(cp_candidates[c].first,
                                     cp_candidates[c].second), c);
    std::sort(cp_queue.begin(), cp_queue.end());
    sink += cp_queue.front().first;
  }
  const double cold_commit_seconds = stopwatch.seconds() / cold_reps;

  std::vector<std::vector<std::uint32_t>> cp_pairs_of_output(net.num_pos());
  for (std::size_t c = 0; c < cp_candidates.size(); ++c) {
    cp_pairs_of_output[cp_candidates[c].first].push_back(
        static_cast<std::uint32_t>(c));
    cp_pairs_of_output[cp_candidates[c].second].push_back(
        static_cast<std::uint32_t>(c));
  }
  EvalState cp_state(evaluator.context(), incremental.assignment);
  std::vector<std::pair<double, std::size_t>> cp_heap(cp_queue);
  std::make_heap(cp_heap.begin(), cp_heap.end(), std::greater<>{});
  const std::size_t inc_reps = 20000;
  stopwatch.restart();
  for (std::size_t rep = 0; rep < inc_reps; ++rep) {
    // A commit flips at most two outputs; walk distinct pairs per rep.
    const std::size_t oi = rep % net.num_pos();
    const std::size_t oj = (rep + 1 + rep / net.num_pos()) % net.num_pos();
    for (const std::size_t output : {oi, oj}) {
      cp_avg[output] = cp_state.cone_average(output);
      for (const std::uint32_t c : cp_pairs_of_output[output]) {
        cp_heap.emplace_back(cp_score(cp_candidates[c].first,
                                      cp_candidates[c].second), c);
        std::push_heap(cp_heap.begin(), cp_heap.end(), std::greater<>{});
      }
    }
    if (cp_heap.size() > cp_pairs * 2) {
      // Lazy deletion keeps the real heap near the live-candidate count;
      // mirror that by periodically dropping the replay's stale tail.
      cp_heap.resize(cp_pairs);
      std::make_heap(cp_heap.begin(), cp_heap.end(), std::greater<>{});
    }
  }
  const double incremental_commit_seconds = stopwatch.seconds() / inc_reps;
  sink += cp_heap.front().first;

  // -- exhaustive 2^P sharding (secondary circuit) ----------------------------
  const Network small = make_circuit("exh", 600, 14);
  const AssignmentEvaluator small_eval(
      small, signal_probabilities(small, std::vector<double>(small.num_pis(), 0.5)));

  stopwatch.restart();
  {  // seed path: binary-order scan, full evaluation per code
    PhaseAssignment scan(small.num_pos(), Phase::kPositive);
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t code = 0; code < (1ULL << small.num_pos()); ++code) {
      for (std::size_t i = 0; i < small.num_pos(); ++i)
        scan[i] = ((code >> i) & 1ULL) != 0 ? Phase::kNegative : Phase::kPositive;
      best = std::min(best, small_eval.evaluate(scan).power.total());
    }
    sink += best;
  }
  const double exhaustive_full_seconds = stopwatch.seconds();

  ExhaustiveOptions exh_seq;
  exh_seq.num_threads = 1;
  exh_seq.batch_lanes = requested_lanes;
  stopwatch.restart();
  const SearchResult exh_inc = exhaustive_min_power(small_eval, exh_seq);
  const double exhaustive_incremental_seconds = stopwatch.seconds();

  ExhaustiveOptions exh_par;
  exh_par.num_threads = num_threads;
  exh_par.batch_lanes = requested_lanes;
  stopwatch.restart();
  const SearchResult exh_shard = exhaustive_min_power(small_eval, exh_par);
  const double exhaustive_parallel_seconds = stopwatch.seconds();
  if (exh_shard.cost.power.total() != exh_inc.cost.power.total()) {
    std::cerr << "FATAL: sharded exhaustive disagrees\n";
    return 1;
  }

  // -- branch-and-bound exact search: pushing the tractable 2^P frontier ------
  // The main circuit family (same PI count / gate budget / generator seed) at
  // growing output counts.  Every level runs the pruned search; levels small
  // enough for the unpruned Gray walk also run it, both for the wall-time
  // comparison and as a bit-identity check.  The climb stops when the wall
  // budget is spent — largest_tractable_pos is the headline number.
  struct BbRun {
    std::size_t pos = 0;
    std::uint64_t unpruned = 0;
    SearchResult result;
    double bb_seconds = 0.0;
    double gray_seconds = -1.0;  // < 0: not run
  };
  std::vector<BbRun> bb_runs;
  Stopwatch bb_total;
  for (const std::size_t bb_pos : {12u, 16u, 20u, 22u, 24u, 26u, 28u}) {
    // Always measure the first levels (the acceptance scenario needs P=20);
    // climb past them only while budget remains.
    if (bb_pos > 20 && bb_total.seconds() >= bb_budget_seconds) break;
    const Network bb_net = make_circuit("bb", gate_target, bb_pos);
    const AssignmentEvaluator bb_eval(
        bb_net,
        signal_probabilities(bb_net, std::vector<double>(bb_net.num_pis(), 0.5)));
    BbRun run;
    run.pos = bb_pos;
    run.unpruned = 1ULL << bb_pos;

    ExhaustiveOptions bb_options;
    bb_options.max_outputs = 28;
    bb_options.num_threads = num_threads;
    bb_options.batch_lanes = requested_lanes;
    // Wall budget alone cannot stop a level mid-run, so cap each level's
    // work in nodes too (~16x the default auto-select budget): a
    // loose-bound circuit ends the climb instead of hanging the bench.
    bb_options.node_budget = 1ULL << 25;
    stopwatch.restart();
    try {
      run.result = exhaustive_min_power(bb_eval, bb_options);
    } catch (const ExhaustiveBudgetError&) {
      break;  // bound too loose at this size: the climb is over
    }
    run.bb_seconds = stopwatch.seconds();

    if (bb_pos <= 16) {
      ExhaustiveOptions gray_options = bb_options;
      gray_options.algorithm = ExhaustiveAlgorithm::kGrayWalk;
      stopwatch.restart();
      const SearchResult gray = exhaustive_min_power(bb_eval, gray_options);
      run.gray_seconds = stopwatch.seconds();
      if (gray.assignment != run.result.assignment ||
          gray.cost.power.total() != run.result.cost.power.total()) {
        std::cerr << "FATAL: branch-and-bound disagrees with the Gray walk\n";
        return 1;
      }
    }
    bb_runs.push_back(std::move(run));
  }
  const double bb_elapsed_seconds = bb_total.seconds();

  // -- batched multi-candidate scoring (docs/eval_batch.md) -------------------
  // Per-candidate throughput of the same trial stream scored one candidate
  // per cone walk (apply_flip / power_total / undo) vs W candidates per
  // shared EvalBatch window.  Trials are whole shuffled permutations of the
  // outputs so no window ever holds a duplicate flip target — exactly the
  // §4.1 trial-window shape — and every width's sum is checked bit-identical
  // against the scalar walk before it is reported.
  const std::size_t be_perms = 42;
  std::vector<std::uint32_t> be_trials;
  be_trials.reserve(be_perms * num_pos);
  {
    Rng be_rng(11);
    std::vector<std::uint32_t> perm(num_pos);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t p = 0; p < be_perms; ++p) {
      for (std::size_t i = num_pos; i > 1; --i)
        std::swap(perm[i - 1], perm[be_rng.below(i)]);
      be_trials.insert(be_trials.end(), perm.begin(), perm.end());
    }
  }

  // Both arms take the best of a few repetitions: the walks are
  // deterministic, so the minimum is the run least disturbed by the host,
  // and both sides are measured the same way.
  constexpr int kBeReps = 5;
  EvalState be_state(evaluator.context(), all_positive(net));
  double be_scalar_sum = 0.0;
  double be_scalar_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kBeReps; ++rep) {
    stopwatch.restart();
    double sum = 0.0;
    for (const std::uint32_t f : be_trials) {
      be_state.apply_flip(f);
      sum += be_state.power_total();
      be_state.undo();
    }
    be_scalar_seconds = std::min(be_scalar_seconds, stopwatch.seconds());
    be_scalar_sum = sum;
  }

  EvalBatch be_batch(evaluator.context(), kMaxEvalBatchLanes);
  const auto run_batched_walk = [&](std::size_t width, double& out_sum) {
    out_sum = 0.0;
    std::size_t walks = 0;
    for (std::size_t begin = 0; begin < be_trials.size();) {
      // Windows never straddle a permutation boundary (no duplicate outputs).
      const std::size_t perm_end = (begin / num_pos + 1) * num_pos;
      const std::size_t n = std::min(width, perm_end - begin);
      be_batch.plan(std::span<const std::uint32_t>(be_trials.data() + begin, n));
      be_batch.bind(be_state);
      for (std::size_t t = 0; t < n; ++t) {
        be_batch.add_lane();
        be_batch.set_flip(t, t);
      }
      be_batch.evaluate();
      for (std::size_t t = 0; t < n; ++t) out_sum += be_batch.power_total(t);
      ++walks;
      begin += n;
    }
    return walks;
  };

  struct LanePoint {
    std::size_t lanes = 0;
    double seconds = 0.0;
  };
  std::vector<LanePoint> be_sweep;
  double be_batched_seconds = 0.0;
  for (const std::size_t width :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{16}, lane_width}) {
    if (width > kMaxEvalBatchLanes) continue;
    bool seen = false;
    for (const LanePoint& point : be_sweep) seen |= point.lanes == width;
    if (seen) continue;
    double width_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kBeReps; ++rep) {
      double sum = 0.0;
      stopwatch.restart();
      run_batched_walk(width, sum);
      width_seconds = std::min(width_seconds, stopwatch.seconds());
      if (sum != be_scalar_sum) {
        std::cerr << "FATAL: batched scoring diverged from scalar at width "
                  << width << "\n";
        return 1;
      }
    }
    be_sweep.push_back({width, width_seconds});
    if (width == lane_width) be_batched_seconds = width_seconds;
  }

  // End to end: the §4.1 search and the branch-and-bound exact search with
  // the lanes forced off vs on — same trajectory, different walk count.
  MinPowerOptions mp_scalar_options = sequential;
  mp_scalar_options.batch_lanes = 1;
  stopwatch.restart();
  const MinPowerResult mp_scalar =
      min_power_assignment(evaluator, overlap, mp_scalar_options);
  const double mp_scalar_seconds = stopwatch.seconds();

  MinPowerOptions mp_batched_options = sequential;
  mp_batched_options.batch_lanes = lane_width;
  stopwatch.restart();
  const MinPowerResult mp_batched =
      min_power_assignment(evaluator, overlap, mp_batched_options);
  const double mp_batched_seconds = stopwatch.seconds();
  if (mp_batched.assignment != mp_scalar.assignment ||
      mp_batched.final_power != mp_scalar.final_power ||
      mp_batched.trials != mp_scalar.trials ||
      mp_batched.commits != mp_scalar.commits) {
    std::cerr << "FATAL: batched min-power search diverged from scalar\n";
    return 1;
  }

  ExhaustiveOptions bnb_scalar_options = exh_seq;
  bnb_scalar_options.batch_lanes = 1;
  stopwatch.restart();
  const SearchResult bnb_scalar =
      exhaustive_min_power(small_eval, bnb_scalar_options);
  const double bnb_scalar_seconds = stopwatch.seconds();

  ExhaustiveOptions bnb_batched_options = exh_seq;
  bnb_batched_options.batch_lanes = lane_width;
  stopwatch.restart();
  const SearchResult bnb_batched =
      exhaustive_min_power(small_eval, bnb_batched_options);
  const double bnb_batched_seconds = stopwatch.seconds();
  if (bnb_batched.assignment != bnb_scalar.assignment ||
      bnb_batched.cost.power.total() != bnb_scalar.cost.power.total() ||
      bnb_batched.nodes_expanded != bnb_scalar.nodes_expanded ||
      bnb_batched.evaluations != bnb_scalar.evaluations) {
    std::cerr << "FATAL: batched branch-and-bound diverged from scalar\n";
    return 1;
  }

  // -- batched MA+MP sweep vs back-to-back monolithic run_flow ---------------
  // Each monolithic call re-synthesizes, re-extracts BDD probabilities and
  // rebuilds the EvalContext; the batch shares one FlowSession per circuit
  // and seeds MP from the cached MA stage.
  std::vector<BenchSpec> sweep_specs;
  for (const char* name : {"apex7", "frg1", "x1", "x3"}) {
    BenchSpec spec = paper_spec(name);
    spec.gate_target = std::min<std::size_t>(spec.gate_target, 800);
    sweep_specs.push_back(spec);
  }
  std::vector<Network> sweep_nets;
  sweep_nets.reserve(sweep_specs.size());
  for (const BenchSpec& spec : sweep_specs)
    sweep_nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> sweep_jobs;
  for (const Network& job_net : sweep_nets) {
    for (const PhaseMode mode : {PhaseMode::kMinArea, PhaseMode::kMinPower}) {
      FlowJob job;
      job.network = &job_net;
      job.options.sim.steps = sweep_steps;
      job.options.sim.warmup = 8;
      job.options.mode = mode;
      sweep_jobs.push_back(std::move(job));
    }
  }

  stopwatch.restart();
  std::vector<FlowReport> monolithic;
  monolithic.reserve(sweep_jobs.size());
  for (const FlowJob& job : sweep_jobs)
    monolithic.push_back(run_flow(*job.network, job.options));
  const double sweep_monolithic_seconds = stopwatch.seconds();

  BatchOptions sweep_seq;
  sweep_seq.num_threads = 1;
  stopwatch.restart();
  const std::vector<FlowReport> batched = run_flow_batch(sweep_jobs, sweep_seq);
  const double sweep_batch_seconds = stopwatch.seconds();

  BatchOptions sweep_par;
  sweep_par.num_threads = num_threads;
  stopwatch.restart();
  const std::vector<FlowReport> batched_par =
      run_flow_batch(sweep_jobs, sweep_par);
  const double sweep_batch_parallel_seconds = stopwatch.seconds();

  for (std::size_t i = 0; i < sweep_jobs.size(); ++i) {
    const bool same =
        batched[i].est_power == monolithic[i].est_power &&
        batched[i].sim_power == monolithic[i].sim_power &&
        batched[i].cells == monolithic[i].cells &&
        batched[i].assignment == monolithic[i].assignment &&
        batched_par[i].sim_power == monolithic[i].sim_power &&
        batched_par[i].assignment == monolithic[i].assignment;
    if (!same) {
      std::cerr << "FATAL: batched sweep diverged from monolithic run_flow\n";
      return 1;
    }
  }

  // -- in-process serving throughput (ServerCore over the sweep circuits) ----
  // Four client threads block on one request each at a time, round-robining
  // over the sweep's (circuit, mode) jobs.  The cold wave starts from an
  // empty SessionCache (every circuit's staged prefix is built once,
  // mid-wave requests pile onto the hot sessions); the hot wave repeats the
  // identical requests against the now-warm cache.
  const std::size_t server_clients = 4;
  const std::size_t requests_per_client = 6;
  struct Wave {
    double seconds = 0.0;
    std::vector<double> latencies;  // client-observed submit -> response
  };
  const auto run_wave = [&](ServerCore& core) {
    Wave wave;
    std::vector<std::vector<double>> latencies(server_clients);
    std::vector<std::thread> clients;
    clients.reserve(server_clients);
    Stopwatch wave_timer;
    for (std::size_t c = 0; c < server_clients; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          const FlowJob& job = sweep_jobs[(c + r * server_clients) %
                                          sweep_jobs.size()];
          ServerRequest request;
          request.network = std::shared_ptr<const Network>(
              std::shared_ptr<void>(), job.network);
          request.options = job.options;
          Stopwatch latency;
          const ServerResponse response = core.submit(std::move(request)).get();
          latencies[c].push_back(latency.seconds());
          if (response.status != ServerStatus::kOk) std::abort();
        }
      });
    for (std::thread& client : clients) client.join();
    wave.seconds = wave_timer.seconds();
    for (const auto& per_client : latencies)
      wave.latencies.insert(wave.latencies.end(), per_client.begin(),
                            per_client.end());
    std::sort(wave.latencies.begin(), wave.latencies.end());
    return wave;
  };
  const auto quantile_ms = [](const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[index] * 1e3;
  };

  ServerConfig server_config;
  server_config.num_workers = num_threads;
  server_config.queue_capacity = server_clients * 2;
  ServerCore server(server_config);
  const Wave cold_wave = run_wave(server);
  const Wave hot_wave = run_wave(server);
  const std::size_t wave_requests = server_clients * requests_per_client;
  server.shutdown();
  if (server.stats().completed != 2 * wave_requests) {
    std::cerr << "FATAL: server waves lost requests\n";
    return 1;
  }

  // -- tracing overhead -------------------------------------------------------
  // The §4.1 sequential commit-path search re-run with spans runtime-enabled
  // vs runtime-disabled, arms interleaved, best-of-9 wall times compared
  // (the search is ~1 ms, so a single sample is at the mercy of scheduler
  // jitter — the interleaved minimum converges on the true floor of each
  // arm).  Tracing is pure observation: both arms must produce bit-identical
  // results.  Under DOMINOSYN_NO_TRACING both arms run the same (empty)
  // span code and the trend gate expects a ~1.0 ratio.
  double traced_seconds = std::numeric_limits<double>::infinity();
  double untraced_seconds = std::numeric_limits<double>::infinity();
  MinPowerResult traced_result, untraced_result;
  (void)min_power_assignment(evaluator, overlap, sequential);  // warm caches
  const std::uint64_t spans_before = obs::total_spans();
  for (int rep = 0; rep < 9; ++rep) {
    obs::set_tracing_enabled(true);
    stopwatch.restart();
    traced_result = min_power_assignment(evaluator, overlap, sequential);
    traced_seconds = std::min(traced_seconds, stopwatch.seconds());
    obs::set_tracing_enabled(false);
    stopwatch.restart();
    untraced_result = min_power_assignment(evaluator, overlap, sequential);
    untraced_seconds = std::min(untraced_seconds, stopwatch.seconds());
  }
  obs::set_tracing_enabled(true);
  const std::uint64_t tracing_events = obs::total_spans() - spans_before;
  if (traced_result.final_power != untraced_result.final_power ||
      traced_result.assignment != untraced_result.assignment ||
      traced_result.final_power != incremental.final_power) {
    std::cerr << "FATAL: tracing changed the search result\n";
    return 1;
  }
  if (!obs::kTracingCompiledOut && tracing_events == 0) {
    std::cerr << "FATAL: traced arm recorded no spans\n";
    return 1;
  }

  // -- flow stages ------------------------------------------------------------
  // The cold Table 1 flow of Industry 2 (a sequential block on the sampled
  // probability path) with bench_table1's options, one thread: a fresh
  // FlowSession per repetition, each stage forced in flow order and timed
  // on its own, best-of-3 per stage; total is the whole cold flow, synthesis
  // and context build included.  Every repetition must produce the same
  // MA and MP answers.
  struct FlowStageTimes {
    double probs = std::numeric_limits<double>::infinity();
    double assign_ma = std::numeric_limits<double>::infinity();
    double assign_mp = std::numeric_limits<double>::infinity();
    double map = std::numeric_limits<double>::infinity();
    double measure = std::numeric_limits<double>::infinity();
    double total = std::numeric_limits<double>::infinity();
    double assign_mp_wide = std::numeric_limits<double>::infinity();
    double restage_measure = std::numeric_limits<double>::infinity();
  } flow_best;
  const Network flow_net = generate_benchmark(paper_spec("Industry 2"));
  FlowOptions flow_options;
  flow_options.pi_prob = 0.5;
  flow_options.sim.steps = 1024;
  flow_options.sim.warmup = 16;
  std::optional<std::pair<double, double>> flow_powers;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch total_timer;
    FlowSession session(flow_net, flow_options);
    (void)session.synthesized();
    const auto timed = [&](double& best, auto&& stage) {
      stopwatch.restart();
      stage();
      best = std::min(best, stopwatch.seconds());
    };
    timed(flow_best.probs, [&] { (void)session.probabilities(); });
    (void)session.evaluator();
    timed(flow_best.assign_ma, [&] { (void)session.assign(PhaseMode::kMinArea); });
    timed(flow_best.assign_mp, [&] { (void)session.assign(PhaseMode::kMinPower); });
    timed(flow_best.map, [&] {
      (void)session.map(PhaseMode::kMinArea);
      (void)session.map(PhaseMode::kMinPower);
    });
    timed(flow_best.measure, [&] {
      (void)session.measure(PhaseMode::kMinArea);
      (void)session.measure(PhaseMode::kMinPower);
    });
    flow_best.total = std::min(flow_best.total, total_timer.seconds());
    // Warm restage: a Table 2 clock re-maps MP (untimed) and re-measures it.
    FlowOptions timed_options = flow_options;
    timed_options.clock_period = 1.05 * session.map(PhaseMode::kMinArea).critical_delay;
    session.set_options(timed_options);
    (void)session.map(PhaseMode::kMinPower);
    timed(flow_best.restage_measure, [&] { (void)session.measure(PhaseMode::kMinPower); });
    session.set_options(flow_options);
    const std::pair<double, double> powers{
        session.measure(PhaseMode::kMinArea).total,
        session.measure(PhaseMode::kMinPower).total};
    if (flow_powers && *flow_powers != powers) {
      std::cerr << "FATAL: cold flow repetitions measured different power\n";
      return 1;
    }
    flow_powers = powers;
  }
  // The wide MP stage: a fresh Industry 3 session per repetition, stages
  // before MP untimed (the cone-overlap table is built inside MP's first
  // call, as in a cold submit); every repetition must find the same answer.
  // Its measured trials (lane reads; the rest are answered without a
  // measurement) are a deterministic count, the same at any thread count.
  const Network wide_net = generate_benchmark(paper_spec("Industry 3"));
  std::optional<PhaseAssignment> wide_assignment;
  std::size_t wide_measured_trials = 0;
  for (int rep = 0; rep < 3; ++rep) {
    FlowSession session(wide_net, flow_options);
    const std::size_t seed_batched =
        session.assign(PhaseMode::kMinArea).search_batched_trials;
    stopwatch.restart();
    const FlowSession::AssignStage& mp = session.assign(PhaseMode::kMinPower);
    flow_best.assign_mp_wide =
        std::min(flow_best.assign_mp_wide, stopwatch.seconds());
    if (wide_assignment && (*wide_assignment != mp.assignment ||
                            wide_measured_trials !=
                                mp.search_batched_trials - seed_batched)) {
      std::cerr << "FATAL: wide MP repetitions found different answers\n";
      return 1;
    }
    wide_assignment = mp.assignment;
    wide_measured_trials = mp.search_batched_trials - seed_batched;
  }

  const unsigned resolved = ThreadPool::resolve_threads(num_threads);
  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"bench\": \"micro_incremental\",\n"
            << "  \"num_threads\": " << resolved << ",\n"
            << "  \"hardware_threads\": " << ThreadPool::resolve_threads(0) << ",\n"
            << "  \"circuit\": {\"name\": \"" << net.name() << "\", \"gates\": "
            << net.num_gates() << ", \"pis\": " << net.num_pis()
            << ", \"pos\": " << net.num_pos() << "},\n"
            << "  \"candidate_eval\": {\n"
            << "    \"walk_flips\": " << walk << ",\n"
            << "    \"full_seconds\": " << full_eval_seconds << ",\n"
            << "    \"incremental_seconds\": " << incremental_eval_seconds
            << ",\n"
            << "    \"speedup\": "
            << full_eval_seconds / incremental_eval_seconds << "\n"
            << "  },\n"
            << "  \"minpower_search\": {\n"
            << "    \"trials\": " << incremental.trials << ",\n"
            << "    \"commits\": " << incremental.commits << ",\n"
            << "    \"final_power\": " << incremental.final_power << ",\n"
            << "    \"full_reeval_seconds\": " << full_search_seconds
            << ",\n"
            << "    \"incremental_seconds\": "
            << incremental_search_seconds << ",\n"
            << "    \"parallel_seconds\": " << parallel_search_seconds
            << ",\n"
            << "    \"speedup_incremental\": "
            << full_search_seconds / incremental_search_seconds << ",\n"
            << "    \"speedup_parallel\": "
            << full_search_seconds / parallel_search_seconds << "\n"
            << "  },\n"
            << "  \"commit_path\": {\n"
            << "    \"commits\": " << incremental.commits << ",\n"
            << "    \"candidate_pairs\": " << cp_pairs << ",\n"
            << "    \"commit_rescore_pairs\": "
            << incremental.commit_rescore_pairs << ",\n"
            << "    \"avg_update_nodes\": " << incremental.avg_update_nodes
            << ",\n"
            << "    \"cold_commit_seconds\": " << cold_commit_seconds << ",\n"
            << "    \"incremental_commit_seconds\": "
            << incremental_commit_seconds << ",\n"
            << "    \"speedup_per_commit\": "
            << cold_commit_seconds / incremental_commit_seconds << ",\n"
            << "    \"commits_per_second\": "
            << static_cast<double>(incremental.commits) /
                   incremental_search_seconds << ",\n"
            << "    \"end_to_end_mp_seconds\": " << incremental_search_seconds
            << ",\n"
            << "    \"end_to_end_mp_speedup_vs_seed\": "
            << full_search_seconds / incremental_search_seconds << "\n"
            << "  },\n"
            << "  \"exhaustive_search\": {\n"
            << "    \"circuit\": {\"name\": \"" << small.name()
            << "\", \"gates\": " << small.num_gates() << ", \"pos\": "
            << small.num_pos() << "},\n"
            << "    \"candidates\": " << (1ULL << small.num_pos()) << ",\n"
            << "    \"full_seconds\": " << exhaustive_full_seconds
            << ",\n"
            << "    \"incremental_seconds\": "
            << exhaustive_incremental_seconds << ",\n"
            << "    \"parallel_seconds\": "
            << exhaustive_parallel_seconds << ",\n"
            << "    \"speedup_incremental\": "
            << exhaustive_full_seconds / exhaustive_incremental_seconds
            << ",\n"
            << "    \"speedup_parallel\": "
            << exhaustive_full_seconds / exhaustive_parallel_seconds
            << "\n"
            << "  },\n"
            << "  \"exhaustive_bb\": {\n"
            << "    \"gate_target\": " << gate_target << ",\n"
            << "    \"time_budget_seconds\": " << bb_budget_seconds << ",\n"
            << "    \"elapsed_seconds\": " << bb_elapsed_seconds << ",\n"
            << "    \"largest_tractable_pos\": "
            << (bb_runs.empty() ? 0 : bb_runs.back().pos) << ",\n"
            << "    \"runs\": [";
  for (std::size_t i = 0; i < bb_runs.size(); ++i) {
    const BbRun& run = bb_runs[i];
    std::cout << (i == 0 ? "\n" : ",\n")
              << "      {\"pos\": " << run.pos
              << ", \"candidates_unpruned\": " << run.unpruned
              << ", \"nodes_expanded\": " << run.result.nodes_expanded
              << ", \"evaluated_candidates\": " << run.result.evaluations
              << ", \"subtrees_pruned\": " << run.result.subtrees_pruned
              << ", \"prune_factor\": "
              << static_cast<double>(run.unpruned) /
                     static_cast<double>(std::max<std::size_t>(
                         run.result.nodes_expanded, 1))
              << ", \"bound_tightness\": " << run.result.bound_tightness
              << ", \"bb_seconds\": " << run.bb_seconds;
    if (run.gray_seconds >= 0.0)
      std::cout << ", \"gray_seconds\": " << run.gray_seconds
                << ", \"speedup_vs_gray\": "
                << run.gray_seconds / run.bb_seconds;
    std::cout << "}";
  }
  std::cout << "\n    ]\n"
            << "  },\n"
            << "  \"batched_eval\": {\n"
            << "    \"lane_width\": " << lane_width << ",\n"
            << "    \"simd_active\": "
            << (eval_batch_simd_active() ? "true" : "false") << ",\n"
            << "    \"trials\": " << be_trials.size() << ",\n"
            << "    \"scalar_seconds\": " << be_scalar_seconds << ",\n"
            << "    \"batched_seconds\": " << be_batched_seconds << ",\n"
            << "    \"speedup_per_candidate\": "
            << be_scalar_seconds / be_batched_seconds << ",\n"
            << "    \"lane_sweep\": [";
  for (std::size_t i = 0; i < be_sweep.size(); ++i) {
    std::cout << (i == 0 ? "\n" : ",\n")
              << "      {\"lanes\": " << be_sweep[i].lanes
              << ", \"seconds\": " << be_sweep[i].seconds
              << ", \"speedup\": " << be_scalar_seconds / be_sweep[i].seconds
              << "}";
  }
  std::cout << "\n    ],\n"
            << "    \"mp_scalar_seconds\": " << mp_scalar_seconds << ",\n"
            << "    \"mp_batched_seconds\": " << mp_batched_seconds << ",\n"
            << "    \"mp_speedup\": "
            << mp_scalar_seconds / mp_batched_seconds << ",\n"
            << "    \"mp_batched_trials\": " << mp_batched.batched_trials
            << ",\n"
            << "    \"mp_batch_walks\": " << mp_batched.batch_walks << ",\n"
            << "    \"mp_lane_occupancy\": "
            << static_cast<double>(mp_batched.batched_trials) /
                   static_cast<double>(
                       std::max<std::size_t>(mp_batched.batch_walks, 1))
            << ",\n"
            << "    \"bnb_scalar_seconds\": " << bnb_scalar_seconds << ",\n"
            << "    \"bnb_batched_seconds\": " << bnb_batched_seconds << ",\n"
            << "    \"bnb_speedup\": "
            << bnb_scalar_seconds / bnb_batched_seconds << ",\n"
            << "    \"bnb_batched_evals\": " << bnb_batched.batched_evals
            << ",\n"
            << "    \"bnb_batch_walks\": " << bnb_batched.batch_walks << "\n"
            << "  },\n"
            << "  \"batched_sweep\": {\n"
            << "    \"circuits\": " << sweep_nets.size() << ",\n"
            << "    \"jobs\": " << sweep_jobs.size() << ",\n"
            << "    \"sim_steps\": " << sweep_steps << ",\n"
            << "    \"monolithic_seconds\": " << sweep_monolithic_seconds
            << ",\n"
            << "    \"batch_seconds\": " << sweep_batch_seconds << ",\n"
            << "    \"batch_parallel_seconds\": "
            << sweep_batch_parallel_seconds << ",\n"
            << "    \"speedup_amortization\": "
            << sweep_monolithic_seconds / sweep_batch_seconds << ",\n"
            << "    \"speedup_parallel\": "
            << sweep_monolithic_seconds / sweep_batch_parallel_seconds << "\n"
            << "  },\n"
            << "  \"server_throughput\": {\n"
            << "    \"workers\": " << resolved << ",\n"
            << "    \"client_threads\": " << server_clients << ",\n"
            << "    \"requests_per_wave\": " << wave_requests << ",\n"
            << "    \"cold\": {\n"
            << "      \"seconds\": " << cold_wave.seconds << ",\n"
            << "      \"requests_per_second\": "
            << static_cast<double>(wave_requests) / cold_wave.seconds << ",\n"
            << "      \"p50_ms\": " << quantile_ms(cold_wave.latencies, 0.5)
            << ",\n"
            << "      \"p95_ms\": " << quantile_ms(cold_wave.latencies, 0.95)
            << "\n    },\n"
            << "    \"hot\": {\n"
            << "      \"seconds\": " << hot_wave.seconds << ",\n"
            << "      \"requests_per_second\": "
            << static_cast<double>(wave_requests) / hot_wave.seconds << ",\n"
            << "      \"p50_ms\": " << quantile_ms(hot_wave.latencies, 0.5)
            << ",\n"
            << "      \"p95_ms\": " << quantile_ms(hot_wave.latencies, 0.95)
            << "\n    },\n"
            << "    \"speedup_hot\": " << cold_wave.seconds / hot_wave.seconds
            << "\n"
            << "  },\n"
            << "  \"tracing_overhead\": {\n"
            << "    \"workload\": \"commit_path\",\n"
            << "    \"compiled_out\": "
            << (obs::kTracingCompiledOut ? "true" : "false") << ",\n"
            << "    \"commit_path_traced_seconds\": " << traced_seconds
            << ",\n"
            << "    \"commit_path_untraced_seconds\": " << untraced_seconds
            << ",\n"
            << "    \"overhead_ratio\": " << traced_seconds / untraced_seconds
            << ",\n"
            << "    \"events_recorded\": " << tracing_events << "\n"
            << "  },\n"
            << "  \"flow_stages\": {\n"
            << "    \"circuit\": \"Industry 2\",\n"
            << "    \"reps\": 3,\n"
            << "    \"probs_ms\": " << flow_best.probs * 1e3 << ",\n"
            << "    \"assign_ma_ms\": " << flow_best.assign_ma * 1e3 << ",\n"
            << "    \"assign_mp_ms\": " << flow_best.assign_mp * 1e3 << ",\n"
            << "    \"map_ms\": " << flow_best.map * 1e3 << ",\n"
            << "    \"measure_ms\": " << flow_best.measure * 1e3 << ",\n"
            << "    \"total_ms\": " << flow_best.total * 1e3 << ",\n"
            << "    \"restage_measure_ms\": " << flow_best.restage_measure * 1e3 << ",\n"
            << "    \"wide_circuit\": \"Industry 3\",\n"
            << "    \"assign_mp_wide_ms\": " << flow_best.assign_mp_wide * 1e3
            << ",\n"
            << "    \"assign_mp_wide_measured_trials\": " << wide_measured_trials
            << "\n"
            << "  }\n"
            << "}\n";
  return 0;
}
