/// \file micro_bdd.cpp
/// google-benchmark microbenchmarks for the ROBDD engine: network-to-BDD
/// build, ITE throughput, probability evaluation and GC, as a function of
/// circuit size and variable ordering.

#include <benchmark/benchmark.h>

#include "benchgen/benchgen.hpp"
#include "bdd/netbdd.hpp"

namespace {

using namespace dominosyn;

Network sized_network(std::size_t gates) {
  BenchSpec spec;
  spec.name = "micro" + std::to_string(gates);
  spec.num_pis = 16;
  spec.num_pos = 8;
  spec.gate_target = gates;
  spec.seed = 1234;
  return generate_benchmark(spec);
}

void BM_BuildBdds(benchmark::State& state) {
  const Network net = sized_network(static_cast<std::size_t>(state.range(0)));
  const auto order = compute_order(net, OrderingKind::kReverseTopological);
  std::size_t nodes = 0;
  for (auto _ : state) {
    auto bdds = build_bdds(net, order);
    nodes = bdds.mgr->allocated_nodes();
    benchmark::DoNotOptimize(bdds.node_funcs.data());
  }
  state.counters["bdd_nodes"] = static_cast<double>(nodes);
  state.counters["gates"] = static_cast<double>(net.num_gates());
}
BENCHMARK(BM_BuildBdds)->Arg(100)->Arg(300)->Arg(800);

void BM_BuildBddsOrdering(benchmark::State& state) {
  const Network net = sized_network(300);
  const auto kind = static_cast<OrderingKind>(state.range(0));
  const auto order = compute_order(net, kind, /*seed=*/7);
  for (auto _ : state) {
    auto bdds = build_bdds(net, order);
    benchmark::DoNotOptimize(bdds.node_funcs.data());
  }
}
BENCHMARK(BM_BuildBddsOrdering)
    ->Arg(static_cast<int>(OrderingKind::kNatural))
    ->Arg(static_cast<int>(OrderingKind::kTopological))
    ->Arg(static_cast<int>(OrderingKind::kReverseTopological))
    ->Arg(static_cast<int>(OrderingKind::kRandom));

void BM_IteXorChain(benchmark::State& state) {
  const auto vars = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    BddManager mgr(vars);
    Bdd acc = mgr.bdd_false();
    for (std::uint32_t v = 0; v < vars; ++v) acc = acc ^ mgr.var(v);
    benchmark::DoNotOptimize(acc.index());
  }
}
BENCHMARK(BM_IteXorChain)->Arg(16)->Arg(64)->Arg(256);

void BM_SignalProbabilities(benchmark::State& state) {
  const Network net = sized_network(static_cast<std::size_t>(state.range(0)));
  const auto order = compute_order(net, OrderingKind::kReverseTopological);
  const auto bdds = build_bdds(net, order);
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  for (auto _ : state) {
    const auto probs = exact_signal_probabilities(net, bdds, pi_probs);
    benchmark::DoNotOptimize(probs.data());
  }
}
BENCHMARK(BM_SignalProbabilities)->Arg(100)->Arg(300)->Arg(800);

void BM_GarbageCollection(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BddManager mgr(32);
    {
      std::vector<Bdd> garbage;
      Bdd acc = mgr.bdd_true();
      for (std::uint32_t v = 0; v + 1 < 32; ++v) {
        acc = acc & (mgr.var(v) | mgr.var(v + 1));
        garbage.push_back(acc ^ mgr.var(v));
      }
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.gc());
  }
}
BENCHMARK(BM_GarbageCollection);

void BM_SampledProbabilities(benchmark::State& state) {
  const Network net = sized_network(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> pi_probs(net.num_pis(), 0.5);
  for (auto _ : state) {
    // A zero work budget trips the exact attempt at once: this times the
    // sampled fallback.
    const auto probs = network_probabilities(
        net, pi_probs, {}, {}, OrderingKind::kReverseTopological, 0);
    benchmark::DoNotOptimize(probs.node_probs.data());
  }
}
BENCHMARK(BM_SampledProbabilities)->Arg(300)->Arg(800);

}  // namespace

BENCHMARK_MAIN();
