/// \file table1.cpp
/// Regenerates Table 1 of the paper: untimed synthesis with PI signal
/// probability 0.5, comparing the minimum-area phase assignment (MA, ref
/// [15]) against the minimum-power assignment (MP, §4.1) on the seven
/// stand-in circuits.  Columns mirror the paper: sizes are mapped
/// standard-cell counts, power is the simulated per-cycle switched
/// capacitance (PowerMill substitute), and the last two columns are the
/// area penalty and power saving of MP relative to MA.  The Prob column
/// says whether a circuit's signal probabilities are exact (BDD) or sampled,
/// with the sample's 95 % confidence half-width.
///
/// The whole sweep is one run_flow_batch call: both modes of a circuit share
/// one FlowSession (synthesis, BDD probabilities and the EvalContext are
/// built once per circuit, and MP seeds from the cached MA stage), while
/// different circuits run in parallel across the batch pool.
///
/// The paper reports (absolute mA on an Intel process, so only shapes are
/// comparable): average area penalty 11.8%, average power saving 18.0%,
/// with frg1 at 34.1% saving for 48% area penalty and Industry 2 slightly
/// *losing* power (-2.8%).

#include <iostream>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "util/cli.hpp"
#include "flow/batch.hpp"
#include "flow/report.hpp"

/// Usage: table1 [num_threads]   (0 = one per hardware thread; default 1)
int main(int argc, char** argv) {
  using namespace dominosyn;
  const auto threads = cli::parse_threads(argc, argv, 1, "table1");
  if (!threads) return 2;

  std::cout << "=== Table 1: synthesis at PI signal probability 0.5 ===\n"
            << "(stand-in circuits; paper's PI/PO counts; see README, "
               "Provenance and caveats)\n\n";

  FlowOptions options;
  options.pi_prob = 0.5;
  options.sim.steps = 1024;
  options.sim.warmup = 16;

  const auto& suite = paper_suite();
  std::vector<Network> nets;
  nets.reserve(suite.size());
  for (const BenchSpec& spec : suite) nets.push_back(generate_benchmark(spec));

  std::vector<FlowJob> jobs;
  jobs.reserve(2 * suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    FlowJob job;
    job.circuit = suite[i].name;
    job.network = &nets[i];
    job.options = options;
    job.options.mode = PhaseMode::kMinArea;
    jobs.push_back(job);
    job.options.mode = PhaseMode::kMinPower;
    jobs.push_back(std::move(job));
  }

  BatchOptions batch;
  batch.num_threads = *threads;
  const std::vector<FlowReport> reports = run_flow_batch(jobs, batch);

  TextTable table;
  table.header({"Ckt", "Desc.", "#PIs", "#POs", "MA Size", "MA Pwr", "MP Size",
                "MP Pwr", "%AreaPen", "%PwrSav", "Prob", "sec"});

  double sum_area_pen = 0.0, sum_pwr_sav = 0.0;
  std::size_t rows = 0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const BenchSpec& spec = suite[i];
    const FlowReport& ma = reports[2 * i];
    const FlowReport& mp = reports[2 * i + 1];

    const double area_pen =
        ma.cells > 0 ? (static_cast<double>(mp.cells) - static_cast<double>(ma.cells)) /
                           static_cast<double>(ma.cells)
                     : 0.0;
    const double pwr_sav =
        ma.sim_power > 0.0 ? (ma.sim_power - mp.sim_power) / ma.sim_power : 0.0;
    sum_area_pen += area_pen;
    sum_pwr_sav += pwr_sav;
    ++rows;

    table.row({spec.name, spec.description, std::to_string(spec.num_pis),
               std::to_string(spec.num_pos), std::to_string(ma.cells),
               fmt(ma.sim_power, 2), std::to_string(mp.cells),
               fmt(mp.sim_power, 2), fmt_pct(area_pen), fmt_pct(pwr_sav),
               mp.used_exact_bdd ? std::string("exact")
                                 : "sampled +-" + fmt(mp.prob_halfwidth, 4),
               fmt(ma.seconds + mp.seconds, 1)});
    if (!ma.equivalence_ok || !mp.equivalence_ok) {
      std::cerr << "EQUIVALENCE FAILURE on " << spec.name << "\n";
      return 1;
    }
  }
  table.row({"Average", "", "", "", "", "", "", "",
             fmt_pct(sum_area_pen / rows), fmt_pct(sum_pwr_sav / rows), "", ""});
  table.print(std::cout);

  std::cout << "\nPaper (Table 1): average area penalty 11.8%, average power "
               "saving 18.0%.\n"
               "Shape checks: MP should save power on most circuits, with the "
               "3-output frg1\nshowing a large saving at a large area penalty "
               "(paper: 34.1% / 48%).\n";
  return 0;
}
