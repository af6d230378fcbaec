// Table 12: performance comparison for execution times of Terrain Masking —
// the summary matrix (parallelization x platform).
#include <iostream>

#include "autopar/parallelizer.hpp"
#include "autopar/programs.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table12_terrain_summary", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();

  const autopar::Parallelizer parallelizer;
  const autopar::LoopVerdict verdict =
      parallelizer.analyze(autopar::terrain_program3());
  std::cout << "Automatic parallelization of the sequential program: "
            << (verdict.parallelizable ? "PARALLELIZED (unexpected!)"
                                       : "no usable parallelism found")
            << "\n\n";

  TextTable table("Table 12: performance comparison, Terrain Masking");
  table.header({"Parallelization", "Platform", "Paper (s)", "Measured (s)",
                "Ratio"});
  // Each printed row is also a labelled paper-vs-measured report row.
  auto row = [&](const std::string& label, const std::string& par,
                 const std::string& plat, double paper, double measured) {
    table.row({par, plat, TextTable::num(paper, 0), TextTable::num(measured, 1),
               TextTable::num(measured / paper, 2)});
    session.obs().report().add_row(label, paper, measured);
  };

  const double alpha = platforms::terrain_seq_seconds(tb, tb.alpha);
  const double ppro = platforms::terrain_seq_seconds(tb, tb.ppro);
  const double exemplar = platforms::terrain_seq_seconds(tb, tb.exemplar);
  const double tera = platforms::mta_terrain_seq_seconds(tb);

  // The manual rows reuse Tables 9-11's paper times; the scaling rows are
  // indexed by processors - 1.
  const auto& ppro_rows = platforms::paper::terrain_ppro_rows();
  const auto& exemplar_rows = platforms::paper::terrain_exemplar_rows();
  row("terrain_none_alpha", "None", "Alpha",
      platforms::paper::kTerrainSeqAlpha, alpha);
  row("terrain_none_ppro", "None", "Pentium Pro",
      platforms::paper::kTerrainSeqPPro, ppro);
  row("terrain_none_exemplar", "None", "Exemplar",
      platforms::paper::kTerrainSeqExemplar, exemplar);
  row("terrain_none_tera", "None", "Tera", platforms::paper::kTerrainSeqTera,
      tera);
  row("terrain_automatic_exemplar", "Automatic", "Exemplar",
      platforms::paper::kTerrainSeqExemplar, exemplar);
  row("terrain_automatic_tera", "Automatic", "Tera",
      platforms::paper::kTerrainSeqTera, tera);
  row("terrain_manual_ppro_4proc", "Manual", "Pentium Pro (4 procs)",
      ppro_rows[3].seconds,
      platforms::terrain_coarse_seconds(tb, tb.ppro, 4, 4));
  row("terrain_manual_exemplar_4proc", "Manual", "Exemplar (4 procs)",
      exemplar_rows[3].seconds,
      platforms::terrain_coarse_seconds(tb, tb.exemplar, 4, 4));
  row("terrain_manual_exemplar_8proc", "Manual", "Exemplar (8 procs)",
      exemplar_rows[7].seconds,
      platforms::terrain_coarse_seconds(tb, tb.exemplar, 8, 8));
  row("terrain_manual_exemplar_16proc", "Manual", "Exemplar (16 procs)",
      exemplar_rows[15].seconds,
      platforms::terrain_coarse_seconds(tb, tb.exemplar, 16, 16));
  row("terrain_manual_tera_1proc", "Manual", "Tera MTA (1 proc)",
      platforms::paper::kTerrainTera1Proc,
      platforms::mta_terrain_fine_seconds(tb, 1));
  row("terrain_manual_tera_2proc", "Manual", "Tera MTA (2 procs)",
      platforms::paper::kTerrainTera2Proc,
      platforms::mta_terrain_fine_seconds(tb, 2));
  table.render(std::cout);

  std::cout << "\nKey shape (paper §6): the dual-processor Tera ~ eight "
               "Exemplar processors on this program; coarse-grained "
               "outer-loop parallelism works on the SMPs, fine-grained "
               "inner-loop parallelism works on the MTA.\n";
  return 0;
}
