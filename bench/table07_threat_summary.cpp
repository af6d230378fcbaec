// Table 7: performance comparison for execution times of Threat Analysis —
// the summary matrix (parallelization x platform), including the automatic
// parallelization rows (identical to sequential: the compilers found no
// usable parallelism, reproduced by the autopar analyzer).
#include <iostream>

#include "autopar/parallelizer.hpp"
#include "autopar/programs.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table07_threat_summary", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();

  // The analyzer's verdict justifies the "Automatic == None" rows.
  const autopar::Parallelizer parallelizer;
  const autopar::LoopVerdict verdict =
      parallelizer.analyze(autopar::threat_program1());
  std::cout << "Automatic parallelization of the sequential program: "
            << (verdict.parallelizable ? "PARALLELIZED (unexpected!)"
                                       : "no usable parallelism found")
            << "\n\n";

  TextTable table("Table 7: performance comparison, Threat Analysis");
  table.header({"Parallelization", "Platform", "Paper (s)", "Measured (s)",
                "Ratio"});
  // Each printed row is also a labelled paper-vs-measured report row.
  auto row = [&](const std::string& label, const std::string& par,
                 const std::string& plat, double paper, double measured) {
    table.row({par, plat, TextTable::num(paper, 0), TextTable::num(measured, 1),
               TextTable::num(measured / paper, 2)});
    session.obs().report().add_row(label, paper, measured);
  };

  const double alpha = platforms::threat_seq_seconds(tb, tb.alpha);
  const double ppro = platforms::threat_seq_seconds(tb, tb.ppro);
  const double exemplar = platforms::threat_seq_seconds(tb, tb.exemplar);
  const double tera = platforms::mta_threat_seq_seconds(tb);

  // The manual rows reuse Tables 3-5's paper times; the scaling rows are
  // indexed by processors - 1.
  const auto& ppro_rows = platforms::paper::threat_ppro_rows();
  const auto& exemplar_rows = platforms::paper::threat_exemplar_rows();
  row("threat_none_alpha", "None", "Alpha", platforms::paper::kThreatSeqAlpha,
      alpha);
  row("threat_none_ppro", "None", "Pentium Pro",
      platforms::paper::kThreatSeqPPro, ppro);
  row("threat_none_exemplar", "None", "Exemplar",
      platforms::paper::kThreatSeqExemplar, exemplar);
  row("threat_none_tera", "None", "Tera", platforms::paper::kThreatSeqTera,
      tera);
  // Automatic parallelization found nothing on either platform.
  row("threat_automatic_exemplar", "Automatic", "Exemplar",
      platforms::paper::kThreatSeqExemplar, exemplar);
  row("threat_automatic_tera", "Automatic", "Tera",
      platforms::paper::kThreatSeqTera, tera);
  row("threat_manual_ppro_4proc", "Manual", "Pentium Pro (4 procs)",
      ppro_rows[3].seconds,
      platforms::threat_chunked_seconds(tb, tb.ppro, 4, 4));
  row("threat_manual_exemplar_4proc", "Manual", "Exemplar (4 procs)",
      exemplar_rows[3].seconds,
      platforms::threat_chunked_seconds(tb, tb.exemplar, 4, 4));
  row("threat_manual_exemplar_8proc", "Manual", "Exemplar (8 procs)",
      exemplar_rows[7].seconds,
      platforms::threat_chunked_seconds(tb, tb.exemplar, 8, 8));
  row("threat_manual_exemplar_16proc", "Manual", "Exemplar (16 procs)",
      exemplar_rows[15].seconds,
      platforms::threat_chunked_seconds(tb, tb.exemplar, 16, 16));
  row("threat_manual_tera_1proc", "Manual", "Tera MTA (1 proc)",
      platforms::paper::kThreatTera1Proc,
      platforms::mta_threat_chunked_seconds(tb, 256, 1));
  row("threat_manual_tera_2proc", "Manual", "Tera MTA (2 procs)",
      platforms::paper::kThreatTera2Proc,
      platforms::mta_threat_chunked_seconds(tb, 256, 2));
  table.render(std::cout);

  std::cout << "\nKey shape (paper §5): one Tera processor ~ four Exemplar "
               "processors on this program.\n";
  return 0;
}
