// Table 5: multithreaded Threat Analysis on the dual-processor Tera MTA
// (256 chunks). The paper: 82 s on one processor (32x over its own
// sequential run), 46 s on two (1.8x — limited by the prototype network).
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table05_threat_tera", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();

  const std::vector<double> swept = platforms::run_mta_points(
      {platforms::mta_threat_chunked_point(tb, 256, 1),
       platforms::mta_threat_chunked_point(tb, 256, 2),
       platforms::mta_threat_seq_point(tb)},
      session.jobs());
  const double t1 = swept[0];
  const double t2 = swept[1];

  TextTable table(
      "Table 5: multithreaded Threat Analysis on dual-processor Tera MTA "
      "(256 chunks)");
  table.header({"Processors", "Paper (s)", "Measured (s)", "Paper speedup",
                "Measured speedup"});
  table.row({"1", TextTable::num(platforms::paper::kThreatTera1Proc, 0),
             TextTable::num(t1, 1), "1.0", "1.0"});
  table.row({"2", TextTable::num(platforms::paper::kThreatTera2Proc, 0),
             TextTable::num(t2, 1),
             TextTable::num(platforms::paper::kThreatTera1Proc /
                                platforms::paper::kThreatTera2Proc,
                            1),
             TextTable::num(t1 / t2, 1)});
  table.render(std::cout);

  session.obs().report().add_row("threat_tera_1proc",
                                 platforms::paper::kThreatTera1Proc, t1);
  session.obs().report().add_row("threat_tera_2proc",
                                 platforms::paper::kThreatTera2Proc, t2);

  const double seq = swept[2];
  std::cout << "\nMultithreaded vs sequential on one MTA processor: paper "
            << TextTable::num(2584.0 / 82.0, 1) << "x, measured "
            << TextTable::num(seq / t1, 1) << "x\n";
  return 0;
}
