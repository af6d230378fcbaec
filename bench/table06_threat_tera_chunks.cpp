// Table 6: multithreaded Threat Analysis on the Tera MTA with a varying
// number of chunks. The shape the paper stresses: the MTA needs *hundreds*
// of threads — time halves with the chunk count until saturation at
// 128-256 chunks.
#include <iostream>

#include "harness.hpp"

int main(int argc, char** argv) {
  tc3i::bench::Session session("table06_threat_tera_chunks", argc, argv);
  using namespace tc3i;
  const auto& tb = bench::testbed();

  const auto& rows = platforms::paper::threat_tera_chunk_rows();
  std::vector<platforms::MtaPoint> points;
  points.reserve(rows.size());
  for (const auto& row : rows)
    points.push_back(platforms::mta_threat_chunked_point(tb, row.chunks, 2));
  const std::vector<double> swept =
      platforms::run_mta_points(points, session.jobs());

  TextTable table(
      "Table 6: Threat Analysis on Tera MTA vs number of chunks (2 procs)");
  table.header({"Chunks", "Paper (s)", "Measured (s)", "Ratio"});
  double prev = 0.0;
  bool monotone = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double t = swept[i];
    bench::add_comparison_row(table, std::to_string(rows[i].chunks),
                              rows[i].seconds, t);
    if (prev != 0.0 && t > prev * 1.02) monotone = false;
    prev = t;
  }
  table.render(std::cout);
  std::cout << "\nShape check: time decreases with chunk count and saturates "
               "by 128-256 chunks: "
            << (monotone ? "PASS" : "FAIL") << '\n';
  return 0;
}
