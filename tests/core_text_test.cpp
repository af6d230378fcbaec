// Tests for the text-rendering helpers (tables, charts) and the CLI parser.
#include <gtest/gtest.h>

#include "core/chart.hpp"
#include "core/cli.hpp"
#include "core/table.hpp"

namespace tc3i {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t("Title");
  t.header({"A", "Bee"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string out = t.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| A "), std::string::npos);
  EXPECT_NE(out.find("| 333 "), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TextTable, ColumnsPadToWidestCell) {
  TextTable t("");
  t.header({"x"});
  t.row({"wide-cell-content"});
  const std::string out = t.str();
  // The header cell must be padded to the width of the widest row cell.
  EXPECT_NE(out.find("| x                 |"), std::string::npos);
}

TEST(TextTable, AddFormatsMixedTypes) {
  TextTable t("");
  t.header({"s", "i", "f"});
  t.add("str", 42, 2.5);
  const std::string out = t.str();
  EXPECT_NE(out.find("str"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(TextTable, NumTrimsTrailingZeros) {
  EXPECT_EQ(TextTable::num(2.50), "2.5");
  EXPECT_EQ(TextTable::num(2.0), "2");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-1.25, 2), "-1.25");
  EXPECT_EQ(TextTable::num(0.999, 2), "1");
}

TEST(AsciiChart, RendersSeriesMarkersAndLegend) {
  AsciiChart chart("T", "x", "y", 20, 8);
  chart.add_series(ChartSeries{"s1", '*', {0.0, 1.0, 2.0}, {0.0, 1.0, 4.0}});
  const std::string out = chart.str();
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("s1"), std::string::npos);
  EXPECT_NE(out.find("T"), std::string::npos);
}

TEST(AsciiChart, IdentityLineUsesDots) {
  AsciiChart chart("T", "x", "y", 20, 8);
  chart.add_identity_line(4.0);
  const std::string out = chart.str();
  EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(AsciiChart, DataMarkerBeatsReferenceLine) {
  AsciiChart chart("T", "x", "y", 21, 9);
  chart.add_identity_line(2.0);
  chart.add_series(ChartSeries{"d", '#', {1.0}, {1.0}});
  // The '#' at (1,1) lands on the identity line and must win the cell.
  EXPECT_NE(chart.str().find('#'), std::string::npos);
}

TEST(CliParser, DefaultsAndOverrides) {
  CliParser cli("test");
  cli.add_flag("alpha", "10", "an int");
  cli.add_flag("beta", "x", "a string");
  const char* argv[] = {"prog", "--alpha=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("beta"), "x");
}

TEST(CliParser, SpaceSeparatedValues) {
  CliParser cli("test");
  cli.add_flag("gamma", "0", "");
  const char* argv[] = {"prog", "--gamma", "3.5"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 3.5);
}

TEST(CliParser, UnknownFlagFailsParse) {
  CliParser cli("test");
  cli.add_flag("known", "1", "");
  const char* argv[] = {"prog", "--unknown=2"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliParser, BareFlagReadsAsBooleanTrue) {
  CliParser cli("test");
  cli.add_flag("k", "false", "");
  cli.add_flag("v", "0", "");
  const char* argv[] = {"prog", "--k", "--v", "7"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_TRUE(cli.get_bool("k"));
  EXPECT_EQ(cli.get_int("v"), 7);
}

TEST(CliParser, TrailingBareFlagReadsAsBooleanTrue) {
  CliParser cli("test");
  cli.add_flag("k", "false", "");
  const char* argv[] = {"prog", "--k"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("k"));
}

TEST(CliParser, HelpReturnsFalseAndUsageListsFlags) {
  CliParser cli("my tool");
  cli.add_flag("threads", "4", "worker threads");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.usage().find("threads"), std::string::npos);
  EXPECT_NE(cli.usage().find("worker threads"), std::string::npos);
}

TEST(CliParser, HelpExitsZeroAndUsageErrorsExitTwo) {
  const auto exit_code_for = [](std::vector<const char*> argv) {
    CliParser cli("t");
    cli.add_flag("known", "1", "");
    argv.insert(argv.begin(), "prog");
    EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    return cli.exit_code();
  };
  testing::internal::CaptureStdout();
  EXPECT_EQ(exit_code_for({"--help"}), 0);
  EXPECT_EQ(exit_code_for({"-h"}), 0);
  EXPECT_EQ(exit_code_for({"--known=2", "-h"}), 0);
  (void)testing::internal::GetCapturedStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(exit_code_for({"--unknown=2"}), 2);
  EXPECT_EQ(exit_code_for({"positional"}), 2);
  EXPECT_EQ(exit_code_for({"--unknown", "--help"}), 2);
  (void)testing::internal::GetCapturedStderr();
}

TEST(CliParser, BoolParsing) {
  CliParser cli("t");
  cli.add_flag("a", "true", "");
  cli.add_flag("b", "0", "");
  cli.add_flag("c", "yes", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
}

/// Parses `--<flag> <value>` for one flag of each type.
CliParser parsed_with(const char* flag, const char* value) {
  CliParser cli("t");
  cli.add_flag("jobs", "0", "");
  cli.add_flag("timeout", "1.0", "");
  cli.add_flag("counters", "false", "");
  const char* argv[] = {"prog", flag, value};
  EXPECT_TRUE(cli.parse(3, argv));
  return cli;
}

TEST(CliParserDeathTest, MalformedIntExitsTwo) {
  for (const char* v : {"abc", "2x", "1e3", "1.5", ""}) {
    const CliParser cli = parsed_with("--jobs", v);
    EXPECT_EXIT((void)cli.get_int("jobs"), ::testing::ExitedWithCode(2),
                "error: --jobs needs an integer")
        << "value '" << v << "'";
  }
  EXPECT_EQ(parsed_with("--jobs", "-3").get_int("jobs"), -3);
}

TEST(CliParserDeathTest, MalformedDoubleExitsTwo) {
  for (const char* v : {"abc", "0.2s", "nan", "inf", ""}) {
    const CliParser cli = parsed_with("--timeout", v);
    EXPECT_EXIT((void)cli.get_double("timeout"), ::testing::ExitedWithCode(2),
                "error: --timeout needs a finite number")
        << "value '" << v << "'";
  }
  EXPECT_DOUBLE_EQ(parsed_with("--timeout", "1e3").get_double("timeout"),
                   1000.0);
}

TEST(CliParserDeathTest, MalformedBoolExitsTwo) {
  const CliParser cli = parsed_with("--counters", "maybe");
  EXPECT_EXIT((void)cli.get_bool("counters"), ::testing::ExitedWithCode(2),
              "error: --counters needs true/false");
}

}  // namespace
}  // namespace tc3i
