// Tests for the common runtime: RNG, stats, CSV, CLI, plotting, errors.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/ascii_plot.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"

namespace {

using namespace qarch;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
  EXPECT_THROW(rng.uniform_int(0), Error);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(21);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(5);
  const auto p = rng.permutation(50);
  std::set<std::size_t> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 50u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(3);
  Rng child = parent.split();
  // The child stream must not replay the parent stream.
  Rng parent2(3);
  parent2.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child() == parent()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Stats, MeanStdMedian) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944487, 1e-9);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 4.0);
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
}

TEST(Stats, SingletonAndEmpty) {
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(stddev(one), 0.0);
  const std::vector<double> none;
  EXPECT_THROW(mean(none), Error);
}

TEST(Csv, WritesEscapedRows) {
  const std::string path = "/tmp/qarch_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.row(std::vector<std::string>{"plain", "needs,\"quotes\""});
    w.row(std::vector<double>{1.5, 2.0});
    w.close();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"needs,\"\"quotes\"\"\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsWidthMismatch) {
  CsvWriter w("/tmp/qarch_csv_test2.csv", {"x"});
  EXPECT_THROW(w.row(std::vector<std::string>{"a", "b"}), Error);
  std::filesystem::remove("/tmp/qarch_csv_test2.csv");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--n", "10", "--flag", "--p=0.5", "file.txt"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), 10);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.5);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.txt");
}

TEST(Cli, RejectsNonNumericValues) {
  const char* argv[] = {"prog", "--n", "abc"};
  Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), Error);
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  AsciiPlot plot("title", "x", "y");
  plot.add({"s1", {1, 2, 3}, {1, 4, 9}});
  plot.add({"s2", {1, 2, 3}, {9, 4, 1}});
  const std::string out = plot.render(32, 8);
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("s1"), std::string::npos);
  EXPECT_NE(out.find("s2"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
}

TEST(AsciiPlot, BarChartScalesWithinRange) {
  const std::string out =
      ascii_barh("bars", {{"a", 0.5}, {"b", 1.0}}, 10, 0.0, 1.0);
  // b's bar must be longer than a's.
  const auto pa = out.find("a |");
  const auto pb = out.find("b |");
  ASSERT_NE(pa, std::string::npos);
  ASSERT_NE(pb, std::string::npos);
  const auto count_hashes = [&](std::size_t from) {
    std::size_t c = 0;
    for (std::size_t i = from; i < out.size() && out[i] != '\n'; ++i)
      if (out[i] == '#') ++c;
    return c;
  };
  EXPECT_LT(count_hashes(pa), count_hashes(pb));
}

TEST(ErrorMacros, CheckAndRequireThrowDistinctTypes) {
  EXPECT_THROW(QARCH_REQUIRE(false, "msg"), InvalidArgument);
  EXPECT_THROW(QARCH_CHECK(false, "msg"), InternalError);
  EXPECT_NO_THROW(QARCH_REQUIRE(true, ""));
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Just verify monotonicity and reset.
  const double t1 = t.seconds();
  const double t2 = t.seconds();
  EXPECT_GE(t2, t1);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
