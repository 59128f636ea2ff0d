// Tests for the experiment harness: metrics, series/table rendering,
// gnuplot output and the repetition driver.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "experiments/metrics.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "experiments/series.h"
#include "util/csv.h"

namespace crowd::experiments {
namespace {

TEST(Metrics, AccuracyAndSize) {
  IntervalScore score;
  score.Add({0.1, 0.3, 0.9}, 0.2);   // Covered, size 0.2.
  score.Add({0.1, 0.3, 0.9}, 0.35);  // Missed.
  score.Add({0.0, 0.4, 0.9}, 0.4);   // Covered (boundary), size 0.4.
  EXPECT_EQ(score.total(), 3u);
  EXPECT_EQ(score.covered(), 2u);
  EXPECT_NEAR(score.Accuracy(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(score.MeanSize(), (0.2 + 0.2 + 0.4) / 3.0, 1e-12);
}

TEST(Metrics, MergeAndEmpty) {
  IntervalScore empty;
  EXPECT_DOUBLE_EQ(empty.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(empty.MeanSize(), 0.0);
  IntervalScore a, b;
  a.Add({0.0, 1.0, 0.9}, 0.5);
  b.Add({0.0, 0.1, 0.9}, 0.5);
  a.Merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.covered(), 1u);
}

TEST(Series, AddPointGroupsByLabel) {
  Figure figure;
  figure.AddPoint("a", 1.0, 2.0);
  figure.AddPoint("b", 1.0, 3.0);
  figure.AddPoint("a", 2.0, 4.0);
  ASSERT_EQ(figure.series.size(), 2u);
  EXPECT_EQ(figure.series[0].points.size(), 2u);
  EXPECT_EQ(figure.series[1].points.size(), 1u);
}

TEST(Series, RenderTableAlignsAndFillsGaps) {
  Figure figure;
  figure.name = "t";
  figure.title = "test";
  // Through std::string: GCC 12 at -O3 reports a false -Wrestrict on
  // assigning this one-character literal directly.
  figure.x_label = std::string("x");
  figure.AddPoint("alpha", 1.0, 0.5);
  figure.AddPoint("alpha", 2.0, 0.25);
  figure.AddPoint("beta", 2.0, 0.75);
  std::string table = RenderTable(figure, 2);
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("0.25"), std::string::npos);
  // Missing (beta, x=1) renders as "-".
  EXPECT_NE(table.find("-"), std::string::npos);
}

TEST(Series, GnuplotFileStructure) {
  Figure figure;
  figure.name = "gnuplot_test_fig";
  figure.title = "gp";
  figure.AddPoint("s1", 0.5, 1.5);
  figure.AddPoint("s1", 1.0, 2.5);
  std::string dir = testing::TempDir();
  ASSERT_TRUE(WriteGnuplotData(figure, dir).ok());
  auto contents = ReadFileToString(dir + "/gnuplot_test_fig.dat");
  ASSERT_TRUE(contents.ok());
  EXPECT_NE(contents->find("# x\ts1"), std::string::npos);
  EXPECT_NE(contents->find("0.5\t1.5"), std::string::npos);
  std::remove((dir + "/gnuplot_test_fig.dat").c_str());
}

TEST(Runner, ResolveRepsPrecedence) {
  unsetenv("CROWDEVAL_REPS");
  EXPECT_EQ(ResolveReps(42), 42);
  setenv("CROWDEVAL_REPS", "7", 1);
  EXPECT_EQ(ResolveReps(42), 7);
  const char* argv[] = {"prog", "--reps=13"};
  EXPECT_EQ(ResolveReps(42, 2, argv), 13);
  setenv("CROWDEVAL_REPS", "bogus", 1);
  EXPECT_EQ(ResolveReps(42), 42);
  unsetenv("CROWDEVAL_REPS");
}

TEST(Runner, RepeatTrialsIsDeterministicAndForksStreams) {
  std::vector<uint64_t> first_run, second_run;
  RepeatTrials(5, 99, [&](int, Random* rng) {
    first_run.push_back(rng->NextUint64());
  });
  RepeatTrials(5, 99, [&](int, Random* rng) {
    second_run.push_back(rng->NextUint64());
  });
  EXPECT_EQ(first_run, second_run);
  std::set<uint64_t> distinct(first_run.begin(), first_run.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(Runner, Grids) {
  auto confidences = ConfidenceGrid();
  ASSERT_EQ(confidences.size(), 19u);
  EXPECT_NEAR(confidences.front(), 0.05, 1e-12);
  EXPECT_NEAR(confidences.back(), 0.95, 1e-12);
  auto densities = DensityGrid();
  ASSERT_EQ(densities.size(), 10u);
  EXPECT_NEAR(densities.front(), 0.5, 1e-12);
  EXPECT_NEAR(densities.back(), 0.95, 1e-12);
}

}  // namespace
}  // namespace crowd::experiments
