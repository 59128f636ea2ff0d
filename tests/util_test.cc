// Unit tests for the util module: Status/Result, string helpers, CSV,
// and log-line formatting (text + JSON modes).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace crowd {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  Status st = Status::Invalid("bad thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  EXPECT_EQ(st.message(), "bad thing");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad thing");

  EXPECT_TRUE(Status::InsufficientData("x").IsInsufficientData());
  EXPECT_TRUE(Status::NumericalError("x").IsNumericalError());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::FilteredOut("x").IsFilteredOut());
  EXPECT_EQ(Status::FilteredOut("w2").ToString(), "Filtered out: w2");
}

TEST(Status, WithContextPrepends) {
  Status st = Status::IoError("open failed").WithContext("loading data");
  EXPECT_EQ(st.message(), "loading data: open failed");
  EXPECT_TRUE(Status::OK().WithContext("nothing").ok());
}

TEST(Status, CopyIsCheapAndEqualByCode) {
  Status a = Status::Invalid("one");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.message(), "one");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(Result, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> Doubler(Result<int> in) {
  CROWD_ASSIGN_OR_RETURN(int v, std::move(in));
  return 2 * v;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_TRUE(Doubler(Status::Invalid("x")).status().IsInvalid());
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("a=%d b=%.2f", 3, 1.5), "a=3 b=1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtil, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2e3 "), -2000.0);
  EXPECT_FALSE(ParseDouble("3.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("nope").ok());
}

TEST(StringUtil, ParseIntStrict) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("99999999999999999999999").ok());
}

TEST(StringUtil, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Csv, ParsesHeaderAndRows) {
  auto table = ParseCsv("# comment\nworker,task,response\n1,2,0\n3,4,1\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->header.size(), 3u);
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "1");
  EXPECT_EQ(*table->ColumnIndex("task"), 1u);
  EXPECT_TRUE(table->ColumnIndex("missing").status().IsNotFound());
}

TEST(Csv, RejectsRaggedRows) {
  EXPECT_TRUE(ParseCsv("a,b\n1\n").status().IsIoError());
}

TEST(Csv, RejectsEmptyInput) {
  EXPECT_TRUE(ParseCsv("").status().IsIoError());
  EXPECT_TRUE(ParseCsv("# only comments\n").status().IsIoError());
}

TEST(Csv, QuotedFieldsRoundTrip) {
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"a,b", "say \"hi\""}, {"plain", "words"}};
  auto parsed = ParseCsv(WriteCsv(table));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->rows[0][0], "a,b");
  EXPECT_EQ(parsed->rows[0][1], "say \"hi\"");
  EXPECT_EQ(parsed->rows[1][1], "words");
}

TEST(Csv, FileRoundTrip) {
  std::string path = testing::TempDir() + "/crowd_csv_test.csv";
  CsvTable table;
  table.header = {"x", "y"};
  table.rows = {{"1", "2"}, {"3", "4"}};
  ASSERT_TRUE(WriteCsvFile(table, path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rows, table.rows);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileIsIoError) {
  EXPECT_TRUE(ReadCsvFile("/nonexistent/path.csv").status().IsIoError());
}

TEST(Logging, TextFormatLine) {
  std::string line = internal::FormatLogLine(
      LogFormat::kText, LogLevel::kWarning, "src/core/foo.cc", 42,
      "something odd", 1722000000.25);
  EXPECT_EQ(line, "[WARN foo.cc:42] something odd\n");
}

TEST(Logging, JsonFormatLine) {
  std::string line = internal::FormatLogLine(
      LogFormat::kJson, LogLevel::kError, "src/core/foo.cc", 42,
      "boom", 1722000000.25);
  EXPECT_EQ(line,
            "{\"ts\":1722000000.250000,\"level\":\"ERROR\","
            "\"src\":\"foo.cc:42\",\"msg\":\"boom\"}\n");
}

TEST(Logging, JsonEscapesMessage) {
  std::string line = internal::FormatLogLine(
      LogFormat::kJson, LogLevel::kInfo, "a.cc", 1,
      "quote \" backslash \\ newline \n tab \t ctrl \x01 end", 0.0);
  EXPECT_NE(line.find("quote \\\" backslash \\\\ newline \\n tab \\t "
                      "ctrl \\u0001 end"),
            std::string::npos)
      << line;
  // One line out: the only '\n' is the terminator.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(Logging, FormatSwitchRoundTrips) {
  LogFormat before = GetLogFormat();
  SetLogFormat(LogFormat::kJson);
  EXPECT_EQ(GetLogFormat(), LogFormat::kJson);
  SetLogFormat(LogFormat::kText);
  EXPECT_EQ(GetLogFormat(), LogFormat::kText);
  SetLogFormat(before);
}

}  // namespace
}  // namespace crowd
