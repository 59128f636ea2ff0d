// Unit tests for the util module: Status/Result, string helpers, CSV,
// log-line formatting (text + JSON modes), the JSON writer, whose
// output is compared with the printf forms of tests/json_reference.h,
// and the scheduler-slice guard.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "json_reference.h"
#include "rng/random.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/scheduler_slice.h"
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

// ---- util/json.h against the printf oracle ---------------------------

// The printf conversion that each to_chars form must reproduce.
struct NumberForm {
  const char* printf_format;
  std::chars_format format;
  int precision;
};

constexpr NumberForm kNumberForms[] = {
    {"%.17g", std::chars_format::general, 17},  // JSON replies
    {"%g", std::chars_format::general, 6},      // Prometheus bounds
    {"%.3f", std::chars_format::fixed, 3},      // chrome-trace times
    {"%.6f", std::chars_format::fixed, 6},      // log timestamps
};

std::string WriterForm(const NumberForm& form, double v) {
  std::string out;
  json::AppendChars(&out, v, form.format, form.precision);
  return out;
}

std::string WriterJson(double v) {
  std::string out;
  json::Append(&out, v);
  return out;
}

// Compares by memcmp so a difference in any byte, the length included,
// counts; reports the first mismatch only.
void ExpectSameBytes(const std::string& got, const std::string& want,
                     const char* what, double v, size_t* mismatches) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), got.size()) == 0) {
    return;
  }
  if ((*mismatches)++ == 0) {
    ADD_FAILURE() << what << " of bits 0x" << std::hex
                  << std::bit_cast<uint64_t>(v) << ": writer \"" << got
                  << "\" vs printf \"" << want << "\"";
  }
}

TEST(JsonWriter, RandomBitPatternsMatchPrintf) {
  // Raw 64-bit patterns cover every exponent, subnormals and the
  // non-finite values alike.
  Random rng(20261020);
  size_t mismatches = 0;
  constexpr int kDoubles = 1 << 20;
  for (int i = 0; i < kDoubles; ++i) {
    const double v = std::bit_cast<double>(rng.NextUint64());
    ExpectSameBytes(WriterJson(v), ReferenceJsonDouble(v), "JSON", v,
                    &mismatches);
    // Every 64th value also goes through the other three forms (fixed
    // notation prints up to 309 integer digits, which printf is slow
    // at); non-finite values never reach them in the program.
    if (i % 64 != 0 || !std::isfinite(v)) continue;
    for (const NumberForm& form : kNumberForms) {
      ExpectSameBytes(WriterForm(form, v),
                      ReferenceFormat(form.printf_format, v),
                      form.printf_format, v, &mismatches);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriter, TimeScaleDoublesMatchPrintf) {
  // The magnitudes that the fixed forms print: trace times in
  // microseconds and log timestamps in seconds since the epoch, with
  // the mantissa's low bits random.
  Random rng(1411);
  size_t mismatches = 0;
  for (int i = 0; i < (1 << 17); ++i) {
    const double v =
        std::ldexp(rng.NextDouble(), static_cast<int>(rng.UniformInt(48)));
    for (const NumberForm& form : kNumberForms) {
      ExpectSameBytes(WriterForm(form, v),
                      ReferenceFormat(form.printf_format, v),
                      form.printf_format, v, &mismatches);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonWriter, EdgeDoublesMatchPrintf) {
  std::vector<double> values = {
      0.0,
      DBL_MIN,
      DBL_MAX,
      DBL_TRUE_MIN,
      DBL_MIN - DBL_TRUE_MIN,  // largest subnormal
      std::bit_cast<double>(uint64_t{0x0008000000000001}),
      DBL_EPSILON,
      0.1,
      1.0 / 3.0,
      1e21,
      1e-7,
      123456.5,
      0.0005,  // %.3f rounds a tie
      0.0000005,
      999999.5,
      1e16,
      5e-324,
      std::numeric_limits<double>::infinity(),
  };
  for (int k = -4; k <= 4; ++k) {
    values.push_back(9007199254740992.0 + k);  // 2^53 + k
  }
  const size_t count = values.size();
  for (size_t i = 0; i < count; ++i) values.push_back(-values[i]);

  size_t mismatches = 0;
  for (double v : values) {
    ExpectSameBytes(WriterJson(v), ReferenceJsonDouble(v), "JSON", v,
                    &mismatches);
    for (const NumberForm& form : kNumberForms) {
      ExpectSameBytes(WriterForm(form, v),
                      ReferenceFormat(form.printf_format, v),
                      form.printf_format, v, &mismatches);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(WriterJson(-0.0), "-0");
  EXPECT_EQ(WriterJson(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(WriterJson(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(WriterJson(std::bit_cast<double>(uint64_t{0x7FF800000000BEEF})),
            "null");
}

TEST(JsonWriter, IntegersMatchPrintf) {
  std::string out;
  json::Append(&out, std::numeric_limits<uint64_t>::max(), " ",
               std::numeric_limits<int64_t>::min(), " ", int64_t{-1}, " ",
               size_t{0}, " ", std::numeric_limits<int>::max(), " ",
               uint32_t{4294967295u});
  EXPECT_EQ(out, ReferenceFormat("%llu %lld %lld %zu %d %u",
                                 std::numeric_limits<unsigned long long>::max(),
                                 std::numeric_limits<long long>::min(), -1LL,
                                 size_t{0}, std::numeric_limits<int>::max(),
                                 4294967295u));
}

TEST(JsonWriter, PartsAppendByType) {
  std::string out = "x";
  json::Append(&out, "{\"a\":", size_t{7}, ",\"b\":", 0.25, ",\"c\":", true,
               ",\"d\":", json::Quoted{"q\"\n"}, ",\"e\":", 1e300 * 1e300,
               "}");
  EXPECT_EQ(out, "x{\"a\":7,\"b\":0.25,\"c\":true,\"d\":\"q\\\"\\n\","
                 "\"e\":null}");
  out.clear();
  json::AppendArray(&out, 3, [&](size_t i) { json::Append(&out, i * 2); });
  EXPECT_EQ(out, "[0,2,4]");
  out.clear();
  json::AppendArray(&out, 0, [&](size_t) { out += "never"; });
  EXPECT_EQ(out, "[]");
}

TEST(JsonWriter, EscapeMatchesReferenceOnEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  std::string out;
  json::AppendEscaped(&out, all);
  EXPECT_EQ(out, ReferenceJsonEscape(all));

  Random rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text(rng.UniformInt(40), '\0');
    for (char& c : text) {
      // Mostly the bytes that need escaping, some plain ones.
      c = static_cast<char>(rng.UniformInt(2) == 0 ? rng.UniformInt(0x24)
                                                   : rng.UniformInt(256));
    }
    out.clear();
    json::AppendEscaped(&out, text);
    ASSERT_EQ(out, ReferenceJsonEscape(text)) << trial;
  }
}

TEST(Logging, JsonLinesMatchReference) {
  struct Level {
    LogLevel level;
    const char* name;
  };
  const Level levels[] = {{LogLevel::kDebug, "DEBUG"},
                          {LogLevel::kInfo, "INFO"},
                          {LogLevel::kWarning, "WARN"},
                          {LogLevel::kError, "ERROR"},
                          {LogLevel::kFatal, "FATAL"}};
  Random rng(11);
  for (int trial = 0; trial < 5000; ++trial) {
    const Level& level = levels[rng.UniformInt(5)];
    std::string message(rng.UniformInt(60), '\0');
    for (char& c : message) c = static_cast<char>(rng.UniformInt(128));
    // Wall-clock seconds with a random fraction, around today's epoch.
    const double ts = 1.7e9 + rng.Uniform(0.0, 1e8);
    const int line = static_cast<int>(rng.UniformInt(100000));
    const char* file = trial % 2 == 0 ? "src/server/service.cc" : "a\"b.cc";
    EXPECT_EQ(internal::FormatLogLine(LogFormat::kJson, level.level, file,
                                      line, message, ts),
              ReferenceJsonLogLine(level.name, file, line, message, ts))
        << trial;
  }
}

constexpr uint64_t kShortSlice = util::ShortSchedulerSlice::kSliceNanos;

util::SchedAttr ReadSchedAttr() {
  util::SchedAttr attr;
  EXPECT_TRUE(util::GetSchedAttr(&attr));
  return attr;
}

// Whether a guard's slice reads back: custom fair-class slices need
// Linux 6.12, and a seccomp filter may refuse the calls.
bool KernelTakesShortSlice() {
  util::ShortSchedulerSlice guard;
  util::SchedAttr attr;
  return util::GetSchedAttr(&attr) && attr.sched_runtime == kShortSlice;
}

constexpr const char* kNoShortSlice =
    "the kernel does not read back a 100 us slice (custom slices need "
    "Linux 6.12)";

// What the guard must leave as it found it. `before` must not be on
// the short slice already, or a guard (the probe's included) that
// restores nothing would go unnoticed.
void ExpectSameSchedule(const util::SchedAttr& before,
                        const util::SchedAttr& after) {
  EXPECT_NE(before.sched_runtime, kShortSlice);
  EXPECT_EQ(after.sched_policy, before.sched_policy);
  EXPECT_EQ(after.sched_nice, before.sched_nice);
  EXPECT_EQ(after.sched_runtime, before.sched_runtime);
}

TEST(ShortSchedulerSlice, ShortensOnlyTheSliceAndRestoresIt) {
  if (!KernelTakesShortSlice()) GTEST_SKIP() << kNoShortSlice;
  const util::SchedAttr before = ReadSchedAttr();
  {
    util::ShortSchedulerSlice guard;
    const util::SchedAttr inside = ReadSchedAttr();
    EXPECT_EQ(inside.sched_runtime, kShortSlice);
    EXPECT_EQ(inside.sched_policy, before.sched_policy);
    EXPECT_EQ(inside.sched_nice, before.sched_nice);
  }
  ExpectSameSchedule(before, ReadSchedAttr());
}

TEST(ShortSchedulerSlice, RestoresWhenTheBodyThrows) {
  if (!KernelTakesShortSlice()) GTEST_SKIP() << kNoShortSlice;
  const util::SchedAttr before = ReadSchedAttr();
  try {
    util::ShortSchedulerSlice guard;
    EXPECT_EQ(ReadSchedAttr().sched_runtime, kShortSlice);
    throw std::runtime_error("evaluation threw");
  } catch (const std::runtime_error&) {
  }
  ExpectSameSchedule(before, ReadSchedAttr());
}

TEST(ShortSchedulerSlice, RestoresANiceFiveThread) {
  if (!KernelTakesShortSlice()) GTEST_SKIP() << kNoShortSlice;
  // Raising nice needs no privilege but cannot be undone without one,
  // so the test thread is its own.
  util::SchedAttr before, inside, after;
  std::thread([&] {
    ASSERT_EQ(setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 5), 0);
    before = ReadSchedAttr();
    {
      util::ShortSchedulerSlice guard;
      inside = ReadSchedAttr();
    }
    after = ReadSchedAttr();
  }).join();
  EXPECT_EQ(before.sched_nice, 5);
  EXPECT_EQ(inside.sched_nice, 5);
  EXPECT_EQ(inside.sched_runtime, kShortSlice);
  ExpectSameSchedule(before, after);
}

TEST(ShortSchedulerSlice, RestoresACustomSliceWhenNested) {
  if (!KernelTakesShortSlice()) GTEST_SKIP() << kNoShortSlice;
  const util::SchedAttr before = ReadSchedAttr();
  {
    util::ShortSchedulerSlice outer;
    {
      // The inner guard finds a custom slice, not the kernel default.
      util::ShortSchedulerSlice inner;
    }
    EXPECT_EQ(ReadSchedAttr().sched_runtime, kShortSlice);
  }
  ExpectSameSchedule(before, ReadSchedAttr());
}

TEST(ShortSchedulerSlice, ThreadStartedInsideInheritsTheSlice) {
  if (!KernelTakesShortSlice()) GTEST_SKIP() << kNoShortSlice;
  util::SchedAttr helper;
  {
    util::ShortSchedulerSlice guard;
    std::thread([&] { helper = ReadSchedAttr(); }).join();
  }
  EXPECT_EQ(helper.sched_runtime, kShortSlice);
}

}  // namespace
}  // namespace crowd
