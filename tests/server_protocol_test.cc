// Tests for the crowdevald wire protocol: command parsing and the JSON
// serializers shared by the daemon and the CLI's --format=json mode,
// whose whole replies are compared byte for byte with the printf
// serializers kept in tests/json_reference.h.

#include "server/protocol.h"

#include <cstdlib>
#include <limits>

#include "core/evaluator.h"
#include "core/m_worker.h"
#include "gtest/gtest.h"
#include "json_reference.h"
#include "rng/random.h"
#include "sim/simulator.h"
#include "util/status.h"

namespace crowd::server {
namespace {

TEST(ParseCommandTest, RespHappyPath) {
  auto cmd = ParseCommand("RESP 3 17 1");
  ASSERT_TRUE(cmd.ok()) << cmd.status();
  EXPECT_EQ(cmd->type, CommandType::kResp);
  EXPECT_EQ(cmd->worker, 3u);
  EXPECT_EQ(cmd->task, 17u);
  EXPECT_EQ(cmd->value, 1);
}

TEST(ParseCommandTest, ToleratesTabsRepeatedSpacesAndTrailingCr) {
  auto cmd = ParseCommand("RESP\t3  17 \t 0\r");
  ASSERT_TRUE(cmd.ok()) << cmd.status();
  EXPECT_EQ(cmd->type, CommandType::kResp);
  EXPECT_EQ(cmd->worker, 3u);
  EXPECT_EQ(cmd->task, 17u);
  EXPECT_EQ(cmd->value, 0);
}

TEST(ParseCommandTest, RespArityChecked) {
  EXPECT_TRUE(ParseCommand("RESP 1 2").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("RESP 1 2 3 4").status().IsInvalid());
}

TEST(ParseCommandTest, RespRejectsNonNumericAndNegativeIds) {
  EXPECT_TRUE(ParseCommand("RESP x 2 1").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("RESP 1 -2 1").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("RESP 1 2 yes").status().IsInvalid());
}

TEST(ParseCommandTest, Eval) {
  auto cmd = ParseCommand("EVAL 7");
  ASSERT_TRUE(cmd.ok()) << cmd.status();
  EXPECT_EQ(cmd->type, CommandType::kEval);
  EXPECT_EQ(cmd->worker, 7u);
  EXPECT_TRUE(ParseCommand("EVAL").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("EVAL 1 2").status().IsInvalid());
}

TEST(ParseCommandTest, NullaryVerbs) {
  struct Case {
    const char* line;
    CommandType type;
  };
  const Case cases[] = {
      {"EVAL_ALL", CommandType::kEvalAll},
      {"SPAMMERS", CommandType::kSpammers},
      {"STATS", CommandType::kStats},
      {"SNAPSHOT", CommandType::kSnapshot},
      {"QUIT", CommandType::kQuit},
  };
  for (const Case& c : cases) {
    auto cmd = ParseCommand(c.line);
    ASSERT_TRUE(cmd.ok()) << c.line << ": " << cmd.status();
    EXPECT_EQ(cmd->type, c.type) << c.line;
    // Arguments on a nullary verb are an error, not silently dropped.
    auto with_arg = ParseCommand(std::string(c.line) + " 1");
    EXPECT_TRUE(with_arg.status().IsInvalid()) << c.line;
  }
}

TEST(ParseCommandTest, UnknownAndEmptyCommands) {
  EXPECT_TRUE(ParseCommand("FLUSH").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("   \t ").status().IsInvalid());
  EXPECT_TRUE(ParseCommand("resp 1 2 1").status().IsInvalid())
      << "verbs are case-sensitive";
}

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonDoubleTest, RoundTripsBitExactly) {
  const double values[] = {0.0,
                           1.0 / 3.0,
                           0.1,
                           -2.5e-17,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -123.456789012345678};
  for (double v : values) {
    std::string text = JsonDouble(v);
    double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(back, v) << text;
  }
}

TEST(JsonDoubleTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(-std::numeric_limits<double>::infinity()), "null");
}

TEST(SerializerTest, AssessmentJsonShape) {
  core::WorkerAssessment a;
  a.worker = 4;
  a.error_rate = 0.25;
  a.deviation = 0.5;
  a.interval = {0.1, 0.4, 0.95};
  a.num_triples = 6;
  a.any_clamped = true;
  EXPECT_EQ(AssessmentJson(a),
            "{\"worker\":4,\"error_rate\":0.25,\"deviation\":0.5,"
            "\"interval\":{\"lo\":0.10000000000000001,"
            "\"hi\":0.40000000000000002,\"confidence\":0.94999999999999996},"
            "\"num_triples\":6,\"any_clamped\":true}");
}

TEST(SerializerTest, FailureAndErrorJsonEscapeMessages) {
  Status st = Status::Invalid("bad \"input\"");
  std::string failure = FailureJson(2, st);
  EXPECT_NE(failure.find("\"worker\":2"), std::string::npos);
  EXPECT_NE(failure.find("bad \\\"input\\\""), std::string::npos);
  EXPECT_NE(failure.find(StatusCodeToString(st.code())),
            std::string::npos);

  std::string error = ErrorJson(st);
  EXPECT_NE(error.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(error.find("bad \\\"input\\\""), std::string::npos);
}

TEST(SerializerTest, MWorkerResultBodyJson) {
  core::MWorkerResult result;
  core::WorkerAssessment a;
  a.worker = 0;
  a.error_rate = 0.5;
  a.deviation = 0.0;
  a.interval = {0.25, 0.75, 0.9};
  a.num_triples = 1;
  result.assessments.push_back(a);
  result.failures.emplace_back(1, Status::InsufficientData("no triple"));
  std::string body = MWorkerResultBodyJson(result);
  EXPECT_EQ(body.find("\"assessments\":[{"), 0u);
  EXPECT_NE(body.find("\"failures\":[{\"worker\":1,"), std::string::npos);
  EXPECT_NE(body.find("no triple"), std::string::npos);
}

// ---- Whole replies against the printf oracle -------------------------

// A binary crowd with a few coin-flipping spammers and one worker who
// answered nothing (an evaluation failure).
sim::BinarySimOutput SimulatedCrowd(uint64_t seed) {
  Random rng(seed);
  sim::BinarySimConfig config;
  config.num_workers = 14;
  config.num_tasks = 240;
  config.pool.error_rates = {0.05, 0.15, 0.3};
  config.pool.spammer_fraction = 0.2;
  config.assignment = sim::AssignmentConfig::Iid(0.6);
  sim::BinarySimOutput sim = sim::SimulateBinary(config, &rng);
  for (data::TaskId t = 0; t < config.num_tasks; ++t) {
    sim.dataset.mutable_responses()->Clear(config.num_workers - 1, t);
  }
  return sim;
}

TEST(JsonOracle, EvalAllBodiesAndAssessmentsFromSimulatedCrowds) {
  size_t assessments = 0, failures = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const sim::BinarySimOutput sim = SimulatedCrowd(seed);
    auto result =
        core::MWorkerEvaluate(sim.dataset.responses(), core::BinaryOptions{});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(MWorkerResultBodyJson(*result),
              ReferenceMWorkerResultBodyJson(*result))
        << "seed " << seed;
    std::string appended = "x";
    AppendMWorkerResultBodyJson(&appended, *result);
    std::string want = "x";
    want += ReferenceMWorkerResultBodyJson(*result);
    EXPECT_EQ(appended, want);
    for (const core::WorkerAssessment& a : result->assessments) {
      EXPECT_EQ(AssessmentJson(a), ReferenceAssessmentJson(a));
    }
    assessments += result->assessments.size();
    failures += result->failures.size();
  }
  EXPECT_GT(assessments, 0u);
  EXPECT_GT(failures, 0u);
}

TEST(JsonOracle, AssessmentWithExtremeAndNonFiniteFields) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,  -0.0, 5e-324, 1.7976931348623157e308,
                           1e21, 1e-7, 0.5,    std::nan(""),
                           kInf, -kInf};
  for (double v : values) {
    core::WorkerAssessment a;
    a.worker = std::numeric_limits<data::WorkerId>::max();
    a.error_rate = v;
    a.deviation = -v;
    a.interval = {v, 1.0 - v, 0.95};
    a.num_triples = 1u << 31;
    a.any_clamped = v < 0.5;
    EXPECT_EQ(AssessmentJson(a), ReferenceAssessmentJson(a));
  }
}

TEST(JsonOracle, BinaryReportWithRemovedSpammers) {
  size_t removed = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const sim::BinarySimOutput sim = SimulatedCrowd(seed);
    core::CrowdEvaluator::Config config;
    config.prefilter_spammers = true;
    auto report =
        core::CrowdEvaluator(config).EvaluateBinary(sim.dataset.responses());
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(BinaryReportJson(*report), ReferenceBinaryReportJson(*report));
    removed += report->removed_spammers.size();
  }
  EXPECT_GT(removed, 0u);
}

TEST(JsonOracle, KaryResultFromSimulatedCrowds) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Random rng(seed);
    sim::KarySimConfig config;
    config.arity = 3;
    config.num_tasks = 600;
    auto sim = sim::SimulateKary(config, &rng);
    ASSERT_TRUE(sim.ok()) << sim.status();
    auto result = core::CrowdEvaluator().EvaluateKaryTriple(
        sim->dataset.responses(), 0, 1, 2);
    ASSERT_TRUE(result.ok()) << result.status();
    // Named workers, and too few names (the index stands in).
    for (const std::vector<data::WorkerId>& names :
         {std::vector<data::WorkerId>{17, 4, 2024},
          std::vector<data::WorkerId>{9}}) {
      EXPECT_EQ(KaryResultJson(*result, names),
                ReferenceKaryResultJson(*result, names));
    }
  }
}

TEST(JsonOracle, ErrorAndFailureWithControlCharacters) {
  std::string message;
  for (int c = 1; c < 256; ++c) message.push_back(static_cast<char>(c));
  message += std::string("\0nul", 4);
  const Status statuses[] = {
      Status::Invalid(message),
      Status::InsufficientData("tab\there \"quoted\" back\\slash"),
      Status::NumericalError("\x1f\x7f\r\n"),
      Status::IoError(""),
      Status::Internal("plain"),
      Status::NotFound("worker 3"),
  };
  for (const Status& st : statuses) {
    EXPECT_EQ(ErrorJson(st), ReferenceErrorJson(st));
    EXPECT_EQ(FailureJson(41, st), ReferenceFailureJson(41, st));
    EXPECT_EQ(JsonEscape(st.message()), ReferenceJsonEscape(st.message()));
  }
}

}  // namespace
}  // namespace crowd::server
