// Fuzz harness for the crowdevald wire-protocol parser
// (server/protocol.{h,cc}).
//
// Contract under arbitrary bytes:
//  - ParseCommand returns a Result: a well-formed Command or a non-OK
//    Status. It never crashes, over-reads, or leaks.
//  - On success the command type is one of the known verbs and RESP /
//    EVAL operands survived strict integer parsing.
//  - JsonEscape output never contains an unescaped control character
//    or quote, so any parse error message embeds cleanly in the
//    one-line JSON error reply.
//  - The input's first 8 bytes, read as a double, serialize through
//    JsonDouble to exactly the bytes of the printf %.17g reference
//    (tests/json_reference.h), non-finite values as null.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "../tests/json_reference.h"
#include "fuzz_util.h"
#include "server/protocol.h"

namespace {

using crowd::server::Command;
using crowd::server::CommandType;

bool KnownType(CommandType type) {
  switch (type) {
    case CommandType::kResp:
    case CommandType::kEval:
    case CommandType::kEvalAll:
    case CommandType::kSpammers:
    case CommandType::kStats:
    case CommandType::kMetrics:
    case CommandType::kSnapshot:
    case CommandType::kQuit:
      return true;
  }
  return false;
}

void CheckEscaped(const std::string& text) {
  for (size_t i = 0; i < text.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    FUZZ_ASSERT(c >= 0x20);  // control bytes must be \uXXXX-escaped
    if (c == '"') {
      // Only the escaping backslash may precede a quote; JsonEscape's
      // callers wrap the result in quotes themselves, so a bare quote
      // would truncate the JSON string.
      FUZZ_ASSERT(i > 0 && text[i - 1] == '\\');
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view line = crowd::fuzz::AsText(data, size);

  auto command = crowd::server::ParseCommand(line);
  if (command.ok()) {
    FUZZ_ASSERT(KnownType(command->type));
  } else {
    FUZZ_ASSERT(!command.status().ok());
    FUZZ_ASSERT(!command.status().message().empty());
    // The error must serialize into one clean JSON line: no raw
    // newlines or unescaped quotes even when the message embeds the
    // offending input.
    std::string reply = crowd::server::ErrorJson(command.status());
    FUZZ_ASSERT(!reply.empty() && reply.front() == '{' &&
                reply.back() == '}');
    FUZZ_ASSERT(reply.find('\n') == std::string::npos);
  }

  CheckEscaped(crowd::server::JsonEscape(line));
  FUZZ_ASSERT(crowd::server::JsonEscape(line) ==
              crowd::ReferenceJsonEscape(line));

  if (size >= sizeof(double)) {
    double v = 0.0;
    std::memcpy(&v, data, sizeof(v));
    FUZZ_ASSERT(crowd::server::JsonDouble(v) ==
                crowd::ReferenceJsonDouble(v));
  }
  return 0;
}
