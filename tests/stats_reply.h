// Reads one counter out of a STATS reply, so tests check the values an
// operator sees on the wire.

#ifndef CROWD_TESTS_STATS_REPLY_H_
#define CROWD_TESTS_STATS_REPLY_H_

#include <cstdint>
#include <cstdlib>
#include <string>

#include "gtest/gtest.h"

namespace crowd::server {

/// The non-negative integer `key` of `reply`, the JSON line a STATS
/// command returned. A missing key is a test failure and reads as
/// UINT64_MAX.
inline uint64_t StatField(const std::string& reply, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = reply.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing from " << reply;
  if (pos == std::string::npos) return UINT64_MAX;
  return std::strtoull(reply.c_str() + pos + needle.size(), nullptr, 10);
}

}  // namespace crowd::server

#endif  // CROWD_TESTS_STATS_REPLY_H_
