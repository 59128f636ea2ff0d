// Equivalence tests for the AND-popcount kernels (util/bitops.h): the
// portable variant, the POPCNT variant and the dispatched entry points
// must all match a per-bit reference count, for both arities.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "util/bitops.h"

namespace crowd::util {
namespace {

using Row = std::vector<uint64_t>;

size_t ReferenceCount(const Row& a, const Row& b, const Row* c) {
  size_t count = 0;
  for (size_t w = 0; w < a.size(); ++w) {
    for (int bit = 0; bit < 64; ++bit) {
      const uint64_t mask = uint64_t{1} << bit;
      if ((a[w] & mask) && (b[w] & mask) &&
          (c == nullptr || ((*c)[w] & mask))) {
        ++count;
      }
    }
  }
  return count;
}

enum class Fill { kZero, kOnes, kAlternating, kAlternatingInverse, kRandom };

Row MakeRow(Fill fill, size_t words, std::mt19937_64* gen) {
  Row row(words);
  for (uint64_t& word : row) {
    switch (fill) {
      case Fill::kZero: word = 0; break;
      case Fill::kOnes: word = ~uint64_t{0}; break;
      case Fill::kAlternating: word = 0xAAAAAAAAAAAAAAAAull; break;
      case Fill::kAlternatingInverse: word = 0x5555555555555555ull; break;
      case Fill::kRandom: word = (*gen)(); break;
    }
  }
  return row;
}

constexpr Fill kFills[] = {Fill::kZero, Fill::kOnes, Fill::kAlternating,
                           Fill::kAlternatingInverse, Fill::kRandom};

using TwoRowKernel = size_t (*)(const uint64_t*, const uint64_t*, size_t);
using ThreeRowKernel = size_t (*)(const uint64_t*, const uint64_t*,
                                  const uint64_t*, size_t);

// Every fill combination over word counts 0..130 (empty rows
// included), each row sized exactly so a sanitizer build catches any
// over-read.
void CheckKernels(TwoRowKernel two, ThreeRowKernel three) {
  std::mt19937_64 gen(20150413);
  for (size_t words = 0; words <= 130; ++words) {
    for (Fill fa : kFills) {
      for (Fill fb : kFills) {
        const Row a = MakeRow(fa, words, &gen);
        const Row b = MakeRow(fb, words, &gen);
        const std::string where = "words=" + std::to_string(words) +
                                  " fills=" + std::to_string(int(fa)) +
                                  "," + std::to_string(int(fb));
        ASSERT_EQ(two(a.data(), b.data(), words),
                  ReferenceCount(a, b, nullptr))
            << where;
        for (Fill fc : kFills) {
          const Row c = MakeRow(fc, words, &gen);
          ASSERT_EQ(three(a.data(), b.data(), c.data(), words),
                    ReferenceCount(a, b, &c))
              << where << "," << int(fc);
        }
      }
    }
  }
}

TEST(Bitops, PortableMatchesReference) {
  CheckKernels(bitops_internal::AndPopcountPortable,
               bitops_internal::AndPopcountPortable);
}

TEST(Bitops, PopcntMatchesReference) {
  if (!bitops_internal::HasPopcnt()) {
    GTEST_SKIP() << "no POPCNT variant on this CPU or architecture";
  }
  CheckKernels(bitops_internal::AndPopcountPopcnt,
               bitops_internal::AndPopcountPopcnt);
}

TEST(Bitops, DispatchedMatchesReference) {
  CheckKernels(AndPopcount, AndPopcount);
}

}  // namespace
}  // namespace crowd::util
