// Equivalence tests for the bitset kernels (util/bitops.h): the
// portable variants, the POPCNT, AVX-512 and PEXT variants and the
// dispatched entry points must all match a per-bit reference: the
// AND-popcounts of both arities, the pair-count table and the gather.

#include <gtest/gtest.h>

#include <algorithm>
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

using PairsKernel = void (*)(const uint64_t*, size_t, size_t, uint32_t*);

// Every pair a < b of up to 40 rows (full and partial blocks of four
// rows, and of the AVX-512 variant's 8-row vectors and 16-row passes),
// over word counts 0..20, against the two-row AndPopcount; the cells at
// and below the diagonal must keep the sentinel the table was filled
// with.
void CheckPairs(PairsKernel pairs) {
  constexpr uint32_t kSentinel = 0xDEADBEEF;
  std::mt19937_64 gen(7);
  for (size_t words = 0; words <= 20; ++words) {
    for (size_t num_rows = 0; num_rows <= 40; ++num_rows) {
      Row rows(num_rows * words);
      for (size_t r = 0; r < num_rows; ++r) {
        const Row row = MakeRow(kFills[(r + words) % 5], words, &gen);
        std::copy(row.begin(), row.end(), rows.begin() + r * words);
      }
      std::vector<uint32_t> table(num_rows * num_rows, kSentinel);
      pairs(rows.data(), num_rows, words, table.data());
      for (size_t a = 0; a < num_rows; ++a) {
        for (size_t b = 0; b < num_rows; ++b) {
          const uint32_t want =
              a < b ? static_cast<uint32_t>(AndPopcount(
                          rows.data() + a * words, rows.data() + b * words,
                          words))
                    : kSentinel;
          ASSERT_EQ(table[a * num_rows + b], want)
              << "words=" << words << " rows=" << num_rows << " (" << a
              << ", " << b << ")";
        }
      }
    }
  }
}

TEST(BitopsPairs, PortableMatchesAndPopcount) {
  CheckPairs(bitops_internal::AndPopcountPairsPortable);
}

TEST(BitopsPairs, PopcntMatchesAndPopcount) {
  if (!bitops_internal::HasPopcnt()) {
    GTEST_SKIP() << "no POPCNT variant on this CPU or architecture";
  }
  CheckPairs(bitops_internal::AndPopcountPairsPopcnt);
}

TEST(BitopsPairs, Avx512MatchesAndPopcount) {
  if (!bitops_internal::HasAvx512Popcnt()) {
    GTEST_SKIP() << "no AVX-512 VPOPCNTDQ variant on this CPU or architecture";
  }
  CheckPairs(bitops_internal::AndPopcountPairsAvx512);
}

TEST(BitopsPairs, DispatchedMatchesAndPopcount) {
  CheckPairs(AndPopcountPairs);
}

// Bit r of the result is src's bit at mask's r-th set position.
Row ReferenceGather(const Row& src, const Row& mask) {
  Row out;
  size_t r = 0;
  for (size_t w = 0; w < mask.size(); ++w) {
    for (int bit = 0; bit < 64; ++bit) {
      if (!((mask[w] >> bit) & 1)) continue;
      if (r % 64 == 0) out.push_back(0);
      out.back() |= ((src[w] >> bit) & uint64_t{1}) << (r % 64);
      ++r;
    }
  }
  return out;
}

// A mask whose last word keeps only its low `tail` bits (tail 0 = the
// whole word), as an attempt row of n % 64 == tail tasks ends.
Row RaggedMask(Fill fill, size_t words, unsigned tail, std::mt19937_64* gen) {
  Row mask = MakeRow(fill, words, gen);
  if (words > 0 && tail != 0) mask.back() &= (uint64_t{1} << tail) - 1;
  return mask;
}

using GatherKernel = size_t (*)(const uint64_t*, const uint64_t*, size_t,
                                uint64_t*);

// Every mask fill (all-zero words, full words, alternating, random, and
// random masks with zeroed words mixed in) against every source fill,
// over word counts 0..70 and ragged tails. The output buffer is sized
// exactly, so a sanitizer build catches a write past the last word.
void CheckGather(GatherKernel gather) {
  std::mt19937_64 gen(20150414);
  for (size_t words = 0; words <= 70; ++words) {
    for (unsigned tail : {0u, 1u, 17u, 63u}) {
      for (Fill fm : kFills) {
        for (Fill fs : kFills) {
          Row mask = RaggedMask(fm, words, tail, &gen);
          if (fm == Fill::kRandom) {
            for (size_t w = 0; w < words; w += 3) mask[w] = 0;
          }
          const Row src = MakeRow(fs, words, &gen);
          const Row want = ReferenceGather(src, mask);
          Row got(want.size());
          const std::string where =
              "words=" + std::to_string(words) + " tail=" +
              std::to_string(tail) + " fills=" + std::to_string(int(fm)) +
              "," + std::to_string(int(fs));
          ASSERT_EQ(gather(src.data(), mask.data(), words, got.data()),
                    want.size())
              << where;
          ASSERT_EQ(got, want) << where;
        }
      }
    }
  }
}

TEST(BitopsGather, PortableMatchesReference) {
  CheckGather(bitops_internal::GatherBitsPortable);
}

TEST(BitopsGather, PextMatchesReference) {
  if (!bitops_internal::HasBmi2()) {
    GTEST_SKIP() << "no PEXT variant on this CPU or architecture";
  }
  CheckGather(bitops_internal::GatherBitsPext);
}

TEST(BitopsGather, DispatchedMatchesReference) {
  CheckGather(GatherBits);
}

}  // namespace
}  // namespace crowd::util
