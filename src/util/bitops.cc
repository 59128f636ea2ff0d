#include "util/bitops.h"

#include <bit>
#include <limits>
#include <vector>

#include "util/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CROWD_BITOPS_X86 1
#include <immintrin.h>
#endif

namespace crowd::util {

namespace bitops_internal {

namespace {

// Appends bit fields to a packed output row: Append(v, n) places the
// n low bits of v (all higher bits zero) right after the previous
// field, and every completed 64-bit word is stored.
class BitAppender {
 public:
  explicit BitAppender(uint64_t* out) : out_(out) {}

  void Append(uint64_t v, unsigned n) {
    acc_ |= v << fill_;  // fill_ < 64 always
    fill_ += n;
    if (fill_ >= 64) {
      *out_++ = acc_;
      fill_ -= 64;
      // The bits of v that did not fit; none when the word started
      // empty (n == 64, and v >> 64 is undefined).
      acc_ = fill_ == 0 ? 0 : v >> (n - fill_);
    }
  }

  // Stores the last, partly filled word; returns the words written.
  size_t Finish(const uint64_t* begin) {
    if (fill_ != 0) *out_++ = acc_;
    return static_cast<size_t>(out_ - begin);
  }

 private:
  uint64_t* out_;
  uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

// The body of both AndPopcountPairs variants, inlined into each so
// `popcount` expands under the variant's target attribute. Row a runs
// against rows b..b+3 together: each word of a is loaded once for four
// counts, and the four sums are independent chains.
template <typename Popcount>
__attribute__((always_inline)) inline void PairsTable(
    const uint64_t* rows, size_t num_rows, size_t words, uint32_t* table,
    Popcount popcount) {
  for (size_t a = 0; a < num_rows; ++a) {
    const uint64_t* ra = rows + a * words;
    uint32_t* out = table + a * num_rows;
    size_t b = a + 1;
    for (; b + 4 <= num_rows; b += 4) {
      const uint64_t* r0 = rows + b * words;
      const uint64_t* r1 = r0 + words;
      const uint64_t* r2 = r1 + words;
      const uint64_t* r3 = r2 + words;
      uint32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
      for (size_t w = 0; w < words; ++w) {
        const uint64_t x = ra[w];
        c0 += popcount(x & r0[w]);
        c1 += popcount(x & r1[w]);
        c2 += popcount(x & r2[w]);
        c3 += popcount(x & r3[w]);
      }
      out[b] = c0;
      out[b + 1] = c1;
      out[b + 2] = c2;
      out[b + 3] = c3;
    }
    for (; b < num_rows; ++b) {
      const uint64_t* rb = rows + b * words;
      uint32_t count = 0;
      for (size_t w = 0; w < words; ++w) count += popcount(ra[w] & rb[w]);
      out[b] = count;
    }
  }
}

}  // namespace

size_t AndPopcountPortable(const uint64_t* a, const uint64_t* b,
                           size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

size_t AndPopcountPortable(const uint64_t* a, const uint64_t* b,
                           const uint64_t* c, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w] & c[w]));
  }
  return count;
}

void AndPopcountPairsPortable(const uint64_t* rows, size_t num_rows,
                              size_t words, uint32_t* table) {
  PairsTable(rows, num_rows, words, table, [](uint64_t x) {
    return static_cast<uint32_t>(std::popcount(x));
  });
}

size_t GatherBitsPortable(const uint64_t* src, const uint64_t* mask,
                          size_t words, uint64_t* out) {
  BitAppender appender(out);
  for (size_t w = 0; w < words; ++w) {
    uint64_t packed = 0;
    unsigned n = 0;
    for (uint64_t m = mask[w]; m != 0; m &= m - 1, ++n) {
      packed |= ((src[w] >> std::countr_zero(m)) & uint64_t{1}) << n;
    }
    appender.Append(packed, n);
  }
  return appender.Finish(out);
}

#ifdef CROWD_BITOPS_X86

bool HasPopcnt() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("popcnt") != 0;
}

bool HasBmi2() {
  __builtin_cpu_init();
  // AMD before Zen 3 runs PEXT in microcode, at tens of cycles per
  // instruction: slower there than the portable gather.
  if (__builtin_cpu_is("znver1") || __builtin_cpu_is("znver2")) {
    return false;
  }
  return __builtin_cpu_supports("bmi2") != 0 &&
         __builtin_cpu_supports("popcnt") != 0;
}

bool HasAvx512Popcnt() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0;
}

// The builtin, not std::popcount: the target attribute must reach the
// expansion itself, which an out-of-line std::popcount (-O0) would not.
__attribute__((target("popcnt"))) size_t AndPopcountPopcnt(
    const uint64_t* a, const uint64_t* b, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return count;
}

__attribute__((target("popcnt"))) size_t AndPopcountPopcnt(
    const uint64_t* a, const uint64_t* b, const uint64_t* c, size_t words) {
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(__builtin_popcountll(a[w] & b[w] & c[w]));
  }
  return count;
}

// Inlined into the target("popcnt") variant below, so the builtin
// expands to the POPCNT instruction there.
struct BuiltinPopcount {
  __attribute__((always_inline)) uint32_t operator()(uint64_t x) const {
    return static_cast<uint32_t>(__builtin_popcountll(x));
  }
};

__attribute__((target("popcnt"))) void AndPopcountPairsPopcnt(
    const uint64_t* rows, size_t num_rows, size_t words, uint32_t* table) {
  PairsTable(rows, num_rows, words, table, BuiltinPopcount{});
}

// Word w of eight consecutive rows b..b+7 sits in one vector of the
// transposed rows, so one VPOPCNTQ counts eight pairs (a, b) at once;
// two such vectors, 16 rows, share each broadcast word of row a. The
// transposed rows end in 16 zero rows, so a pass that starts at any
// b < num_rows loads in bounds with no mask; its stores drop the lanes
// past the last row.
__attribute__((target("avx512f,avx512vpopcntdq"))) void
AndPopcountPairsAvx512(const uint64_t* rows, size_t num_rows, size_t words,
                       uint32_t* table) {
  constexpr size_t kLanes = 8;
  constexpr size_t kVectors = 2;
  const size_t stride = num_rows + kVectors * kLanes;
  std::vector<uint64_t> columns(words * stride, 0);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t w = 0; w < words; ++w) {
      columns[w * stride + r] = rows[r * words + w];
    }
  }
  for (size_t a = 0; a < num_rows; ++a) {
    const uint64_t* ra = rows + a * words;
    uint32_t* out = table + a * num_rows;
    for (size_t b = a + 1; b < num_rows; b += kVectors * kLanes) {
      __m512i counts[kVectors] = {_mm512_setzero_si512(),
                                  _mm512_setzero_si512()};
      for (size_t w = 0; w < words; ++w) {
        const __m512i word = _mm512_set1_epi64(static_cast<long long>(ra[w]));
        const uint64_t* column = columns.data() + w * stride + b;
#pragma GCC unroll 2
        for (size_t v = 0; v < kVectors; ++v) {
          const __m512i bits = _mm512_and_si512(
              _mm512_loadu_si512(column + v * kLanes), word);
          counts[v] = _mm512_add_epi64(counts[v], _mm512_popcnt_epi64(bits));
        }
      }
      for (size_t v = 0; v < kVectors && b + v * kLanes < num_rows; ++v) {
        const size_t first = b + v * kLanes;
        const size_t left = num_rows - first;
        const __mmask8 lanes = static_cast<__mmask8>(
            left >= kLanes ? 0xFF : (1u << left) - 1);
        _mm512_mask_cvtepi64_storeu_epi32(out + first, lanes, counts[v]);
      }
    }
  }
}

__attribute__((target("bmi2,popcnt"))) size_t GatherBitsPext(
    const uint64_t* src, const uint64_t* mask, size_t words, uint64_t* out) {
  BitAppender appender(out);
  for (size_t w = 0; w < words; ++w) {
    appender.Append(_pext_u64(src[w], mask[w]),
                    static_cast<unsigned>(__builtin_popcountll(mask[w])));
  }
  return appender.Finish(out);
}

#else

bool HasPopcnt() { return false; }
bool HasBmi2() { return false; }
bool HasAvx512Popcnt() { return false; }

size_t AndPopcountPopcnt(const uint64_t* a, const uint64_t* b,
                         size_t words) {
  return AndPopcountPortable(a, b, words);
}

size_t AndPopcountPopcnt(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, size_t words) {
  return AndPopcountPortable(a, b, c, words);
}

void AndPopcountPairsPopcnt(const uint64_t* rows, size_t num_rows,
                            size_t words, uint32_t* table) {
  AndPopcountPairsPortable(rows, num_rows, words, table);
}

void AndPopcountPairsAvx512(const uint64_t* rows, size_t num_rows,
                            size_t words, uint32_t* table) {
  AndPopcountPairsPortable(rows, num_rows, words, table);
}

size_t GatherBitsPext(const uint64_t* src, const uint64_t* mask,
                      size_t words, uint64_t* out) {
  return GatherBitsPortable(src, mask, words, out);
}

#endif  // CROWD_BITOPS_X86

}  // namespace bitops_internal

namespace {

struct Kernels {
  size_t (*two)(const uint64_t*, const uint64_t*, size_t);
  size_t (*three)(const uint64_t*, const uint64_t*, const uint64_t*,
                  size_t);
  void (*pairs)(const uint64_t*, size_t, size_t, uint32_t*);
  size_t (*gather)(const uint64_t*, const uint64_t*, size_t, uint64_t*);
};

// Chosen on first use, so static initializers elsewhere may call the
// kernels too.
const Kernels& Selected() {
  using namespace bitops_internal;
  static const Kernels kernels = [] {
    Kernels k = HasPopcnt()
                    ? Kernels{AndPopcountPopcnt, AndPopcountPopcnt,
                              AndPopcountPairsPopcnt, GatherBitsPortable}
                    : Kernels{AndPopcountPortable, AndPopcountPortable,
                              AndPopcountPairsPortable, GatherBitsPortable};
    if (HasAvx512Popcnt()) k.pairs = AndPopcountPairsAvx512;
    if (HasBmi2()) k.gather = GatherBitsPext;
    return k;
  }();
  return kernels;
}

}  // namespace

size_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t words) {
  return Selected().two(a, b, words);
}

size_t AndPopcount(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                   size_t words) {
  return Selected().three(a, b, c, words);
}

void AndPopcountPairs(const uint64_t* rows, size_t num_rows, size_t words,
                      uint32_t* table) {
  CROWD_CHECK_LE(words, std::numeric_limits<uint32_t>::max() / 64);
  Selected().pairs(rows, num_rows, words, table);
}

size_t GatherBits(const uint64_t* src, const uint64_t* mask, size_t words,
                  uint64_t* out) {
  return Selected().gather(src, mask, words, out);
}

}  // namespace crowd::util
