// Kernels over 64-bit bitset rows: the one place the library counts
// and compacts the set bits of task masks.
//
//   AndPopcount(a, b, words)    = sum_w popcount(a[w] & b[w])
//   AndPopcount(a, b, c, words) = sum_w popcount(a[w] & b[w] & c[w])
//   AndPopcountPairs(rows, n, words, table)
//                               = AndPopcount(row a, row b) for all a < b
//   GatherBits(src, mask, words, out)
//                               = src's bits at mask's set positions,
//                                 packed to the front of `out`
//
// On x86-64 each kernel has a portable variant and one compiled with
// __attribute__((target(...))) for an instruction the baseline lacks:
// POPCNT for the counts (std::popcount without a target flag compiles
// to a bit-twiddling sequence), BMI2's PEXT for the gather (the
// portable one walks the mask's set bits). The pair table also has an
// AVX-512 VPOPCNTQ variant that counts eight pairs per instruction.
// The first call picks the fastest variant whose instructions the CPU
// reports (__builtin_cpu_supports), so one binary runs on any x86-64.
// The build sets no global -march / -mpopcnt flag: that would change
// the codegen of every other std::popcount in the program.
// Other architectures use the portable variants; their compilers
// already lower std::popcount to a native bit count.
//
// The results are integers and bit patterns, so every variant returns
// the same value and the choice never changes output.

#ifndef CROWD_UTIL_BITOPS_H_
#define CROWD_UTIL_BITOPS_H_

#include <cstddef>
#include <cstdint>

namespace crowd::util {

/// popcount(a & b) over `words` 64-bit words, on the dispatched variant.
size_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t words);

/// popcount(a & b & c) over `words` 64-bit words, on the dispatched
/// variant.
size_t AndPopcount(const uint64_t* a, const uint64_t* b, const uint64_t* c,
                   size_t words);

/// For `num_rows` rows of `words` words each, row r at rows + r * words,
/// writes popcount(row a & row b) to table[a * num_rows + b] for every
/// a < b; the diagonal and lower triangle are left as they are. One
/// call replaces num_rows^2 / 2 AndPopcount calls. Precondition:
/// words * 64 <= UINT32_MAX, so a count fits its cell.
void AndPopcountPairs(const uint64_t* rows, size_t num_rows, size_t words,
                      uint32_t* table);

/// Packs the bits of src[0, words) found at the set positions of
/// mask[0, words) into out, in order: bit r of the output is src's bit
/// at mask's r-th set position. Writes ceil(popcount(mask) / 64) words,
/// the last one zero-padded above the final bit, and returns that
/// count. `out` must not overlap `src` or `mask`.
size_t GatherBits(const uint64_t* src, const uint64_t* mask, size_t words,
                  uint64_t* out);

/// The individual variants, callable directly so a test can check
/// them against each other.
namespace bitops_internal {

size_t AndPopcountPortable(const uint64_t* a, const uint64_t* b,
                           size_t words);
size_t AndPopcountPortable(const uint64_t* a, const uint64_t* b,
                           const uint64_t* c, size_t words);

/// True when this build has a POPCNT variant and the CPU supports it.
bool HasPopcnt();

/// Precondition: HasPopcnt(). Off x86-64 these forward to the portable
/// variants.
size_t AndPopcountPopcnt(const uint64_t* a, const uint64_t* b,
                         size_t words);
size_t AndPopcountPopcnt(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, size_t words);

void AndPopcountPairsPortable(const uint64_t* rows, size_t num_rows,
                              size_t words, uint32_t* table);
/// Precondition: HasPopcnt().
void AndPopcountPairsPopcnt(const uint64_t* rows, size_t num_rows,
                            size_t words, uint32_t* table);

/// True when this build has an AVX-512 variant and the CPU supports
/// AVX-512F with VPOPCNTDQ.
bool HasAvx512Popcnt();

/// Precondition: HasAvx512Popcnt(). Off x86-64 this forwards to the
/// portable variant.
void AndPopcountPairsAvx512(const uint64_t* rows, size_t num_rows,
                            size_t words, uint32_t* table);

size_t GatherBitsPortable(const uint64_t* src, const uint64_t* mask,
                          size_t words, uint64_t* out);

/// True when this build has a PEXT variant and the CPU supports BMI2
/// with a fast PEXT (not AMD Zen 1/2, which microcode it).
bool HasBmi2();

/// Precondition: HasBmi2(). Off x86-64 this forwards to the portable
/// variant.
size_t GatherBitsPext(const uint64_t* src, const uint64_t* mask,
                      size_t words, uint64_t* out);

}  // namespace bitops_internal

}  // namespace crowd::util

#endif  // CROWD_UTIL_BITOPS_H_
