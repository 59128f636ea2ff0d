// AND-popcount kernels over 64-bit bitset rows: the one place the
// library counts the set bits of task masks.
//
//   AndPopcount(a, b, words)    = sum_w popcount(a[w] & b[w])
//   AndPopcount(a, b, c, words) = sum_w popcount(a[w] & b[w] & c[w])
//
// On x86-64 each arity has two variants: a portable one
// (std::popcount, which without a target flag compiles to a
// bit-twiddling sequence) and one compiled with
// __attribute__((target("popcnt"))) that uses the POPCNT instruction.
// The first call picks the POPCNT variant when the CPU reports it
// (__builtin_cpu_supports), so one binary runs on any x86-64. The
// build sets no global -march / -mpopcnt flag: that would change the
// codegen of every other std::popcount in the program. Other
// architectures use the portable variant, which their compilers
// already lower to a native bit count.
//
// Counts are integers, so both variants return the same value and the
// choice never changes output.

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

}  // namespace bitops_internal

}  // namespace crowd::util

#endif  // CROWD_UTIL_BITOPS_H_
