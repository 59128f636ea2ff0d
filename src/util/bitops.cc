#include "util/bitops.h"

#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CROWD_BITOPS_X86_POPCNT 1
#endif

namespace crowd::util {

namespace bitops_internal {

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

#ifdef CROWD_BITOPS_X86_POPCNT

bool HasPopcnt() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("popcnt") != 0;
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

#else

bool HasPopcnt() { return false; }

size_t AndPopcountPopcnt(const uint64_t* a, const uint64_t* b,
                         size_t words) {
  return AndPopcountPortable(a, b, words);
}

size_t AndPopcountPopcnt(const uint64_t* a, const uint64_t* b,
                         const uint64_t* c, size_t words) {
  return AndPopcountPortable(a, b, c, words);
}

#endif  // CROWD_BITOPS_X86_POPCNT

}  // namespace bitops_internal

namespace {

struct Kernels {
  size_t (*two)(const uint64_t*, const uint64_t*, size_t);
  size_t (*three)(const uint64_t*, const uint64_t*, const uint64_t*,
                  size_t);
};

// Chosen on first use, so static initializers elsewhere may call the
// kernels too.
const Kernels& Selected() {
  using namespace bitops_internal;
  static const Kernels kernels =
      HasPopcnt() ? Kernels{AndPopcountPopcnt, AndPopcountPopcnt}
                  : Kernels{AndPopcountPortable, AndPopcountPortable};
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

}  // namespace crowd::util
