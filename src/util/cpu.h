// CPU feature checks and vector types for the floating-point kernels
// that carry an __attribute__((target("avx2"))) variant
// (linalg/cholesky.cc, core/triple_combiner.cc). Like util/bitops.h,
// the build sets no global target flag: each kernel picks its variant
// on first call.

#ifndef CROWD_UTIL_CPU_H_
#define CROWD_UTIL_CPU_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CROWD_CPU_X86 1
/// Marks a kernel variant compiled for AVX2 whatever the build's target.
#define CROWD_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define CROWD_TARGET_AVX2
#endif

namespace crowd::util {

/// True when this build has AVX2 variants and the CPU supports AVX2.
/// Always false off x86-64, where the AVX2 entry points compile for the
/// baseline target and nothing calls them.
inline bool CpuHasAvx2() {
#ifdef CROWD_CPU_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// N doubles, or N 64-bit words, as one GCC/Clang vector. Arithmetic
/// on it runs lane by lane, each lane its own IEEE operation, so the
/// width never changes a result. The kernels use N = 2 on the baseline
/// target (one SSE2 register) and N = 4 under CROWD_TARGET_AVX2 (one
/// AVX register). No function takes or returns one by value: that
/// would make the ABI depend on the target (GCC's -Wpsabi).
template <size_t N>
struct Simd {
  typedef double Doubles __attribute__((vector_size(N * sizeof(double))));
  typedef uint64_t Words __attribute__((vector_size(N * sizeof(uint64_t))));
};

}  // namespace crowd::util

#endif  // CROWD_UTIL_CPU_H_
