// A scoped request for the kernel's shortest fair-class scheduler
// slice on the calling thread.
//
// An evaluation pass is CPU-bound for a few milliseconds. Linux's
// EEVDF scheduler lets a running fair-class task keep its CPU for one
// slice (sysctl base_slice, ~2 ms on a 4-CPU host) before a newly
// woken task of equal weight may take it, so a writer thread woken on
// the evaluating CPU waits out most of the pass. ShortSchedulerSlice
// asks for a 100 µs slice for its lifetime (sched_setattr with only
// sched_runtime changed; custom fair slices exist since Linux 6.12).
// Policy, nice value and weight stay as they were, so the thread keeps
// its fair share of a busy host; it only yields sooner. Threads started
// inside the guard inherit the slice. Changing and restoring the slice
// needs no privilege. Where the calls fail (an older kernel, a seccomp
// filter, a non-Linux build) the guard leaves the thread as it was.

#ifndef CROWD_UTIL_SCHEDULER_SLICE_H_
#define CROWD_UTIL_SCHEDULER_SLICE_H_

#include <cstdint>

namespace crowd::util {

/// The kernel's `struct sched_attr` (SCHED_ATTR_SIZE_VER1), declared
/// here because <linux/sched/types.h> redefines `sched_param` next to
/// <sched.h>, and glibc wraps neither call.
struct SchedAttr {
  uint32_t size = sizeof(SchedAttr);
  uint32_t sched_policy = 0;
  uint64_t sched_flags = 0;
  int32_t sched_nice = 0;
  uint32_t sched_priority = 0;
  /// A fair-class task's slice in nanoseconds (0 before Linux 6.12).
  uint64_t sched_runtime = 0;
  uint64_t sched_deadline = 0;
  uint64_t sched_period = 0;
  uint32_t sched_util_min = 0;
  uint32_t sched_util_max = 0;
};

/// Reads the calling thread's scheduling attributes; false when the
/// kernel refuses (or the build has no sched_getattr).
bool GetSchedAttr(SchedAttr* attr);

/// \brief Runs the calling thread on a 100 µs scheduler slice until
/// destruction, then restores the attributes it read at construction.
class ShortSchedulerSlice {
 public:
  /// The slice requested, in nanoseconds: the shortest the kernel
  /// accepts for a fair-class task.
  static constexpr uint64_t kSliceNanos = 100'000;

  ShortSchedulerSlice();
  ~ShortSchedulerSlice();
  ShortSchedulerSlice(const ShortSchedulerSlice&) = delete;
  ShortSchedulerSlice& operator=(const ShortSchedulerSlice&) = delete;

 private:
  SchedAttr saved_;
  /// Whether the constructor changed the slice, so there is something
  /// to restore.
  bool active_ = false;
};

}  // namespace crowd::util

#endif  // CROWD_UTIL_SCHEDULER_SLICE_H_
