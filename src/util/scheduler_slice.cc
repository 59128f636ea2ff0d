#include "util/scheduler_slice.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#if defined(SYS_sched_getattr) && defined(SYS_sched_setattr)
#define CROWD_HAVE_SCHED_ATTR 1
#endif

namespace crowd::util {

namespace {

bool SetSchedAttr(SchedAttr attr) {
#ifdef CROWD_HAVE_SCHED_ATTR
  // By value: the kernel may write the size it expects back into it.
  return syscall(SYS_sched_setattr, 0, &attr, 0u) == 0;
#else
  (void)attr;
  return false;
#endif
}

}  // namespace

bool GetSchedAttr(SchedAttr* attr) {
  *attr = SchedAttr{};
#ifdef CROWD_HAVE_SCHED_ATTR
  return syscall(SYS_sched_getattr, 0, attr,
                 static_cast<unsigned>(sizeof(SchedAttr)), 0u) == 0;
#else
  return false;
#endif
}

ShortSchedulerSlice::ShortSchedulerSlice() {
  if (!GetSchedAttr(&saved_)) return;
  SchedAttr shortened = saved_;
  shortened.sched_runtime = kSliceNanos;
  active_ = SetSchedAttr(shortened);
}

ShortSchedulerSlice::~ShortSchedulerSlice() {
  if (!active_) return;
  // Writing the saved sched_runtime back would mark the slice as custom
  // even when it was the kernel's default; a runtime of 0 restores the
  // default slice and its default status. Only a thread that had a
  // custom slice of its own reads back something else, and gets its
  // saved value written instead.
  SchedAttr restored = saved_;
  restored.sched_runtime = 0;
  SchedAttr now;
  if (SetSchedAttr(restored) && GetSchedAttr(&now) &&
      now.sched_runtime == saved_.sched_runtime) {
    return;
  }
  SetSchedAttr(saved_);
}

}  // namespace crowd::util
