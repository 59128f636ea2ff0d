// Compile-only fixture for the thread-safety negative-compile test
// (scripts/negative_compile_check.sh, ctest name
// `thread_annotations_negative_compile`).
//
// Without CROWD_NEGATIVE_COMPILE this TU is a correctly locked
// program and must compile cleanly under `-Wthread-safety -Werror`.
// With -DCROWD_NEGATIVE_COMPILE it contains exactly the bug class the
// analysis exists for — reading a CROWD_GUARDED_BY field without the
// lock, the same mistake as deleting an annotation or a MutexLock in
// Service/SocketServer — and compilation MUST fail. The harness asserts
// both directions, proving the annotations are load-bearing rather
// than decorative.

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

class Account {
 public:
  void Deposit(int amount) {
    crowd::util::MutexLock lock(mu_);
    balance_ += amount;
  }

  int Read() {
#if defined(CROWD_NEGATIVE_COMPILE)
    // Unguarded access to a guarded field: -Wthread-safety rejects
    // this line; the harness requires that it does.
    return balance_;
#else
    crowd::util::MutexLock lock(mu_);
    return balance_;
#endif
  }

  void TransferLocked(int amount) CROWD_REQUIRES(mu_) {
    balance_ += amount;
  }

  void Transfer(int amount) {
#if defined(CROWD_NEGATIVE_COMPILE_REQUIRES)
    // Calling a CROWD_REQUIRES function without the capability —
    // the Service *_Locked discipline — must also fail.
    TransferLocked(amount);
#else
    crowd::util::MutexLock lock(mu_);
    TransferLocked(amount);
#endif
  }

 private:
  crowd::util::Mutex mu_;
  int balance_ CROWD_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Account account;
  account.Deposit(1);
  account.Transfer(2);
  return account.Read() == 3 ? 0 : 1;
}
