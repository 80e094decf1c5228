// Fixture: classes declared with attributes before their names. Each
// member must be keyed by its own class: Status::Make allocates, and
// Builder::Make, a member of the same name, does not.
#include "alloc_guard.h"

namespace fixture {

class [[nodiscard]] DJ_CAPABILITY("status") alignas(8) Status {
 public:
  static Status Make(int n) {
    int* p = new int[n];
    delete[] p;
    return Status();
  }
};

struct alignas(16) Builder {
  static int Make(int n) { return n + 1; }
};

DJ_NOALLOC Status Check(int n);

Status Check(int n) { return Status::Make(Builder::Make(n)); }

}  // namespace fixture
