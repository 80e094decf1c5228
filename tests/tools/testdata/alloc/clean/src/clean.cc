// Fixture: a DJ_NOALLOC root whose whole call chain is allocation-free,
// plus an allocating function outside any annotated root (not a finding).
#include "alloc_guard.h"

namespace fixture {

DJ_NOALLOC int Accumulate(const int* xs, int n);

int Helper(const int* xs, int n) {
  int s = 0;
  for (int i = 0; i < n; ++i) s += xs[i];
  return s;
}

// Definition inherits the declaration's DJ_NOALLOC (header contract).
int Accumulate(const int* xs, int n) { return Helper(xs, n); }

// Allocates, but is reachable from no DJ_NOALLOC root.
int* MakeBuffer(int n) { return new int[n]; }

}  // namespace fixture

namespace other {

// Same bare name as fixture::Accumulate in another namespace: a different
// function, so neither its allocation nor fixture's contract crosses over.
int* Accumulate(int n) { return new int[n]; }

}  // namespace other
