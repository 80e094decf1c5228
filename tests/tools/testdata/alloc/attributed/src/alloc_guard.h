// Miniature stand-in for src/util/alloc_guard.h: only the annotation,
// plus one src/util/mutex.h-style class annotation for attributed.cc.
#define DJ_NOALLOC
#define DJ_CAPABILITY(x)
