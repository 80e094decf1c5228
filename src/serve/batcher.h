// Adaptive request batcher (DESIGN.md §13): the admission queue and flush
// state machine of the serving layer, free of threads of its own. Clients
// Submit() intrusive Request nodes (bounded queue — admission control);
// the dispatcher thread calls CollectBatch(), which blocks (time-bounded
// waits only) until one of the flush conditions fires:
//
//   - size:      max_batch requests are waiting (throughput at load),
//   - wait:      the oldest request has waited max_wait_ms (latency floor
//                at low load),
//   - deadline:  the earliest per-request deadline in the queue is about
//                to pass (the batcher never waits past it),
//   - drain:     Stop() was called — whatever is queued flushes now.
//
// The steady-state dispatch path — Submit on the client thread,
// CollectBatch on the dispatcher — allocates nothing: the queue is an
// intrusive list threaded through caller-owned Request nodes, and batches
// land in a caller-provided array.
#ifndef DEEPJOIN_SERVE_BATCHER_H_
#define DEEPJOIN_SERVE_BATCHER_H_

#include <chrono>
#include <cstddef>

#include "core/searcher.h"
#include "serve/deadline.h"
#include "util/mutex.h"
#include "util/status.h"

namespace deepjoin {
namespace serve {

/// One in-flight query. Caller-owned (stack or pool): the serving layer
/// never copies or allocates request state, it only threads the node
/// through its intrusive queue. The node must stay alive until `done`
/// fires; every admitted request gets exactly one completion.
struct Request {
  // ---- filled by the caller before Submit ----
  const lake::Column* query = nullptr;
  core::SearchOptions options;  ///< collect_stats is forced off by the service
  Deadline deadline;
  /// Completion callback, invoked with NO locks held (dispatcher thread).
  void (*done)(Request* self) = nullptr;
  void* ctx = nullptr;  ///< caller cookie for `done`

  // ---- filled by the service before `done` fires ----
  Status status;  ///< OK, DeadlineExceeded, ... (`result` valid when OK)
  core::EmbeddingSearcher::SearchResult result;
  // Per-request latency record — the serving layer's result surface, the
  // same numbers it files into the dj_serve_* histograms (the instrumented
  // path the adhoc-timing rule guards).
  double queue_ms = 0.0;  ///< admission -> batch collection  // dj_lint: allow(adhoc-timing)
  double exec_ms = 0.0;   ///< batch execution (shared)  // dj_lint: allow(adhoc-timing)
  double total_ms = 0.0;  ///< admission -> completion  // dj_lint: allow(adhoc-timing)

  // ---- internal (serving layer) ----
  std::chrono::steady_clock::time_point admit_time{};
  Request* next = nullptr;
};

struct BatcherConfig {
  /// Admission-queue depth bound; Submit past it returns
  /// ResourceExhausted (backpressure instead of unbounded latency).
  size_t max_queue = 256;
  /// Flush as soon as this many requests are waiting.
  size_t max_batch = 32;
  /// Flush once the oldest queued request has waited this long — bounds
  /// the latency cost of batching at low offered rates. (Config duration,
  /// not a timing surface.)
  double max_wait_ms = 1.0;  // dj_lint: allow(adhoc-timing)
  /// Idle-tick bound for the dispatcher's empty-queue wait. Every wait in
  /// the serving layer is time-bounded (dj_lint `untimed-wait-in-serve`);
  /// this is the period at which an idle dispatcher re-checks for stop.
  double idle_poll_ms = 50.0;  // dj_lint: allow(adhoc-timing)
};

class Batcher {
 public:
  explicit Batcher(const BatcherConfig& config);
  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Admission. Never blocks. Returns:
  ///   - DeadlineExceeded when the request is already expired (it is NOT
  ///     enqueued — the short-circuit happens before any queueing),
  ///   - ResourceExhausted when max_queue requests are already waiting,
  ///   - FailedPrecondition after Stop(),
  ///   - OK otherwise: the node is queued until a CollectBatch takes it.
  [[nodiscard]] Status Submit(Request* r);

  /// Dispatcher side: blocks (time-bounded waits only) until a flush
  /// condition fires, then moves up to min(max_batch, batch_cap) requests
  /// into `batch[0..return]` in FIFO order. Requests whose deadline passed
  /// while queued are moved (up to expired_cap) into
  /// `expired[0..*num_expired]` instead — their status is NOT set; the
  /// caller completes them without executing. May return 0 with
  /// *num_expired > 0 (only expirations this round). Returns 0 with
  /// *num_expired == 0 only when stopped and fully drained.
  size_t CollectBatch(Request** batch, size_t batch_cap, Request** expired,
                      size_t expired_cap, size_t* num_expired);

  /// Stops admissions and wakes the dispatcher; queued requests still
  /// flush (drain) through subsequent CollectBatch calls.
  void Stop();

  size_t depth() const;
  bool stopped() const;

 private:
  /// Moves requests whose deadline passed while queued (up to
  /// expired_cap) out of the queue into `expired`, advancing
  /// *num_expired. They short-circuit instead of riding into a batch.
  void SweepExpiredLocked(std::chrono::steady_clock::time_point now,
                          Request** expired, size_t expired_cap,
                          size_t* num_expired) DJ_REQUIRES(mu_);
  /// Pops up to `max_n` requests FIFO into `batch`; returns how many.
  size_t TakeLocked(Request** batch, size_t max_n) DJ_REQUIRES(mu_);

  const BatcherConfig config_;

  /// The admission queue: one lock, held for pointer surgery only.
  mutable Mutex mu_{"serve.batcher", rank::kServeBatcher};
  CondVar cv_;
  Request* head_ DJ_GUARDED_BY(mu_) = nullptr;
  Request* tail_ DJ_GUARDED_BY(mu_) = nullptr;
  size_t depth_ DJ_GUARDED_BY(mu_) = 0;
  bool stopped_ DJ_GUARDED_BY(mu_) = false;
};

}  // namespace serve
}  // namespace deepjoin

#endif  // DEEPJOIN_SERVE_BATCHER_H_
