#include "serve/query_service.h"

#include <chrono>
#include <utility>

#include "util/metrics.h"
#include "util/timer.h"

namespace deepjoin {
namespace serve {

namespace {

double Ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---- SLO accounting (DESIGN.md §13) ----
// Function-local statics: the registry lookups allocate once per process,
// before the steady state the alloc-ban tests cover.

metrics::Counter* AdmittedCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter(  // dj_alloc: allow(alloc)
          "dj_serve_admitted_total");
  return c;
}

metrics::Counter* RejectedCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_rejected_total");
  return c;
}

metrics::Counter* ExpiredCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_expired_total");
  return c;
}

metrics::Counter* CompletedCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_completed_total");
  return c;
}

metrics::Counter* BatchesCounter() {
  static metrics::Counter* const c =
      metrics::MetricsRegistry::Global().GetCounter("dj_serve_batches_total");
  return c;
}

metrics::Histogram* BatchSizeHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram(
          "dj_serve_batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

metrics::Histogram* QueueWaitHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram(
          "dj_serve_queue_wait_ms");
  return h;
}

metrics::Histogram* ExecuteHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram("dj_serve_execute_ms");
  return h;
}

metrics::Histogram* TotalHistogram() {
  static metrics::Histogram* const h =
      metrics::MetricsRegistry::Global().GetHistogram("dj_serve_total_ms");
  return h;
}

bool SameExecOptions(const core::SearchOptions& a,
                     const core::SearchOptions& b) {
  return a.k == b.k && a.ef_search == b.ef_search && a.nprobe == b.nprobe &&
         a.refine_factor == b.refine_factor;
}

/// Completion event for the blocking Query() wrapper. One per client
/// thread (a thread has at most one blocking query in flight), reused
/// across calls.
struct Waiter {
  Mutex mu{"serve.completion", rank::kServeCompletion};
  CondVar cv;
  bool done DJ_GUARDED_BY(mu) = false;
};

void SignalWaiter(Request* r) {
  auto* const w = static_cast<Waiter*>(r->ctx);
  MutexLock lock(w->mu);
  w->done = true;
  w->cv.NotifyAll();
}

}  // namespace

QueryService::QueryService(core::EmbeddingSearcher* searcher,
                           const QueryServiceConfig& config)
    : searcher_(searcher), config_(config), batcher_(config.batcher) {
  // Dispatch arrays sized once here; the dispatcher never allocates.
  batch_.resize(config_.batcher.max_batch);
  expired_.resize(config_.batcher.max_queue);
  query_ptrs_.resize(config_.batcher.max_batch);
  out_ptrs_.resize(config_.batcher.max_batch);
}

QueryService::~QueryService() { Stop(); }

void QueryService::Start() {
  {
    MutexLock lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

void QueryService::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  batcher_.Stop();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else {
    // Never started: drain whatever queued inline (the stopped batcher
    // flushes immediately, so this terminates once the queue empties).
    DispatcherLoop();
  }
}

Status QueryService::Submit(Request* r) {
  // Per-query trace trees are incompatible with batched dispatch; latency
  // accounting happens through the dj_serve_* histograms instead.
  r->options.collect_stats = false;
  Status st = batcher_.Submit(r);
  if (st.ok()) {
    AdmittedCounter()->Increment();
  } else if (st.code() == StatusCode::kResourceExhausted) {
    RejectedCounter()->Increment();
  } else if (st.code() == StatusCode::kDeadlineExceeded) {
    ExpiredCounter()->Increment();
  }
  return st;
}

Status QueryService::Query(Request* req) {
  thread_local Waiter waiter;
  {
    MutexLock lock(waiter.mu);
    waiter.done = false;
  }
  req->done = &SignalWaiter;
  req->ctx = &waiter;
  DJ_RETURN_IF_ERROR(Submit(req));
  // Even an expired request completes (with DeadlineExceeded) rather than
  // being abandoned, so this wait always terminates; the bound is a
  // re-check tick, not a timeout.
  MutexLock lock(waiter.mu);
  while (!waiter.done) {
    (void)waiter.cv.WaitFor(waiter.mu, std::chrono::milliseconds(10));
  }
  return req->status;
}

Status QueryService::Query(const lake::Column& query,
                           const core::SearchOptions& options,
                           Deadline deadline,
                           core::EmbeddingSearcher::SearchResult* out) {
  Request req;
  req.query = &query;
  req.options = options;
  req.deadline = deadline;
  Status st = Query(&req);
  *out = std::move(req.result);
  return st;
}

void QueryService::DispatcherLoop() {
  for (;;) {
    size_t num_expired = 0;
    const size_t n =
        batcher_.CollectBatch(batch_.data(), batch_.size(), expired_.data(),
                              expired_.size(), &num_expired);
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < num_expired; ++i) {
      // Queue-stage expiry: completes without touching encode or the ANN
      // index (the metrics-visible short-circuit the tests assert).
      Request* const r = expired_[i];
      r->queue_ms = Ms(now - r->admit_time);
      Complete(r, Status::DeadlineExceeded("deadline expired in queue"));
    }
    if (n == 0 && num_expired == 0) break;  // stopped and fully drained
    ExecuteBatch(batch_.data(), n);
  }
}

void QueryService::ExecuteBatch(Request** batch, size_t n) {
  const auto collected = std::chrono::steady_clock::now();
  size_t i = 0;
  while (i < n) {
    Request* const r0 = batch[i];
    // Batched-stage expiry: the deadline passed between collection and
    // execution — short-circuit before the encode stage.
    if (r0->deadline.expired(collected)) {
      r0->queue_ms = Ms(collected - r0->admit_time);
      Complete(r0,
               Status::DeadlineExceeded("deadline expired before execution"));
      ++i;
      continue;
    }
    // Maximal run of batch-compatible requests (same k, ef_search, nprobe
    // and refine_factor) — FIFO order is preserved across runs.
    size_t j = i + 1;
    while (j < n && !batch[j]->deadline.expired(collected) &&
           SameExecOptions(batch[j]->options, r0->options)) {
      ++j;
    }
    const size_t run = j - i;
    for (size_t t = 0; t < run; ++t) {
      Request* const r = batch[i + t];
      r->queue_ms = Ms(collected - r->admit_time);
      query_ptrs_[t] = r->query;
      out_ptrs_[t] = &r->result;
    }
    WallTimer timer;
    searcher_->SearchBatchInto(query_ptrs_.data(), run, r0->options,
                               config_.encode_pool, &scratch_,
                               out_ptrs_.data());
    const double exec_ms = timer.ElapsedMillis();
    BatchesCounter()->Increment();
    BatchSizeHistogram()->Record(static_cast<double>(run));
    const auto finished = std::chrono::steady_clock::now();
    for (size_t t = 0; t < run; ++t) {
      Request* const r = batch[i + t];
      r->exec_ms = exec_ms;
      if (r->deadline.expired(finished)) {
        // Executed, but too late to count: the caller gets
        // DeadlineExceeded, and SLO accounting files it as expired, not
        // goodput.
        Complete(r, Status::DeadlineExceeded(
                        "deadline expired during execution"));
      } else {
        Complete(r, Status::OK());
      }
    }
    i = j;
  }
}

void QueryService::Complete(Request* r, Status status) {
  r->total_ms = Ms(std::chrono::steady_clock::now() - r->admit_time);
  r->status = std::move(status);
  if (r->status.ok()) {
    CompletedCounter()->Increment();
  } else if (r->status.code() == StatusCode::kDeadlineExceeded) {
    ExpiredCounter()->Increment();
  }
  QueueWaitHistogram()->Record(r->queue_ms);
  ExecuteHistogram()->Record(r->exec_ms);
  TotalHistogram()->Record(r->total_ms);
  // Callback last, with no locks held; after it fires the node belongs to
  // the caller again.
  r->done(r);
}

}  // namespace serve
}  // namespace deepjoin
