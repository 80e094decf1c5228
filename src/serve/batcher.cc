#include "serve/batcher.h"

#include <algorithm>

namespace deepjoin {
namespace serve {

namespace {

std::chrono::nanoseconds MillisToNanos(double ms) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

Batcher::Batcher(const BatcherConfig& config) : config_(config) {
  DJ_CHECK(config_.max_queue > 0);
  DJ_CHECK(config_.max_batch > 0);
}

Status Batcher::Submit(Request* r) {
  // Deadline gate first: an already-expired request never even queues
  // (the metrics-visible guarantee that expiry short-circuits before any
  // downstream work).
  if (r->deadline.expired()) {
    return Status::DeadlineExceeded("expired before admission");
  }
  r->admit_time = std::chrono::steady_clock::now();
  r->next = nullptr;
  {
    MutexLock lock(mu_);
    if (stopped_) {
      return Status::FailedPrecondition("serving stopped");
    }
    if (depth_ >= config_.max_queue) {
      return Status::ResourceExhausted("admission queue full");
    }
    if (tail_ != nullptr) {
      tail_->next = r;
    } else {
      head_ = r;
    }
    tail_ = r;
    ++depth_;
  }
  cv_.NotifyOne();
  return Status::OK();
}

void Batcher::SweepExpiredLocked(std::chrono::steady_clock::time_point now,
                                 Request** expired, size_t expired_cap,
                                 size_t* num_expired) {
  // Requests whose deadline passed while queued must short-circuit, not
  // ride along into (or hold up) a batch.
  if (depth_ == 0 || *num_expired >= expired_cap) return;
  Request* prev = nullptr;
  Request* r = head_;
  while (r != nullptr && *num_expired < expired_cap) {
    Request* const next = r->next;
    if (r->deadline.expired(now)) {
      if (prev != nullptr) {
        prev->next = next;
      } else {
        head_ = next;
      }
      if (r == tail_) tail_ = prev;
      --depth_;
      r->next = nullptr;
      expired[(*num_expired)++] = r;
    } else {
      prev = r;
    }
    r = next;
  }
}

size_t Batcher::TakeLocked(Request** batch, size_t max_n) {
  const size_t n = std::min(depth_, max_n);
  for (size_t i = 0; i < n; ++i) {
    Request* const r = head_;
    head_ = r->next;
    r->next = nullptr;
    batch[i] = r;
  }
  if (head_ == nullptr) tail_ = nullptr;
  depth_ -= n;
  return n;
}

size_t Batcher::CollectBatch(Request** batch, size_t batch_cap,
                             Request** expired, size_t expired_cap,
                             size_t* num_expired) {
  *num_expired = 0;
  const size_t max_batch = std::min(config_.max_batch, batch_cap);
  const auto idle_tick = MillisToNanos(config_.idle_poll_ms);
  MutexLock lock(mu_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    SweepExpiredLocked(now, expired, expired_cap, num_expired);
    // Expirations return immediately (possibly with an empty batch): the
    // caller completes them without waiting out a batching window.
    if (*num_expired > 0 || depth_ >= max_batch ||
        (stopped_ && depth_ > 0)) {
      return TakeLocked(batch, max_batch);
    }
    if (depth_ > 0) {
      // Flush window: the oldest request's max_wait_ms, clipped by the
      // earliest deadline in the queue (never wait past either).
      auto wake = head_->admit_time + MillisToNanos(config_.max_wait_ms);
      for (const Request* r = head_; r != nullptr; r = r->next) {
        if (!r->deadline.is_infinite()) {
          wake = std::min(wake, r->deadline.time_point());
        }
      }
      if (now >= wake) {
        return TakeLocked(batch, max_batch);
      }
      (void)cv_.WaitFor(mu_, wake - now);
      continue;
    }
    if (stopped_) return 0;  // drained
    // Idle: bounded tick, then re-check (stop/submit both notify, the
    // bound just guarantees forward progress regardless).
    (void)cv_.WaitFor(mu_, idle_tick);
  }
}

void Batcher::Stop() {
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
  cv_.NotifyAll();
}

size_t Batcher::depth() const {
  MutexLock lock(mu_);
  return depth_;
}

bool Batcher::stopped() const {
  MutexLock lock(mu_);
  return stopped_;
}

}  // namespace serve
}  // namespace deepjoin
