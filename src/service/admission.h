// Admission control for the partition service: a bounded MPMC request
// queue with reject-on-full backpressure.
//
// The event loop pushes parsed requests; executors pop them one at a time.
// When the queue is at depth, TryPush refuses and the caller sends the
// client a reject-with-retry-after response instead of queueing unbounded
// work -- overload sheds load at the front door rather than growing latency
// without bound.  Closing the queue (graceful drain) stops admissions
// immediately while letting poppers empty what was already admitted; Pop
// returns false exactly once the queue is both closed and empty.
//
// Telemetry: service/admitted, service/rejected.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

#include "service/protocol.h"

namespace mcm::service {

// MCMPART_SERVICE_QUEUE_DEPTH (clamped to [1, 65536]), default 128.
int DefaultServiceQueueDepth();

// One admitted request, tagged with where its response must go, its global
// admission order, and its admission timestamp (which feeds the service
// latency histogram; responses are matched to clients by correlation id
// and may complete out of admission order across executors).
struct QueuedRequest {
  PartitionRequest request;
  std::int64_t connection_id = -1;
  std::int64_t sequence = 0;       // Global admission sequence number.
  double admitted_s = 0.0;         // MonotonicSeconds() at admission.
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t depth);

  // Admits `item` unless the queue is full or closed.  Never blocks.
  bool TryPush(QueuedRequest item);

  // Pops the oldest request into *item, blocking while the queue is empty
  // and open.  Returns false only when the queue is closed and fully
  // drained (the executor's stop signal).
  bool Pop(QueuedRequest* item);

  // Stops admissions and wakes blocked poppers; already-admitted requests
  // still drain through Pop.
  void Close();

  std::size_t depth() const { return depth_; }
  std::size_t size() const;
  bool closed() const;

  // Backpressure hint for rejected clients: an estimate of how long the
  // queue needs to make room, derived from the depth and the executor
  // parallelism (a deterministic function of configuration, not of load).
  std::int64_t RetryAfterMs(int executors) const;

 private:
  const std::size_t depth_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedRequest> queue_;
  bool closed_ = false;
};

}  // namespace mcm::service
