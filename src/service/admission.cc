#include "service/admission.h"

#include <algorithm>

#include "common/env.h"
#include "telemetry/metrics.h"

namespace mcm::service {

int DefaultServiceQueueDepth() {
  static const std::int64_t depth =
      GetEnvInt("MCMPART_SERVICE_QUEUE_DEPTH", 128, 1, 65536);
  return static_cast<int>(depth);
}

AdmissionQueue::AdmissionQueue(std::size_t depth)
    : depth_(std::max<std::size_t>(depth, 1)) {}

bool AdmissionQueue::TryPush(QueuedRequest item) {
  static telemetry::Counter& admitted =
      telemetry::Counter::Get("service/admitted");
  static telemetry::Counter& rejected =
      telemetry::Counter::Get("service/rejected");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || queue_.size() >= depth_) {
      rejected.Add();
      return false;
    }
    queue_.push_back(std::move(item));
  }
  admitted.Add();
  cv_.notify_one();
  return true;
}

bool AdmissionQueue::Pop(QueuedRequest* item) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // Closed and drained.
  *item = std::move(queue_.front());
  queue_.pop_front();
  return true;
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::int64_t AdmissionQueue::RetryAfterMs(int executors) const {
  // One queue's worth of work spread over the executors, at a nominal
  // 10 ms per request: a coarse, configuration-only hint (clients treat it
  // as advisory, not a promise of free capacity).
  const int lanes = std::max(executors, 1);
  const std::int64_t hint =
      static_cast<std::int64_t>(depth_) * 10 / lanes;
  return std::clamp<std::int64_t>(hint, 10, 5000);
}

}  // namespace mcm::service
