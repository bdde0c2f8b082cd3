#include "sim/cpu_queue.hpp"

#include <algorithm>

#include "obs/names.hpp"
#include "util/check.hpp"

namespace newtop {

void CpuQueue::attach_metrics(obs::MetricsRegistry& metrics) {
    tasks_ = obs::Counter(metrics, obs::metric::kCpuTasks);
    busy_us_ = obs::Counter(metrics, obs::metric::kCpuBusyUs);
    queue_wait_us_ = obs::Histogram(metrics, obs::metric::kCpuQueueWaitUs);
}

bool CpuQueue::admit(SimDuration cost) {
    NEWTOP_EXPECTS(cost >= 0, "CPU cost must be non-negative");
    if (dead_) return false;
    // The slowdown multiply only happens while a gray fault is active, so
    // unslowed hosts compute byte-identical schedules to a build without
    // the feature.
    if (slowdown_ != 1.0) {
        cost = static_cast<SimDuration>(static_cast<double>(cost) * slowdown_);
    }
    const SimTime start = std::max(scheduler_->now(), busy_until_);
    tasks_.add();
    busy_us_.add(static_cast<std::uint64_t>(cost));
    queue_wait_us_.observe(start - scheduler_->now());
    busy_until_ = start + cost;
    consumed_ += cost;
    return true;
}

void CpuQueue::set_slowdown(double factor) {
    NEWTOP_EXPECTS(factor > 0.0, "CPU slowdown factor must be positive");
    slowdown_ = factor;
}

void CpuQueue::reset() {
    ++epoch_;
    busy_until_ = scheduler_->now();
    consumed_ = 0;
}

void CpuQueue::kill() {
    reset();
    dead_ = true;
}

void CpuQueue::revive() {
    reset();
    dead_ = false;
}

}  // namespace newtop
