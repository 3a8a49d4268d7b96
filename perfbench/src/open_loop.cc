#include "open_loop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>

#include "bench_util.h"

namespace perfbench {

std::vector<double> OpenLoopStep::LatenciesWithMisses() const {
  std::vector<double> out = latency_ms;
  for (double& v : out) {
    if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
  }
  return out;
}

OpenLoopStep RunOpenLoop(double rate, double seconds, size_t senders,
                         double drain_seconds,
                         const std::function<bool(size_t)>& send) {
  OpenLoopStep step;
  step.rate = rate;
  if (!(rate > 0.0) || !(seconds > 0.0)) return step;
  step.due = static_cast<size_t>(std::floor(rate * seconds));
  step.latency_ms.assign(step.due, std::numeric_limits<double>::quiet_NaN());
  if (step.due == 0) return step;

  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point give_up =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(drain_seconds));

  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0}, failed{0}, abandoned{0}, backlog{0};
  std::mutex late_mu;
  std::vector<double> late;  // Guarded by late_mu.

  auto sender = [&] {
    // Wake-ups within a few microseconds of the due time, not the default
    // 50 µs timer slack: lateness would otherwise pad every latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<double> my_late;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= step.due) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      interval * static_cast<double>(i));
      Clock::time_point now = Clock::now();
      if (now > give_up) {
        abandoned.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (now < due) {
        std::this_thread::sleep_until(due);
        now = Clock::now();
        my_late.push_back(MillisBetween(due, now));
      }
      if (now > end) backlog.fetch_add(1, std::memory_order_relaxed);
      const bool ok = send(i);
      step.latency_ms[i] = MillisBetween(due, Clock::now());
      completed.fetch_add(1, std::memory_order_relaxed);
      if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(late_mu);
    late.insert(late.end(), my_late.begin(), my_late.end());
  };

  std::vector<std::thread> threads;
  threads.reserve(senders);
  for (size_t t = 0; t < std::max<size_t>(1, senders); ++t) {
    threads.emplace_back(sender);
  }
  for (std::thread& t : threads) t.join();

  const Clock::time_point finished = Clock::now();
  step.completed = completed.load();
  step.failed = failed.load();
  step.abandoned = abandoned.load();
  step.backlog = backlog.load() + step.abandoned;
  step.late_ms = std::move(late);
  step.achieved_rate = static_cast<double>(step.completed) /
                       std::max(seconds, SecondsBetween(start, finished));
  return step;
}

}  // namespace perfbench
