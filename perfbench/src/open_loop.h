// Open-loop load generation: request i of a step is due at
// start + i / rate whatever happened to earlier requests, and its latency
// is timed from that due time. A stall therefore shows in every request
// that queued behind it — the wait a real user population would see —
// instead of silently slowing the offered load (coordinated omission).

#ifndef SOFYA_PERFBENCH_OPEN_LOOP_H_
#define SOFYA_PERFBENCH_OPEN_LOOP_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/// One fixed-rate step.
struct OpenLoopStep {
  double rate = 0.0;     ///< Requests per second offered.
  size_t due = 0;        ///< Requests due within the step.
  size_t completed = 0;  ///< Requests whose send() returned.
  size_t failed = 0;     ///< Of those, send() returned false.
  size_t abandoned = 0;  ///< Never sent: still queued when the drain ended.
  /// Latency from due time per request index; NaN when not completed.
  std::vector<double> latency_ms;
  /// Sender lateness (start − due) for requests whose sender was idle when
  /// they fell due: the generator's own timing error, not queueing.
  std::vector<double> late_ms;
  /// Requests due inside the step that had not been sent when it ended —
  /// the sender queue depth at the step's end.
  size_t backlog = 0;
  /// Completions per second over the step's wall time (incl. drain).
  double achieved_rate = 0.0;

  /// Latencies of requests that did not complete count as +infinity, so
  /// they miss any limit.
  std::vector<double> LatenciesWithMisses() const;
};

/// Offers `rate` requests/s for `seconds` from `senders` threads; each
/// request calls `send(i)` (true = answered correctly). Requests still
/// queued `drain_seconds` after the step's end are abandoned, so an
/// overloaded step ends promptly.
OpenLoopStep RunOpenLoop(double rate, double seconds, size_t senders,
                         double drain_seconds,
                         const std::function<bool(size_t)>& send);

}  // namespace perfbench

#endif  // SOFYA_PERFBENCH_OPEN_LOOP_H_
