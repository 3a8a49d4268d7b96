// The traced run's instruments: an in-memory span log and a timing
// Endpoint decorator. Both live on the benchmark side of the public API —
// they wrap calls into the library, they do not change it.

#ifndef SOFYA_PERFBENCH_TRACE_H_
#define SOFYA_PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "endpoint/endpoint.h"

namespace perfbench {

/// Spans (name, start, end, parent) kept in memory and written out once at
/// exit. Thread-safe. Beyond `capacity` spans only a drop count is kept, so
/// a long run cannot grow memory without bound.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) : capacity_(capacity) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Registers a span name; call before spans of that name are opened.
  uint32_t Intern(const std::string& name);

  /// One open span. Its parent is the innermost span open on this thread,
  /// or the recorder's root when none is (pool threads inherit the root).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, uint32_t name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    SpanRecorder* recorder_;  // Null: tracing off, the scope is free.
    uint32_t name_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t saved_current_ = 0;
    Clock::time_point start_;
  };

  /// Parent for spans opened on threads with no open span (0 = none).
  void set_root(uint64_t id) { root_.store(id, std::memory_order_relaxed); }

  size_t size() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Writes one line per span: id, parent, name, start_us, end_us (start
  /// relative to the first span). Returns false when the file cannot be
  /// written.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    uint32_t name;
    Clock::time_point start;
    Clock::time_point end;
  };
  void Push(const Span& span);

  const size_t capacity_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> root_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::string> names_;  // Guarded by mu_.
  std::vector<Span> spans_;         // Guarded by mu_.
};

/// Endpoint call kinds the timing decorator separates.
enum class CallKind { kSelect = 0, kSelectMany, kAsk, kAskMany };
inline constexpr size_t kNumCallKinds = 4;
const char* CallKindName(CallKind kind);

/// Per-kind call durations and counts at one decorator position.
/// Thread-safe.
class CallStats {
 public:
  void Record(CallKind kind, double micros, size_t slots);
  /// Durations (µs) of every call of `kind`.
  std::vector<double> Durations(CallKind kind) const;
  /// Sub-queries over all calls (a batch of n counts n).
  uint64_t slots() const;
  /// Sub-queries carried by batch (…Many) calls only.
  uint64_t batch_slots() const;
  uint64_t batch_calls() const;
  /// Sum of all call durations, µs.
  double busy_us() const;

 private:
  mutable std::mutex mu_;
  std::array<std::vector<double>, kNumCallKinds> durations_;  // Guarded.
  std::array<uint64_t, kNumCallKinds> slots_{};               // Guarded.
  double busy_us_ = 0.0;                                      // Guarded.
};

/// Transparent Endpoint decorator that times each call into `inner` and
/// records a span per call. Batch results are forwarded untouched: slot i
/// of the answer is slot i of the inner answer, status and value, so the
/// per-sub-query contract of SelectMany/AskMany holds through it.
class TimingEndpoint : public sofya::Endpoint {
 public:
  /// `stats` is required; `spans` may be null. `label` prefixes span names
  /// ("<label>.select" …). Nothing is owned.
  TimingEndpoint(sofya::Endpoint* inner, CallStats* stats,
                 SpanRecorder* spans, const std::string& label);

  const std::string& name() const override { return inner_->name(); }
  const std::string& base_iri() const override { return inner_->base_iri(); }
  sofya::StatusOr<sofya::ResultSet> Select(
      const sofya::SelectQuery& query) override;
  sofya::SelectBatchResult SelectMany(
      std::span<const sofya::SelectQuery> queries) override;
  sofya::StatusOr<bool> Ask(const sofya::SelectQuery& query) override;
  sofya::AskBatchResult AskMany(
      std::span<const sofya::SelectQuery> queries) override;
  sofya::TermId EncodeTerm(const sofya::Term& term) override {
    return inner_->EncodeTerm(term);
  }
  sofya::TermId LookupTerm(const sofya::Term& term) const override {
    return inner_->LookupTerm(term);
  }
  sofya::StatusOr<sofya::Term> DecodeTerm(sofya::TermId id) const override {
    return inner_->DecodeTerm(id);
  }
  uint64_t data_epoch() const override { return inner_->data_epoch(); }
  sofya::EndpointStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  template <typename Fn>
  auto Timed(CallKind kind, size_t slots, Fn&& fn);

  sofya::Endpoint* inner_;
  CallStats* stats_;
  SpanRecorder* spans_;
  std::array<uint32_t, kNumCallKinds> span_names_{};
};

}  // namespace perfbench

#endif  // SOFYA_PERFBENCH_TRACE_H_
