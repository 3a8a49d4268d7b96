#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {
thread_local uint64_t current_span = 0;
}  // namespace

uint32_t SpanRecorder::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, uint32_t name)
    : recorder_(recorder), name_(name) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = current_span != 0
                ? current_span
                : recorder_->root_.load(std::memory_order_relaxed);
  saved_current_ = current_span;
  current_span = id_;
  start_ = Clock::now();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  current_span = saved_current_;
  recorder_->Push({id_, parent_, name_, start_, end});
}

void SpanRecorder::Push(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\tname\tstart_us\tend_us\n");
  Clock::time_point origin = spans_.empty() ? Clock::now() : spans_[0].start;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  for (const Span& s : spans_) {
    std::fprintf(out, "%llu\t%llu\t%s\t%.3f\t%.3f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 names_[s.name].c_str(), MicrosBetween(origin, s.start),
                 MicrosBetween(origin, s.end));
  }
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

const char* CallKindName(CallKind kind) {
  switch (kind) {
    case CallKind::kSelect:
      return "select";
    case CallKind::kSelectMany:
      return "select_many";
    case CallKind::kAsk:
      return "ask";
    case CallKind::kAskMany:
      return "ask_many";
  }
  return "?";
}

void CallStats::Record(CallKind kind, double micros, size_t slots) {
  std::lock_guard<std::mutex> lock(mu_);
  durations_[static_cast<size_t>(kind)].push_back(micros);
  slots_[static_cast<size_t>(kind)] += slots;
  busy_us_ += micros;
}

std::vector<double> CallStats::Durations(CallKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return durations_[static_cast<size_t>(kind)];
}

uint64_t CallStats::slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t s : slots_) total += s;
  return total;
}

uint64_t CallStats::batch_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[static_cast<size_t>(CallKind::kSelectMany)] +
         slots_[static_cast<size_t>(CallKind::kAskMany)];
}

uint64_t CallStats::batch_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durations_[static_cast<size_t>(CallKind::kSelectMany)].size() +
         durations_[static_cast<size_t>(CallKind::kAskMany)].size();
}

double CallStats::busy_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return busy_us_;
}

TimingEndpoint::TimingEndpoint(sofya::Endpoint* inner, CallStats* stats,
                               SpanRecorder* spans, const std::string& label)
    : inner_(inner), stats_(stats), spans_(spans) {
  if (spans_ == nullptr) return;
  for (size_t k = 0; k < kNumCallKinds; ++k) {
    span_names_[k] = spans_->Intern(
        label + "." + CallKindName(static_cast<CallKind>(k)));
  }
}

template <typename Fn>
auto TimingEndpoint::Timed(CallKind kind, size_t slots, Fn&& fn) {
  SpanRecorder::Scope scope(spans_, span_names_[static_cast<size_t>(kind)]);
  const Clock::time_point start = Clock::now();
  auto result = fn();
  stats_->Record(kind, MicrosBetween(start, Clock::now()), slots);
  return result;
}

sofya::StatusOr<sofya::ResultSet> TimingEndpoint::Select(
    const sofya::SelectQuery& query) {
  return Timed(CallKind::kSelect, 1, [&] { return inner_->Select(query); });
}

sofya::SelectBatchResult TimingEndpoint::SelectMany(
    std::span<const sofya::SelectQuery> queries) {
  return Timed(CallKind::kSelectMany, queries.size(),
               [&] { return inner_->SelectMany(queries); });
}

sofya::StatusOr<bool> TimingEndpoint::Ask(const sofya::SelectQuery& query) {
  return Timed(CallKind::kAsk, 1, [&] { return inner_->Ask(query); });
}

sofya::AskBatchResult TimingEndpoint::AskMany(
    std::span<const sofya::SelectQuery> queries) {
  return Timed(CallKind::kAskMany, queries.size(),
               [&] { return inner_->AskMany(queries); });
}

}  // namespace perfbench
