// Span recording for the traced benchmark run: an in-memory span list
// written out as Chrome trace-event JSON (loads in Perfetto / chrome://tracing),
// plus the ExecutionBackend decorator that records one span per execute()
// batch and per evaluated row without touching the library.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sweep/execution.h"

namespace perfbench {

struct Span {
  std::string name;
  std::string cat;  ///< "<layer>.<entry point>", e.g. "thermal.steady_solve"
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::string args_json;  ///< a JSON object, or empty
};

/// Thread-safe span sink. Times are microseconds since construction.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] double now_us() const;
  void record(std::string name, std::string cat, double ts_us, double dur_us,
              std::string args_json = {});
  void write_chrome_json(const std::string& path) const;

 private:
  int thread_index_locked();

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> thread_ids_;
};

/// Records [construction, destruction) as one span; a null tracer records
/// nothing, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string cat);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Seconds since construction.
  [[nodiscard]] double elapsed_s() const;
  void set_args(std::string args_json) { args_json_ = std::move(args_json); }

 private:
  Tracer* tracer_;
  std::string name_;
  std::string cat_;
  std::string args_json_;
  std::chrono::steady_clock::time_point start_;
  double start_us_ = 0.0;
};

/// Wraps the backend a workload injects: every execute() becomes a
/// "sweep.execute" span carrying its ExecutionStats delta, and every
/// evaluator call a "sweep.row" span on the worker thread that ran it.
class TracingBackend final : public brightsi::sweep::ExecutionBackend {
 public:
  TracingBackend(std::shared_ptr<brightsi::sweep::ExecutionBackend> inner, Tracer& tracer);

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] int thread_count() const override { return inner_->thread_count(); }
  void execute(const brightsi::core::SystemConfig& base,
               const brightsi::sweep::SweepEvaluator& evaluator,
               const std::vector<brightsi::sweep::ScenarioSpec>& scenarios,
               std::vector<brightsi::sweep::ScenarioResult>& rows) override;
  [[nodiscard]] brightsi::sweep::ExecutionStats stats() const override {
    return inner_->stats();
  }

  /// Wall seconds spent inside inner execute() calls.
  [[nodiscard]] double execute_s() const { return execute_s_; }

 private:
  std::shared_ptr<brightsi::sweep::ExecutionBackend> inner_;
  Tracer& tracer_;
  double execute_s_ = 0.0;
};

/// JSON string literal (quotes and escapes included).
[[nodiscard]] std::string json_string(const std::string& text);
/// Shortest round-trip decimal of a finite double; non-finite values
/// become null.
[[nodiscard]] std::string json_number(double value);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
