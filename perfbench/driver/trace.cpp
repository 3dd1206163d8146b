#include "trace.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace sw = brightsi::sweep;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::thread_index_locked() {
  const auto [it, inserted] =
      thread_ids_.emplace(std::this_thread::get_id(), static_cast<int>(thread_ids_.size()));
  return it->second;
}

void Tracer::record(std::string name, std::string cat, double ts_us, double dur_us,
                    std::string args_json) {
  std::lock_guard lock(mutex_);
  spans_.push_back({std::move(name), std::move(cat), ts_us, dur_us, thread_index_locked(),
                    std::move(args_json)});
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"perfbench"}})";
  for (const auto& [id, tid] : thread_ids_) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":"
        << json_string(tid == 0 ? "main" : "worker " + std::to_string(tid)) << "}}";
  }
  for (const Span& span : spans_) {
    out << ",\n{\"name\":" << json_string(span.name) << ",\"cat\":" << json_string(span.cat)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid << ",\"ts\":" << json_number(span.ts_us)
        << ",\"dur\":" << json_number(span.dur_us);
    if (!span.args_json.empty()) {
      out << ",\"args\":" << span.args_json;
    }
    out << "}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string cat)
    : tracer_(tracer),
      name_(std::move(name)),
      cat_(std::move(cat)),
      start_(std::chrono::steady_clock::now()),
      start_us_(tracer != nullptr ? tracer->now_us() : 0.0) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) {
    tracer_->record(std::move(name_), std::move(cat_), start_us_, elapsed_s() * 1e6,
                    std::move(args_json_));
  }
}

double ScopedSpan::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

TracingBackend::TracingBackend(std::shared_ptr<sw::ExecutionBackend> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void TracingBackend::execute(const brightsi::core::SystemConfig& base,
                             const sw::SweepEvaluator& evaluator,
                             const std::vector<sw::ScenarioSpec>& scenarios,
                             std::vector<sw::ScenarioResult>& rows) {
  sw::SweepEvaluator traced = evaluator;
  traced.fn = [fn = evaluator.fn, tracer = &tracer_](const brightsi::core::SystemConfig& config,
                                                     const sw::ScenarioSpec& scenario,
                                                     sw::WorkerState& worker) {
    const ScopedSpan span(tracer, scenario.name, "sweep.row");
    return fn(config, scenario, worker);
  };

  const sw::ExecutionStats before = inner_->stats();
  ScopedSpan span(&tracer_, "execute " + std::to_string(scenarios.size()) + " rows",
                  "sweep.execute");
  inner_->execute(base, traced, scenarios, rows);
  const sw::ExecutionStats after = inner_->stats();
  execute_s_ += span.elapsed_s();
  span.set_args("{\"rows\":" + std::to_string(scenarios.size()) +
                ",\"evaluated\":" + std::to_string(after.evaluated - before.evaluated) +
                ",\"store_hits\":" + std::to_string(after.store_hits - before.store_hits) +
                ",\"model_builds\":" + std::to_string(after.model_builds - before.model_builds) +
                ",\"trajectory_hits\":" +
                std::to_string(after.trajectory_hits - before.trajectory_hits) + "}");
}

}  // namespace perfbench
