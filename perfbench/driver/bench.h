// Shared pieces of the benchmark driver: the seeded generator, the row
// record, the workload interface the timed loop drives, and the layer-metric
// table a traced run fills.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chip/workload.h"
#include "core/system_config.h"
#include "sweep/execution.h"
#include "sweep/plan.h"
#include "trace.h"

namespace perfbench {

/// splitmix64: the same stream on every platform and standard library
/// (std::*_distribution is implementation-defined), so a seed replays
/// exactly anywhere.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream);

  std::uint64_t next();
  /// Uniform in [lo, hi) on the grid lo + k * step; step is 1 or 1/n.
  double uniform(double lo, double hi, double step);
  /// Uniform integer in [lo, hi].
  int integer(int lo, int hi);
  /// A permutation of 0..n-1.
  std::vector<int> permutation(int n);

 private:
  std::uint64_t state_;
};

/// One result row of the timed phase plus the check values the benchmark
/// derives for it outside the timed window.
struct Row {
  std::string key;  ///< position in the generated stream; reference rows key on it
  brightsi::sweep::ScenarioResult result;
  std::vector<std::pair<std::string, double>> checks;
  int pass = 0;  ///< timed pass that ran it; every pass runs the same keys
};

/// Wall and process CPU seconds of one execute() batch.
struct BatchTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Wall and CPU time of one block of one timed pass, and of the execute()
/// batches it ran, in order.
struct BlockTime {
  int pass = 0;
  std::size_t block = 0;  ///< index within the pass; pass k repeats pass 0's blocks
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t rows = 0;
  double units = 0.0;
  std::vector<BatchTime> batches;
};

/// Process CPU seconds (user + system, all threads) from getrusage.
[[nodiscard]] double process_cpu_s();

/// Wraps the backend a workload injects, in every run: times each execute()
/// batch, so run.py can count every batch of a block at its fastest pass.
class TimingBackend final : public brightsi::sweep::ExecutionBackend {
 public:
  explicit TimingBackend(std::shared_ptr<brightsi::sweep::ExecutionBackend> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] int thread_count() const override { return inner_->thread_count(); }
  void execute(const brightsi::core::SystemConfig& base,
               const brightsi::sweep::SweepEvaluator& evaluator,
               const std::vector<brightsi::sweep::ScenarioSpec>& scenarios,
               std::vector<brightsi::sweep::ScenarioResult>& rows) override;
  [[nodiscard]] brightsi::sweep::ExecutionStats stats() const override {
    return inner_->stats();
  }

  /// The batches timed since the last call.
  [[nodiscard]] std::vector<BatchTime> take() { return std::exchange(batches_, {}); }

 private:
  std::shared_ptr<brightsi::sweep::ExecutionBackend> inner_;
  std::vector<BatchTime> batches_;
};

/// Per-layer metric name -> value. Every name is present in every traced
/// run; a layer the workload never enters reads 0.
using Layers = std::map<std::string, double>;

/// The per-layer metric names the driver emits, in report order: all of
/// them but trace_overhead_fraction, which run.py derives from a traced and
/// an untraced run.
[[nodiscard]] const std::vector<std::string>& layer_metric_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  long long max_rows = -1;  ///< stop after this many rows (< 0 = time only)
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// What one unit of work is ("cosim run", "rack chip-step", ...).
  [[nodiscard]] virtual std::string unit_name() const = 0;
  [[nodiscard]] virtual std::vector<std::string> metric_names() const = 0;

  /// Generates the seeded inputs and builds configs, backend and store.
  virtual void setup(const Options& options) = 0;
  /// Runs the next block of the generated stream, appending its rows; every
  /// block holds the same mix of work, and the timed phase ends only
  /// between blocks. False once the stream is exhausted.
  virtual bool run_block(std::vector<Row>& rows) = 0;
  /// Untraced runs only, between timed passes: starts the stream over on a
  /// fresh backend (and store), as set-up left it, so the next pass repeats
  /// the same rows from the same cold caches.
  virtual void rewind() = 0;
  /// Wall seconds one block takes on the reference host (4-core Xeon VM) at
  /// this commit. A run measures as many blocks as fill --seconds at this
  /// pace, the same number whatever the host's speed of the moment.
  [[nodiscard]] virtual double nominal_block_s() const = 0;
  /// Units of work in one row.
  [[nodiscard]] virtual double units_of(const Row& row) const = 0;
  /// Untimed: fills the check values a row's own metrics cannot show.
  virtual void check(std::vector<Row>& /*rows*/) {}
  /// Traced run only, after the timed rows: re-drives a sample of rows
  /// through the layers' public entry points.
  virtual void probe(const std::vector<Row>& rows, Tracer& tracer, Layers& layers) = 0;
  /// Thermal-model cache lookups the rows made (0 when the evaluator
  /// bypasses the worker cache).
  [[nodiscard]] virtual long long model_cache_lookups(
      const brightsi::sweep::ExecutionStats& delta) const = 0;
  /// The generated inputs of the scheduled rows, as a JSON value.
  [[nodiscard]] virtual std::string inputs_json(const std::vector<Row>& rows) const = 0;

  /// Puts the tracing decorator in front of the injected backend.
  void trace_with(Tracer& tracer);
  /// The execute() batches run since the last call.
  [[nodiscard]] std::vector<BatchTime> take_batches() { return timing_->take(); }
  [[nodiscard]] brightsi::sweep::ExecutionStats stats() const { return backend_->stats(); }
  [[nodiscard]] int workers() const { return backend_->thread_count(); }

 protected:
  /// Runs scenarios [first, first + count) of `plan` as one SweepRunner
  /// batch on the backend, appending the rows keyed by scenario name.
  void run_scenarios(const brightsi::sweep::SweepPlan& plan, std::size_t first,
                     std::size_t count, std::vector<Row>& rows);

  /// Injects `backend` behind the batch timer.
  void use_backend(std::shared_ptr<brightsi::sweep::ExecutionBackend> backend);

  std::shared_ptr<brightsi::sweep::ExecutionBackend> backend_;
  TimingBackend* timing_ = nullptr;    ///< owned through backend_
  Tracer* tracer_ = nullptr;           ///< null unless tracing
  TracingBackend* tracing_ = nullptr;  ///< owned through backend_ when tracing
};

/// The local (in-process) backend with `workers` threads.
[[nodiscard]] std::shared_ptr<brightsi::sweep::ExecutionBackend> local_backend(int workers);

[[nodiscard]] std::unique_ptr<Workload> make_cosim_sweep();
[[nodiscard]] std::unique_ptr<Workload> make_stack_nsga2();
[[nodiscard]] std::unique_ptr<Workload> make_fleet_replay();
[[nodiscard]] std::unique_ptr<Workload> make_mission_store();

/// Scenario of a result row (name and overrides), for re-driving it.
[[nodiscard]] brightsi::sweep::ScenarioSpec spec_of(const Row& row);
/// Value of evaluator metric `name` in a row.
[[nodiscard]] double metric(const Row& row, const std::vector<std::string>& names,
                            const std::string& name);
/// Median of a non-empty sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);
/// inputs_json() of a workload whose inputs are scenarios: `fields` (JSON
/// members describing the base) plus "scenarios": the scheduled rows'
/// names and overrides.
[[nodiscard]] std::string scenario_inputs_json(const std::string& fields,
                                               const std::vector<Row>& rows);

/// The workload trace behind the registered evaluators' workload_kind /
/// workload_repeats knobs (0 full load, 1 burst, 2 memory bound), mirrored
/// here because the probes call the layers below the evaluators directly.
[[nodiscard]] brightsi::chip::WorkloadTrace workload_trace(int kind, int repeats);

/// Re-drives co-simulation rows through core, thermal, pdn and flowcell
/// entry points (shared by the cosim and stack workloads).
void probe_cosim_rows(const brightsi::core::SystemConfig& base,
                      const std::vector<brightsi::sweep::ScenarioSpec>& sample, Tracer& tracer,
                      Layers& layers);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
