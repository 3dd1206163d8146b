// stack_nsga2: optimize_nsga2 on the registered stack_pareto study, one
// optimizer run after another on one shared local backend (2 workers); the
// first run's optimizer seed is the workload seed, run k's is seed + k. Each
// run keeps the optimizer's default sizing, as brightsi_opt does: budget 64,
// population 16, so a Latin-hypercube start and three surrogate-screened
// generations on a growing archive. The same cosim pipeline as cosim_sweep,
// driven differently: die_count, interlayer and channel_gap_um change
// structure between candidates, so model builds (structure-cache misses),
// multi-die operators, layer flow splits and the surrogate driver carry
// weight. A per-system cache that wins on cosim_sweep can lose here.
#include <cstdio>

#include "bench.h"
#include "opt/nsga2.h"
#include "opt/studies.h"

namespace perfbench {

namespace {

namespace opt = brightsi::opt;
namespace sw = brightsi::sweep;

constexpr int kWorkers = 2;
constexpr int kStreamRuns = 1000;

class StackNsga2 final : public Workload {
 public:
  [[nodiscard]] std::string unit_name() const override { return "optimizer evaluation"; }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return study_.evaluator.metrics;
  }

  void setup(const Options& options) override {
    study_ = opt::make_registered_study("stack_pareto");
    study_.validate();
    seeds_.clear();
    for (int k = 0; k < kStreamRuns; ++k) {
      seeds_.push_back(options.seed + static_cast<std::uint64_t>(k));
    }
    use_backend(local_backend(kWorkers));
  }

  void rewind() override {
    runs_ = 0;
    use_backend(local_backend(kWorkers));
  }

  bool run_block(std::vector<Row>& rows) override {
    if (runs_ >= seeds_.size()) {
      return false;
    }
    opt::Nsga2Options options;
    options.thread_count = kWorkers;
    options.seed = seeds_[runs_];
    options.backend = backend_;
    ScopedSpan span(tracer_, "optimize_nsga2 seed " + std::to_string(options.seed),
                    "opt.optimize_nsga2");
    opt::OptResult result = opt::optimize_nsga2(study_, options);
    optimize_s_ += span.elapsed_s();
    generations_ += result.generations;
    candidates_ += result.surrogate_candidates;
    screened_ += result.surrogate_screened;

    for (std::size_t i = 0; i < result.archive.rows.size(); ++i) {
      char key[48];
      std::snprintf(key, sizeof(key), "o%zu.%zu", runs_, i);
      rows.push_back(Row{key, std::move(result.archive.rows[i]), {}});
    }
    ++runs_;
    return true;
  }

  [[nodiscard]] double nominal_block_s() const override { return 4.4; }
  [[nodiscard]] double units_of(const Row&) const override { return 1.0; }

  void probe(const std::vector<Row>& rows, Tracer& tracer, Layers& layers) override {
    std::vector<sw::ScenarioSpec> sample;
    for (std::size_t i = 0; i < rows.size() && sample.size() < 4; ++i) {
      sample.push_back(spec_of(rows[i]));
    }
    probe_cosim_rows(study_.base, sample, tracer, layers);
    layers["opt.driver_fraction"] =
        optimize_s_ > 0.0 ? (optimize_s_ - tracing_->execute_s()) / optimize_s_ : 0.0;
    layers["opt.surrogate_screen_rate"] =
        candidates_ > 0 ? static_cast<double>(screened_) / static_cast<double>(candidates_)
                        : 0.0;
    layers["opt.generations"] =
        runs_ > 0 ? static_cast<double>(generations_) / static_cast<double>(runs_) : 0.0;
  }

  [[nodiscard]] long long model_cache_lookups(
      const sw::ExecutionStats& delta) const override {
    return delta.evaluated;
  }

  [[nodiscard]] std::string inputs_json(const std::vector<Row>&) const override {
    std::string seeds;
    for (std::size_t k = 0; k < runs_; ++k) {
      seeds += k == 0 ? "" : ",";
      seeds += std::to_string(seeds_[k]);
    }
    const opt::Nsga2Options defaults;
    return "{\"study\":\"stack_pareto\",\"algo\":\"nsga2\",\"budget\":" +
           std::to_string(defaults.budget) + ",\"population\":" +
           std::to_string(defaults.population) + ",\"optimizer_seeds\":[" + seeds + "]}";
  }

 private:
  opt::Study study_;
  std::vector<std::uint64_t> seeds_;
  std::size_t runs_ = 0;
  double optimize_s_ = 0.0;
  long long generations_ = 0;
  long long candidates_ = 0;
  long long screened_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stack_nsga2() { return std::make_unique<StackNsga2>(); }

}  // namespace perfbench
