// cosim_sweep: seeded operating points of the single-die POWER7+ through the
// registered cosim evaluator on the local backend (2 workers). Every row is
// one IntegratedMpsocSystem::run on the worker's cached thermal structure,
// so the steady thermal solve, the supply solve and the PDN rail do nearly
// all the work. power_scale reaches past the supply's feasibility edge and
// the VRM tap grid changes from row to row, so a supply or PDN shortcut has
// to hold on infeasible rows and on rows that share no taps.
#include <cstdio>

#include "bench.h"
#include "sweep/evaluators.h"
#include "sweep/plan.h"

namespace perfbench {

namespace {

namespace co = brightsi::core;
namespace sw = brightsi::sweep;

constexpr int kWorkers = 2;
/// One stratified block is one execute() batch: each of flow, inlet
/// temperature, power_scale and VRM resistance is drawn once from each of
/// its ten strata, and each tap grid twice, in seeded pairings, so every
/// block holds the same cost mix whatever the seed.
constexpr int kBlock = 10;
constexpr int kStreamBlocks = 200;

std::vector<sw::ScenarioSpec> generate(std::uint64_t seed) {
  std::vector<sw::ScenarioSpec> stream;
  stream.reserve(static_cast<std::size_t>(kBlock * kStreamBlocks));
  for (int block = 0; block < kStreamBlocks; ++block) {
    Rng rng(seed, static_cast<std::uint64_t>(block));
    const std::vector<int> scale_stratum = rng.permutation(kBlock);
    const std::vector<int> taps = rng.permutation(kBlock);
    const std::vector<int> flow_stratum = rng.permutation(kBlock);
    const std::vector<int> inlet_stratum = rng.permutation(kBlock);
    const std::vector<int> r_stratum = rng.permutation(kBlock);
    for (int i = 0; i < kBlock; ++i) {
      const auto at = static_cast<std::size_t>(i);
      char name[16];
      std::snprintf(name, sizeof(name), "c%05d", block * kBlock + i);
      sw::ScenarioSpec spec;
      spec.name = name;
      // Strata: flow 180 ml/min wide over [200, 2000), inlet 2 C over
      // [27, 47), VRM resistance 4 mOhm over [10, 50).
      spec.set("flow_ml_min", 200.0 + 180.0 * flow_stratum[at] + rng.integer(0, 179));
      spec.set("inlet_c", (270.0 + 20.0 * inlet_stratum[at] + rng.integer(0, 19)) / 10.0);
      // Strata of width 0.08 over [0.8, 1.6): the upper ones leave the
      // supply infeasible (bus_v = 0).
      spec.set("power_scale", (800.0 + 80.0 * scale_stratum[at] + rng.integer(0, 79)) / 1000.0);
      spec.set("vrm_grid_n", 2.0 + taps[at] % 5);
      spec.set("vrm_r_mohm", (100.0 + 40.0 * r_stratum[at] + rng.integer(0, 39)) / 10.0);
      stream.push_back(std::move(spec));
    }
  }
  return stream;
}

class CosimSweep final : public Workload {
 public:
  [[nodiscard]] std::string unit_name() const override { return "cosim run"; }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return plan_.evaluator.metrics;
  }

  void setup(const Options& options) override {
    plan_.name = "cosim_sweep";
    plan_.base = co::power7_system_config();
    plan_.base.thermal_grid.axial_cells = 16;
    plan_.evaluator = sw::cosim_evaluator();
    plan_.scenarios = generate(options.seed);
    plan_.validate();
    use_backend(local_backend(kWorkers));
  }

  void rewind() override {
    next_ = 0;
    use_backend(local_backend(kWorkers));
  }

  bool run_block(std::vector<Row>& rows) override {
    if (next_ >= plan_.scenarios.size()) {
      return false;
    }
    run_scenarios(plan_, next_, kBlock, rows);
    next_ += kBlock;
    return true;
  }

  [[nodiscard]] double nominal_block_s() const override { return 1.25; }
  [[nodiscard]] double units_of(const Row&) const override { return 1.0; }

  void probe(const std::vector<Row>& rows, Tracer& tracer, Layers& layers) override {
    std::vector<sw::ScenarioSpec> sample;
    for (std::size_t i = 0; i < rows.size() && sample.size() < 4; ++i) {
      sample.push_back(spec_of(rows[i]));
    }
    probe_cosim_rows(plan_.base, sample, tracer, layers);
  }

  [[nodiscard]] long long model_cache_lookups(
      const sw::ExecutionStats& delta) const override {
    return delta.evaluated;
  }

  [[nodiscard]] std::string inputs_json(const std::vector<Row>& rows) const override {
    return scenario_inputs_json(
        R"("base":"power7_system_config, axial_cells=16","evaluator":"cosim")", rows);
  }

 private:
  sw::SweepPlan plan_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cosim_sweep() { return std::make_unique<CosimSweep>(); }

}  // namespace perfbench
