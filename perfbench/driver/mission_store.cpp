// mission_store: seeded missions through the shard backend (2 workers) into
// a result store that set-up creates fresh. Rows come in groups of six that
// share one thermal mission (workload, repeats, flow, step, full or reduced
// transient backend) and differ only in tank size and starting SOC, so each
// group costs two trajectory-cache misses (one per worker) and four hits
// that do no thermal work. The workload covers the transient engine
// (phase-aligned steps, warm starts, ROM build and fallback), the per-step
// bus supply solve, the trajectory cache and the store's claim/append path.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "chip/power7.h"
#include "core/mission.h"
#include "flowcell/cell_array.h"
#include "sweep/evaluators.h"
#include "sweep/plan.h"
#include "sweep/result_store.h"
#include "sweep/scenario_hash.h"

namespace perfbench {

namespace {

namespace co = brightsi::core;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;

constexpr int kWorkers = 2;
constexpr int kGroupRows = 6;
constexpr const char* kScope = "mission_store";

/// One block of the stream: these six thermal missions (workload kind,
/// transient backend 0 full / 1 ROM, trace repeats, nominal step) in a
/// seeded order, each step widened by a seeded 0-4 ms. The steps are
/// chosen so every mission's first run costs about the same (the burst
/// trace costs about twice as much per step, so it runs half the steps):
/// row times then fall into two tight classes, trajectory-cache hits and
/// misses, and neither the median nor the p90 sits on a boundary between
/// classes. Every block costs the same; the seed changes order, flow,
/// steps, tanks and SOCs, not the amount of work a run measures. Most
/// steps do not divide the trace's phase lengths.
struct Mission {
  int kind, transient, repeats;
  double dt_s;
};
constexpr Mission kMissions[] = {
    {0, 0, 2, 0.09},  {1, 0, 1, 0.14}, {2, 0, 2, 0.09},
    {0, 1, 1, 0.045}, {1, 1, 1, 0.14}, {2, 1, 2, 0.09},
};
constexpr int kBlockGroups = static_cast<int>(std::size(kMissions));
constexpr int kStreamBlocks = 80;

std::vector<sw::ScenarioSpec> generate(std::uint64_t seed) {
  std::vector<sw::ScenarioSpec> stream;
  for (int block = 0; block < kStreamBlocks; ++block) {
    Rng rng(seed, 0x3155100ULL + static_cast<std::uint64_t>(block));
    const std::vector<int> order = rng.permutation(kBlockGroups);
    // One flow from each of six strata over [200, 1000) ml/min per block,
    // and per group one tank from each of six strata over [2, 20) ml and
    // one starting SOC from each of six strata over [0.5, 0.95), in seeded
    // pairings: the supply solve a row makes depends on both.
    const std::vector<int> flow_stratum = rng.permutation(kBlockGroups);
    for (int g = 0; g < kBlockGroups; ++g) {
      const auto at = static_cast<std::size_t>(g);
      const Mission& m = kMissions[order[at]];
      const int group = block * kBlockGroups + g;
      const double flow = 200.0 + 133.0 * flow_stratum[at] + rng.integer(0, 132);
      const double dt = (std::round(m.dt_s * 1000.0) + rng.integer(0, 4)) / 1000.0;
      const std::vector<int> tank_stratum = rng.permutation(kGroupRows);
      const std::vector<int> soc_stratum = rng.permutation(kGroupRows);
      for (int j = 0; j < kGroupRows; ++j) {
        const auto row = static_cast<std::size_t>(j);
        char name[24];
        std::snprintf(name, sizeof(name), "m%05d.%d", group, j);
        sw::ScenarioSpec spec;
        spec.name = name;
        spec.set("workload_kind", m.kind);
        spec.set("transient", m.transient);
        spec.set("workload_repeats", m.repeats);
        spec.set("flow_ml_min", flow);
        spec.set("mission_dt_s", dt);
        spec.set("tank_ml", (20.0 + 30.0 * tank_stratum[row] + rng.integer(0, 29)) / 10.0);
        spec.set("initial_soc", (50.0 + 7.5 * soc_stratum[row] + rng.integer(0, 7)) / 100.0);
        stream.push_back(std::move(spec));
      }
    }
  }
  return stream;
}

/// The mission the registered mission evaluator runs for a scenario,
/// mirrored so the check and the probe can call run_mission directly.
co::MissionConfig mission_of(const co::SystemConfig& config, const sw::ScenarioSpec& spec) {
  co::MissionConfig mission;
  mission.system = config;
  mission.workload = workload_trace(static_cast<int>(spec.get("workload_kind").value_or(1.0)),
                                    static_cast<int>(spec.get("workload_repeats").value_or(1.0)));
  mission.reservoir.tank_volume_m3 = spec.get("tank_ml").value_or(5.0) * 1e-6;
  mission.reservoir.total_vanadium_mol_per_m3 = 2001.0;
  mission.reservoir.chemistry = config.chemistry;
  mission.initial_soc = spec.get("initial_soc").value_or(0.95);
  mission.dt_s = spec.get("mission_dt_s").value_or(0.1);
  mission.transient_backend = spec.get("transient").value_or(0.0) != 0.0
                                  ? th::TransientBackend::kRom
                                  : th::TransientBackend::kFull;
  return mission;
}

std::string group_of(const std::string& key) { return key.substr(0, key.find('.')); }

class MissionStore final : public Workload {
 public:
  [[nodiscard]] std::string unit_name() const override { return "mission step"; }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return plan_.evaluator.metrics;
  }

  void setup(const Options& options) override {
    plan_.name = kScope;
    plan_.base = co::power7_system_config();
    plan_.base.thermal_grid.axial_cells = 8;
    plan_.base.fvm.axial_steps = 60;
    plan_.evaluator = sw::mission_evaluator();
    plan_.scenarios = generate(options.seed);
    plan_.validate();

    out_dir_ = options.out_dir;
    open_fresh_store("store");
  }

  void rewind() override {
    next_ = 0;
    open_fresh_store("store-pass" + std::to_string(++rewinds_));
  }

  /// One execute() per group, so both workers start on the group's
  /// trajectory-cache misses and share its hits.
  bool run_block(std::vector<Row>& rows) override {
    if (next_ >= plan_.scenarios.size()) {
      return false;
    }
    for (int g = 0; g < kBlockGroups; ++g) {
      run_scenarios(plan_, next_, kGroupRows, rows);
      next_ += kGroupRows;
    }
    return true;
  }

  [[nodiscard]] double nominal_block_s() const override { return 4.5; }
  [[nodiscard]] double units_of(const Row& row) const override {
    return metric(row, plan_.evaluator.metrics, "steps");
  }

  /// Rows do not carry the reduced model's certificate, so every group on
  /// the ROM backend is run once more through run_mission (on kWorkers
  /// threads); the group's rows share that thermal trajectory bit for bit.
  void check(std::vector<Row>& rows) override {
    std::map<std::string, sw::ScenarioSpec> rom_groups;
    for (const Row& row : rows) {
      const sw::ScenarioSpec spec = spec_of(row);
      if (spec.get("transient").value_or(0.0) != 0.0) {
        rom_groups.emplace(group_of(row.key), spec);
      }
    }
    std::vector<const sw::ScenarioSpec*> specs;
    for (const auto& [group, spec] : rom_groups) {
      specs.push_back(&spec);
    }
    std::vector<double> bounds(specs.size(), std::numeric_limits<double>::quiet_NaN());
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      std::shared_ptr<const th::ThermalModel> model;  // one structure across the groups
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        try {
          const co::SystemConfig config = sw::apply_scenario(plan_.base, *specs[i]);
          if (model == nullptr) {
            const auto floorplan = brightsi::chip::make_power7_floorplan(config.power_spec);
            model = std::make_shared<const th::ThermalModel>(
                config.stack, floorplan.die_width(), floorplan.die_height(), config.thermal_grid);
          }
          bounds[i] = co::run_mission(mission_of(config, *specs[i]), model).rom_max_bound_k;
        } catch (const std::exception&) {
          // left NaN: the group's rows fail the bound check
        }
      }
    };
    std::vector<std::thread> helpers;
    for (int t = 1; t < kWorkers; ++t) {
      helpers.emplace_back(work);
    }
    work();
    for (std::thread& helper : helpers) {
      helper.join();
    }
    std::map<std::string, double> bound_of_group;
    std::size_t i = 0;
    for (const auto& [group, spec] : rom_groups) {
      bound_of_group[group] = bounds[i++];
    }
    for (Row& row : rows) {
      const auto it = bound_of_group.find(group_of(row.key));
      if (it != bound_of_group.end()) {
        row.checks.emplace_back("rom_max_bound_k", it->second);
      }
    }
  }

  void probe(const std::vector<Row>& rows, Tracer& tracer, Layers& layers) override {
    // Two groups per transient backend, one mission each, with its own
    // model build (a trajectory-cache miss re-driven layer by layer).
    std::vector<double> step_ms, thermal_fraction, iters_per_step, build_ms;
    std::vector<double> rom_fraction, rom_fallbacks, rom_build_ms;
    std::set<std::string> seen;
    int full_runs = 0;
    int rom_runs = 0;
    std::optional<brightsi::flowcell::FlowCellArray> array;
    for (const Row& row : rows) {
      const sw::ScenarioSpec spec = spec_of(row);
      const bool rom = spec.get("transient").value_or(0.0) != 0.0;
      int& runs = rom ? rom_runs : full_runs;
      if (runs >= 2 || !seen.insert(group_of(row.key)).second) {
        continue;
      }
      ++runs;
      const co::SystemConfig config = sw::apply_scenario(plan_.base, spec);
      std::shared_ptr<const th::ThermalModel> model;
      {
        const auto floorplan = brightsi::chip::make_power7_floorplan(config.power_spec);
        ScopedSpan span(&tracer, spec.name, "thermal.model_build");
        model = std::make_shared<const th::ThermalModel>(config.stack, floorplan.die_width(),
                                                         floorplan.die_height(),
                                                         config.thermal_grid);
        build_ms.push_back(span.elapsed_s() * 1e3);
      }
      co::MissionResult result;
      double wall_s = 0.0;
      {
        ScopedSpan span(&tracer, spec.name, "core.mission");
        result = co::run_mission(mission_of(config, spec), model);
        wall_s = span.elapsed_s();
        span.set_args("{\"steps\":" + std::to_string(result.steps) +
                      ",\"rom_steps\":" + std::to_string(result.rom_steps) + "}");
      }
      const double steps = static_cast<double>(result.steps);
      step_ms.push_back(wall_s * 1e3 / steps);
      if (!rom) {
        // A reduced step's time is in no MissionResult bucket, so the
        // thermal share and Krylov load are read off full-backend missions.
        thermal_fraction.push_back((result.thermal_assembly_time_s +
                                    result.thermal_setup_time_s + result.thermal_solve_time_s) /
                                   wall_s);
        iters_per_step.push_back(static_cast<double>(result.thermal_iterations) / steps);
      } else {
        rom_fraction.push_back(static_cast<double>(result.rom_steps) / steps);
        rom_fallbacks.push_back(static_cast<double>(result.rom_fallbacks));
        rom_build_ms.push_back(result.rom_build_time_s * 1e3);
      }
      if (!array) {
        array.emplace(config.array_spec, config.chemistry, config.fvm);
      }
    }
    if (array) {
      std::vector<double> eval_ms;
      for (int repeat = 0; repeat < 5; ++repeat) {
        ScopedSpan span(&tracer, "current_at_voltage 1 V", "flowcell.current_eval");
        (void)array->current_at_voltage(1.0, {array->spec().inlet_temperature_k});
        eval_ms.push_back(span.elapsed_s() * 1e3);
      }
      layers["flowcell.current_eval_ms"] = median(eval_ms);
    }
    layers["core.mission_step_ms"] = median(step_ms);
    layers["core.mission_thermal_fraction"] = median(thermal_fraction);
    layers["thermal.krylov_iters_per_mission_step"] = median(iters_per_step);
    layers["thermal.model_build_ms"] = median(build_ms);
    layers["thermal.rom_step_fraction"] = median(rom_fraction);
    layers["thermal.rom_fallbacks"] = median(rom_fallbacks);
    layers["thermal.rom_build_ms"] = median(rom_build_ms);

    // Store append path, on a probe store of its own.
    {
      const std::string probe_dir =
          (std::filesystem::path(store_dir_).parent_path() / "store_append_probe").string();
      std::filesystem::remove_all(probe_dir);
      sw::ResultStore store(probe_dir,
                            sw::StoreScope{"mission_store_probe", plan_.evaluator.name,
                                           plan_.evaluator.metrics});
      std::vector<double> append_ms;
      for (const Row& row : rows) {
        const sw::ScenarioHash hash = sw::hash_scenario(spec_of(row), store.salt());
        ScopedSpan span(&tracer, row.result.name, "sweep.store_append");
        store.append(hash, row.result);
        append_ms.push_back(span.elapsed_s() * 1e3);
      }
      layers["sweep.store_append_ms"] = median(append_ms);
    }
    // Warm re-resolve: every timed row again, against the finished store.
    {
      sw::ShardOptions shard;
      shard.store_dir = store_dir_;
      shard.scope = kScope;
      shard.local.thread_count = kWorkers;
      const auto resolver = sw::make_shard_backend(shard);
      std::vector<sw::ScenarioSpec> scenarios;
      for (const Row& row : rows) {
        scenarios.push_back(spec_of(row));
      }
      std::vector<sw::ScenarioResult> resolved;
      ScopedSpan span(&tracer, std::to_string(scenarios.size()) + " rows",
                      "sweep.store_resolve");
      resolver->execute(plan_.base, plan_.evaluator, scenarios, resolved);
      layers["sweep.store_resolve_us"] =
          scenarios.empty() ? 0.0 : span.elapsed_s() * 1e6 / static_cast<double>(scenarios.size());
    }
  }

  [[nodiscard]] long long model_cache_lookups(const sw::ExecutionStats& delta) const override {
    return delta.evaluated - delta.trajectory_hits;  // a trajectory hit builds no model
  }

  [[nodiscard]] std::string inputs_json(const std::vector<Row>& rows) const override {
    return scenario_inputs_json(
        R"("base":"power7_system_config, axial_cells=8, fvm.axial_steps=60",)"
        R"("evaluator":"mission","backend":"shard 0/1")",
        rows);
  }

 private:
  /// Creates an empty store in `name` under the output directory and a shard
  /// backend (one shard, so every row is this process's) writing into it.
  void open_fresh_store(const std::string& name) {
    store_dir_ = (std::filesystem::path(out_dir_) / name).string();
    std::filesystem::remove_all(store_dir_);
    {
      const sw::ResultStore store(
          store_dir_, sw::StoreScope{kScope, plan_.evaluator.name, plan_.evaluator.metrics});
    }
    sw::ShardOptions shard;
    shard.store_dir = store_dir_;
    shard.scope = kScope;
    shard.local.thread_count = kWorkers;
    use_backend(sw::make_shard_backend(shard));
  }

  sw::SweepPlan plan_;
  std::string out_dir_;
  std::string store_dir_;
  int rewinds_ = 0;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_mission_store() { return std::make_unique<MissionStore>(); }

}  // namespace perfbench
