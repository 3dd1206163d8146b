// fleet_replay: seeded racks through the registered fleet_replay evaluator
// with one sweep worker (the other cores stay free for parallelism inside a
// rack). Per-chip backward-Euler steps and the per-step loop walk do all the
// work; the supply solve and the PDN are never called. Each row replays 10
// steps, as bench/fleet_throughput does, so most measured chip-steps are
// warm ones past the uniform start. Rows are checked on invariants only:
// phase sampling in the replay may legitimately change its values. Steps of
// rack_dt_s mostly do not divide the trace's phase lengths.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>

#include "bench.h"
#include "chip/power7.h"
#include "fleet/rack.h"
#include "hydraulics/manifold.h"
#include "sweep/evaluators.h"
#include "sweep/plan.h"
#include "thermal/solve_context.h"

namespace perfbench {

namespace {

namespace ch = brightsi::chip;
namespace co = brightsi::core;
namespace fl = brightsi::fleet;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;

constexpr int kWorkers = 1;
constexpr int kStreamBlocks = 100;
constexpr int kSteps = 10;
constexpr int kSplitRepeats = 200;

/// One block of the stream: these ten racks (chips, loops, segments per
/// loop, heterogeneous stacks, temperature-dependent coolant, workload kind,
/// 12 ms step stratum) in a seeded order. Together they cover 4-8 chips, 1-2
/// loops, 1-4 segments, mixed stacks, both coolant models, every workload
/// kind and steps over [0.03, 0.15) s, mostly not dividing the trace's phase
/// lengths. Each rack keeps its cost class whatever the seed, so every block
/// costs the same and the median rack is the same class in every run; the
/// seed draws the order, each rack's step within its stratum and the
/// workload stagger.
struct Rack {
  int chips, loops, segments, hetero, temp_dep, kind, dt_stratum;
};
constexpr Rack kRacks[] = {
    {4, 1, 1, 0, 1, 0, 3}, {5, 2, 2, 1, 0, 1, 7}, {6, 1, 3, 1, 1, 2, 0}, {7, 2, 4, 0, 0, 0, 5},
    {8, 1, 2, 1, 1, 1, 9}, {4, 2, 4, 1, 0, 2, 2}, {5, 1, 4, 0, 1, 0, 8}, {6, 2, 1, 1, 0, 1, 1},
    {7, 1, 2, 1, 1, 2, 6}, {8, 2, 3, 0, 0, 0, 4},
};
constexpr int kBlock = static_cast<int>(std::size(kRacks));

std::vector<sw::ScenarioSpec> generate(std::uint64_t seed) {
  std::vector<sw::ScenarioSpec> stream;
  for (int block = 0; block < kStreamBlocks; ++block) {
    Rng rng(seed, 0xF1EE7000ULL + static_cast<std::uint64_t>(block));
    const std::vector<int> order = rng.permutation(kBlock);
    for (int i = 0; i < kBlock; ++i) {
      const Rack& rack = kRacks[order[static_cast<std::size_t>(i)]];
      char name[16];
      std::snprintf(name, sizeof(name), "f%05d", block * kBlock + i);
      sw::ScenarioSpec spec;
      spec.name = name;
      spec.set("rack_chips", rack.chips);
      spec.set("rack_loops", rack.loops);
      spec.set("rack_segments", rack.segments);
      spec.set("rack_hetero", rack.hetero);
      spec.set("coolant_temp_dep", rack.temp_dep);
      spec.set("rack_stagger_s", rng.uniform(0.0, 1.0, 0.01));
      spec.set("workload_kind", rack.kind);
      spec.set("rack_dt_s", (30.0 + 12.0 * rack.dt_stratum + rng.integer(0, 11)) / 1000.0);
      spec.set("rack_steps", kSteps);
      stream.push_back(std::move(spec));
    }
  }
  return stream;
}

/// The rack the fleet evaluators build from a scenario's rack knobs,
/// mirrored so the probe can call the fleet layer directly.
fl::RackSpec rack_of(const co::SystemConfig& config, const sw::ScenarioSpec& spec) {
  fl::RackSpec rack = fl::make_demo_rack(
      config, static_cast<int>(spec.get("rack_chips").value_or(4.0)),
      static_cast<int>(spec.get("rack_loops").value_or(1.0)),
      static_cast<int>(spec.get("rack_segments").value_or(2.0)),
      spec.get("rack_hetero").value_or(0.0) != 0.0,
      static_cast<int>(spec.get("rack_blocked").value_or(0.0)));
  rack.loop_flow_m3_per_s = spec.get("rack_flow_ml_min").value_or(676.0) * 1e-6 / 60.0;
  rack.loop_inlet_temperature_k = spec.get("rack_inlet_c").value_or(26.85) + 273.15;
  rack.coolant_laws.temperature_dependent = spec.get("coolant_temp_dep").value_or(0.0) != 0.0;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  const double stagger_s = spec.get("rack_stagger_s").value_or(0.0);
  for (std::size_t i = 0; i < rack.chips.size(); ++i) {
    rack.chips[i].workload_offset_s = static_cast<double>(i) * stagger_s;
  }
  return rack;
}

/// Transient steps re-driven by the fleet probe, summed over chips.
struct ChipSteps {
  double seconds = 0.0;
  double iterations = 0.0;
  double count = 0.0;
};

/// Re-drives the replay's chip work outside the loop walk: one model build
/// per chip kind (stack), as the replay shares models between identical
/// chips, then every live chip's steps from the uniform start under its own
/// offset phase of the trace, at the chip's final-step flow and inlet.
/// Returns the seconds the builds and steps took.
double probe_chips(const fl::RackSpec& rack, const fl::FleetReplayOptions& options,
                   const fl::FleetReplayResult& replay, Tracer& tracer,
                   std::vector<double>& build_ms, ChipSteps& steps) {
  double chips_s = 0.0;
  const double trace_s = options.trace.total_duration_s();
  std::vector<const th::StackSpec*> kinds;
  std::vector<std::unique_ptr<th::ThermalModel>> models;  // indexed like `kinds`
  for (std::size_t c = 0; c < rack.chips.size(); ++c) {
    const fl::RackChip& chip = rack.chips[c];
    if (chip.blocked) {
      continue;
    }
    std::size_t kind = 0;
    while (kind < kinds.size() && *kinds[kind] != chip.system.stack) {
      ++kind;
    }
    if (kind == kinds.size()) {
      const ch::Floorplan die = ch::make_power7_floorplan(chip.system.power_spec);
      ScopedSpan span(&tracer, chip.name, "thermal.model_build");
      models.push_back(std::make_unique<th::ThermalModel>(
          chip.system.stack, die.die_width(), die.die_height(), chip.system.thermal_grid));
      chips_s += span.elapsed_s();
      build_ms.push_back(span.elapsed_s() * 1e3);
      kinds.push_back(&chip.system.stack);
    }
    const th::ThermalModel& model = *models[kind];
    const fl::RackChipResult& final_chip = replay.final_chips[c];
    const th::OperatingPoint op = chip.system.loop_operating_point(
        final_chip.flow_m3_per_s, final_chip.inlet_temperature_k, rack.coolant_laws);
    th::ThermalSolveContext context(model);
    auto state = model.uniform_state(rack.loop_inlet_temperature_k);
    for (int step = 0; step < options.steps; ++step) {
      const ch::WorkloadPhase& phase = options.trace.phase_at(
          std::fmod(step * options.dt_s + chip.workload_offset_s, trace_s));
      std::vector<ch::Floorplan> dies{ch::apply_phase(chip.system.power_spec, phase)};
      for (const ch::Power7PowerSpec& upper : chip.system.upper_die_power) {
        dies.push_back(ch::apply_phase(upper, phase));
      }
      std::vector<const ch::Floorplan*> die_ptrs;
      for (const ch::Floorplan& die : dies) {
        die_ptrs.push_back(&die);
      }
      ScopedSpan span(&tracer, chip.name, "thermal.transient_step");
      th::ThermalSolution solution = context.step_transient(state, die_ptrs, op, options.dt_s);
      chips_s += span.elapsed_s();
      steps.seconds += span.elapsed_s();
      steps.iterations += solution.solver_report.iterations;
      steps.count += 1.0;
      state = std::move(solution.temperature_k);
    }
  }
  return chips_s;
}

/// Times split_equal_pressure on every (loop, segment) plenum of the rack,
/// as the loop walk calls it once per segment and step.
void probe_segment_splits(const fl::RackSpec& rack, Tracer& tracer,
                          std::vector<double>& split_us) {
  namespace hy = brightsi::hydraulics;
  const double viscosity = rack.coolant_reference().dynamic_viscosity_pa_s;
  for (int loop = 0; loop < rack.loop_count(); ++loop) {
    for (int segment = 0; segment < rack.segment_count(loop); ++segment) {
      std::vector<hy::ParallelBranch> branches;
      for (const fl::RackChip& chip : rack.chips) {
        if (chip.loop != loop || chip.segment != segment) {
          continue;
        }
        hy::ParallelBranch branch;
        branch.name = chip.name;
        const double length_m = ch::make_power7_floorplan(chip.system.power_spec).die_height();
        if (!chip.blocked) {
          for (const th::MicrochannelLayerSpec* layer : chip.system.stack.channel_layers()) {
            branch.groups.push_back(
                {hy::RectangularDuct(layer->channel_width_m, layer->layer_height_m, length_m),
                 layer->channel_count, layer->name});
          }
        }
        branches.push_back(std::move(branch));
      }
      ScopedSpan span(&tracer,
                      "loop " + std::to_string(loop) + " segment " + std::to_string(segment),
                      "hydraulics.segment_split");
      for (int repeat = 0; repeat < kSplitRepeats; ++repeat) {
        (void)hy::split_equal_pressure(rack.loop_flow_m3_per_s, branches, viscosity);
      }
      split_us.push_back(span.elapsed_s() * 1e6 / kSplitRepeats);
    }
  }
}

class FleetReplay final : public Workload {
 public:
  [[nodiscard]] std::string unit_name() const override { return "rack chip-step"; }
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return plan_.evaluator.metrics;
  }

  void setup(const Options& options) override {
    plan_.name = "fleet_replay";
    plan_.base = co::power7_system_config();
    plan_.base.thermal_grid.axial_cells = 8;
    plan_.evaluator = sw::fleet_replay_evaluator();
    plan_.scenarios = generate(options.seed);
    plan_.validate();
    use_backend(local_backend(kWorkers));
  }

  void rewind() override {
    next_ = 0;
    use_backend(local_backend(kWorkers));
  }

  /// One execute() per rack: with one worker that costs no parallelism, and
  /// each rack is timed on its own.
  bool run_block(std::vector<Row>& rows) override {
    if (next_ >= plan_.scenarios.size()) {
      return false;
    }
    for (int i = 0; i < kBlock; ++i) {
      run_scenarios(plan_, next_, 1, rows);
      ++next_;
    }
    return true;
  }

  [[nodiscard]] double nominal_block_s() const override { return 13.0; }
  [[nodiscard]] double units_of(const Row& row) const override {
    const std::vector<std::string> names = plan_.evaluator.metrics;
    return metric(row, names, "chips") * metric(row, names, "steps");
  }

  /// The replay row carries no energy balance, so the loop energy balance of
  /// a row's rack comes from the registered steady fleet evaluator, run once
  /// per distinct rack (the steady solve ignores the replay-only knobs:
  /// stagger, step, workload).
  void check(std::vector<Row>& rows) override {
    sw::SweepPlan steady;
    steady.name = "fleet_replay_check";
    steady.base = plan_.base;
    steady.evaluator = sw::fleet_evaluator();
    std::map<std::vector<double>, std::size_t> rack_index;
    std::vector<std::size_t> index_of_row;
    for (const Row& row : rows) {
      sw::ScenarioSpec rack;
      rack.name = row.result.name;
      std::vector<double> key;
      for (const char* knob : {"rack_chips", "rack_loops", "rack_segments", "rack_hetero",
                               "coolant_temp_dep"}) {
        const double value = spec_of(row).get(knob).value_or(0.0);
        rack.set(knob, value);
        key.push_back(value);
      }
      const auto [it, inserted] = rack_index.emplace(key, steady.scenarios.size());
      if (inserted) {
        steady.scenarios.push_back(std::move(rack));
      }
      index_of_row.push_back(it->second);
    }
    sw::SweepOptions local;
    local.thread_count = kWorkers;
    const sw::SweepResult result = sw::SweepRunner(local).run(steady);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row solved{rows[i].key, result.rows[index_of_row[i]], {}};
      const std::vector<std::string>& names = steady.evaluator.metrics;
      rows[i].checks.emplace_back("steady_failed", solved.result.failed ? 1.0 : 0.0);
      rows[i].checks.emplace_back("steady_energy_err", metric(solved, names, "energy_err"));
    }
  }

  void probe(const std::vector<Row>& rows, Tracer& tracer, Layers& layers) override {
    std::vector<double> replay_s, coupling, build_ms, split_us;
    ChipSteps steps;
    for (std::size_t r = 0; r < rows.size() && r < 2; ++r) {
      const sw::ScenarioSpec spec = spec_of(rows[r]);
      const fl::RackSpec rack = rack_of(sw::apply_scenario(plan_.base, spec), spec);
      fl::FleetReplayOptions options;
      options.trace = workload_trace(static_cast<int>(spec.get("workload_kind").value_or(1.0)),
                                     static_cast<int>(spec.get("workload_repeats").value_or(1.0)));
      options.dt_s = spec.get("rack_dt_s").value_or(0.05);
      options.steps = static_cast<int>(spec.get("rack_steps").value_or(20.0));

      std::optional<fl::FleetReplayResult> replay;
      {
        ScopedSpan span(&tracer, spec.name, "fleet.replay");
        replay.emplace(fl::replay_fleet_trace(rack, options));
        replay_s.push_back(span.elapsed_s());
      }
      const double chips_s = probe_chips(rack, options, *replay, tracer, build_ms, steps);
      coupling.push_back((replay_s.back() - chips_s) / replay_s.back());
      probe_segment_splits(rack, tracer, split_us);
    }
    layers["fleet.replay_s_per_row"] = median(replay_s);
    layers["fleet.coupling_fraction"] = median(coupling);
    layers["thermal.model_build_ms"] = median(build_ms);
    layers["thermal.transient_step_ms"] = steps.count > 0 ? steps.seconds * 1e3 / steps.count : 0.0;
    layers["thermal.krylov_iters_per_chip_step"] =
        steps.count > 0 ? steps.iterations / steps.count : 0.0;
    layers["hydraulics.segment_split_us"] = median(split_us);
  }

  [[nodiscard]] long long model_cache_lookups(const sw::ExecutionStats&) const override {
    return 0;  // the fleet evaluators build their chip models per rack
  }

  [[nodiscard]] std::string inputs_json(const std::vector<Row>& rows) const override {
    return scenario_inputs_json(
        R"("base":"power7_system_config, axial_cells=8","evaluator":"fleet_replay")", rows);
  }

 private:
  sw::SweepPlan plan_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_replay() { return std::make_unique<FleetReplay>(); }

}  // namespace perfbench
