// Tests of the fleet layer (fleet/rack.h): rack validation, the shared-loop
// steady solve (serial inlet rise, energy balance, blocked-branch
// rerouting, temperature-dependent coolant), staggered trace replay (the
// engine-step equivalence and step-averaged workload phases), and
// the fleet sweep plans' determinism contract — rows byte-identical across
// thread counts, shard counts and kill-and-resume cycles.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "chip/workload.h"
#include "core/system_config.h"
#include "fleet/rack.h"
#include "sweep/execution.h"
#include "sweep/registry.h"
#include "sweep/runner.h"
#include "thermal/materials.h"
#include "thermal/model.h"
#include "thermal/transient.h"

namespace ch = brightsi::chip;
namespace co = brightsi::core;
namespace fl = brightsi::fleet;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;
namespace fs = std::filesystem;

namespace {

std::string csv_of(const sw::SweepResult& result) {
  std::stringstream stream;
  sw::write_sweep_csv(stream, result);
  return stream.str();
}

/// A fresh, empty directory path under the test temp dir.
std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("brightsi_fleet_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// The fleet plans' base: coarse thermal axis, N chips solve per scenario.
co::SystemConfig fast_base() {
  co::SystemConfig base = co::power7_system_config();
  base.thermal_grid.axial_cells = 8;
  return base;
}

/// A small fleet grid over the steady rack evaluator (6 rows).
sw::SweepPlan small_fleet_grid() {
  sw::SweepPlan plan;
  plan.name = "fleet_grid";
  plan.base = fast_base();
  plan.evaluator = sw::fleet_evaluator();
  plan.add_grid({{"rack_chips", {2.0, 4.0}},
                 {"rack_segments", {1.0, 2.0}},
                 {"coolant_temp_dep", {0.0}}});
  sw::ScenarioSpec blocked;
  blocked.name = "blocked branch";
  blocked.set("rack_chips", 4.0);
  blocked.set("rack_segments", 2.0);
  blocked.set("rack_blocked", 1.0);
  plan.add(std::move(blocked));
  sw::ScenarioSpec laws;
  laws.name = "temp-dependent coolant";
  laws.set("rack_chips", 4.0);
  laws.set("rack_segments", 2.0);
  laws.set("coolant_temp_dep", 1.0);
  plan.add(std::move(laws));
  return plan;
}

// -------------------------------------------------------------- validation
TEST(RackSpec, EmptyRackThrows) {
  fl::RackSpec rack;
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, DuplicateChipNamesThrow) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 1);
  rack.chips[1].name = rack.chips[0].name;
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, SegmentGapThrows) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 2);
  rack.chips[1].segment = 3;  // loop 0 then has segments {0, 3}: gap
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, NegativeLoopIndexThrows) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 1);
  rack.chips[0].loop = -1;
  EXPECT_THROW(rack.validate(), std::invalid_argument);
}

TEST(RackSpec, DemoRackShapes) {
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2);
  EXPECT_EQ(rack.chips.size(), 8u);
  EXPECT_EQ(rack.loop_count(), 2);
  EXPECT_EQ(rack.segment_count(0), 2);
  EXPECT_EQ(rack.segment_count(1), 2);
  EXPECT_THROW((void)rack.segment_count(2), std::invalid_argument);
}

// ------------------------------------------------------------ steady solve
TEST(RackSteady, SingleChipMatchesTheDirectThermalSolve) {
  // A one-chip rack is exactly the single-chip model at the loop operating
  // point: same flow, same inlet, constant-property coolant.
  const co::SystemConfig base = fast_base();
  const fl::RackSpec rack = fl::make_demo_rack(base, 1, 1, 1);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);

  const ch::Floorplan floorplan = ch::make_power7_floorplan(base.power_spec);
  const th::ThermalModel model(base.stack, floorplan.die_width(), floorplan.die_height(),
                               base.thermal_grid);
  th::OperatingPoint op = base.thermal_operating_point();
  op.total_flow_m3_per_s = rack.loop_flow_m3_per_s;
  op.inlet_temperature_k = rack.loop_inlet_temperature_k;
  const th::ThermalSolution direct = model.solve_steady(floorplan, op);

  ASSERT_EQ(result.chips.size(), 1u);
  EXPECT_EQ(result.chips[0].peak_temperature_k, direct.peak_temperature_k);
  EXPECT_EQ(result.chips[0].heat_absorbed_w, direct.fluid_heat_absorbed_w);
  EXPECT_DOUBLE_EQ(result.chips[0].flow_fraction, 1.0);
}

TEST(RackSteady, SerialInletsRiseMonotonically) {
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 4, 1, 4);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);
  ASSERT_EQ(result.loops.size(), 1u);
  const std::vector<double>& inlets = result.loops[0].segment_inlet_k;
  ASSERT_EQ(inlets.size(), 4u);
  for (std::size_t s = 1; s < inlets.size(); ++s) {
    EXPECT_GT(inlets[s], inlets[s - 1]) << "segment " << s;
  }
  EXPECT_TRUE(result.inlet_monotonic);
  EXPECT_GT(result.max_inlet_rise_k, 0.0);
  // Chips report the plenum inlet of their segment.
  for (const fl::RackChipResult& c : result.chips) {
    EXPECT_EQ(c.inlet_temperature_k, inlets[static_cast<std::size_t>(c.segment)]);
    EXPECT_GT(c.outlet_temperature_k, c.inlet_temperature_k);
  }
}

TEST(RackSteady, EnergyBalanceClosesToRounding) {
  // The acceptance property: per-loop, the sum of the chips' coolant heat
  // pickups equals the loop's enthalpy rise to 1e-6 relative (by
  // construction it telescopes to rounding).
  for (const bool hetero : {false, true}) {
    const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2, hetero);
    const fl::RackSolveResult result = fl::solve_rack_steady(rack);
    EXPECT_LE(result.energy_balance_rel_error, 1e-6);
    const double cvol = rack.coolant_reference().volumetric_heat_capacity_j_per_m3_k;
    for (std::size_t l = 0; l < result.loops.size(); ++l) {
      double chip_heat_w = 0.0;
      for (const fl::RackChipResult& c : result.chips) {
        if (c.loop == static_cast<int>(l)) {
          chip_heat_w += c.heat_absorbed_w;
        }
      }
      const double enthalpy_rise_w =
          cvol * rack.loop_flow_m3_per_s *
          (result.loops[l].outlet_temperature_k - result.loops[l].inlet_temperature_k);
      EXPECT_NEAR(enthalpy_rise_w, chip_heat_w, 1e-6 * chip_heat_w)
          << "loop " << l << " hetero " << hetero;
    }
  }
}

TEST(RackSteady, BlockedChipGetsNoFlowAndSurvivorsInheritIt) {
  const fl::RackSpec rack =
      fl::make_demo_rack(fast_base(), 4, 1, 2, /*heterogeneous=*/false,
                         /*blocked_count=*/1);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);
  const fl::RackChipResult& blocked = result.chips[0];
  EXPECT_TRUE(blocked.blocked);
  EXPECT_DOUBLE_EQ(blocked.flow_m3_per_s, 0.0);
  EXPECT_DOUBLE_EQ(blocked.heat_absorbed_w, 0.0);
  // Chip 0 and chip 2 share segment 0; the survivor takes the whole
  // segment flow.
  const fl::RackChipResult& survivor = result.chips[2];
  EXPECT_EQ(survivor.segment, blocked.segment);
  EXPECT_DOUBLE_EQ(survivor.flow_fraction, 1.0);
  EXPECT_DOUBLE_EQ(survivor.flow_m3_per_s, rack.loop_flow_m3_per_s);
  // Powered-off chip: less total heat than the unblocked rack.
  const fl::RackSolveResult unblocked =
      fl::solve_rack_steady(fl::make_demo_rack(fast_base(), 4, 1, 2));
  EXPECT_LT(result.heat_absorbed_w, unblocked.heat_absorbed_w);
}

TEST(RackSteady, AllBlockedSegmentThrowsTheNamedManifoldError) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 2);
  rack.chips[0].blocked = true;  // the only chip of segment 0
  try {
    (void)fl::solve_rack_steady(rack);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chip0"), std::string::npos) << e.what();
  }
}

TEST(RackSteady, HeterogeneousSegmentsSplitByConductance) {
  // Mixed one-/two-die segments: the two-die chip has twice the branch
  // conductance, so it takes 2/3 of the segment flow.
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 8, 2, 2, /*heterogeneous=*/true);
  const fl::RackSolveResult result = fl::solve_rack_steady(rack);
  for (const fl::RackChipResult& c : result.chips) {
    const bool two_die = c.flow_fraction > 0.5;
    EXPECT_NEAR(c.flow_fraction, two_die ? 2.0 / 3.0 : 1.0 / 3.0, 1e-9) << c.name;
  }
}

TEST(RackSteady, DisabledLawsAreBitIdenticalRegardlessOfCoefficients) {
  const fl::RackSpec reference = fl::make_demo_rack(fast_base(), 4, 1, 2);
  fl::RackSpec tweaked = reference;
  tweaked.coolant_laws.viscosity_activation_j_per_mol = 99999.0;
  tweaked.coolant_laws.conductivity_coeff_per_k = 0.5;
  tweaked.coolant_laws.reference_temperature_k = 250.0;
  // temperature_dependent stays false: at() must return the reference
  // coolant bit for bit, so the solves match exactly.
  const fl::RackSolveResult a = fl::solve_rack_steady(reference);
  const fl::RackSolveResult b = fl::solve_rack_steady(tweaked);
  EXPECT_EQ(a.peak_temperature_k, b.peak_temperature_k);
  EXPECT_EQ(a.pump_power_w, b.pump_power_w);
  EXPECT_EQ(a.heat_absorbed_w, b.heat_absorbed_w);
  for (std::size_t i = 0; i < a.chips.size(); ++i) {
    EXPECT_EQ(a.chips[i].outlet_temperature_k, b.chips[i].outlet_temperature_k);
  }
}

TEST(RackSteady, TemperatureDependentLawsCutPumpPowerAndChangeTheSolve) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 4, 1, 4);
  const fl::RackSolveResult constant = fl::solve_rack_steady(rack);
  rack.coolant_laws.temperature_dependent = true;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  const fl::RackSolveResult priced = fl::solve_rack_steady(rack);
  // Downstream segments run warmer than the reference, so their viscosity
  // — and hence the loop pressure drop and pump power — drops.
  EXPECT_LT(priced.pump_power_w, constant.pump_power_w);
  // The film coefficients change too: the thermal answer must move.
  EXPECT_NE(priced.peak_temperature_k, constant.peak_temperature_k);
  // First segment sits at the reference temperature: its inlet coolant is
  // exactly the reference, so the rise starts from the same base.
  EXPECT_EQ(priced.loops[0].segment_inlet_k[0], constant.loops[0].segment_inlet_k[0]);
}

// ---------------------------------------------------------- coolant laws
TEST(CoolantLaws, DisabledReturnsReferenceBitwise) {
  const th::CoolantProperties reference;
  th::CoolantPropertyLaws laws;
  laws.viscosity_activation_j_per_mol = 123456.0;
  EXPECT_EQ(laws.at(reference, 350.0), reference);
}

TEST(CoolantLaws, AtTheReferenceTemperatureEnabledLawsChangeNothing) {
  const th::CoolantProperties reference;
  th::CoolantPropertyLaws laws;
  laws.temperature_dependent = true;
  EXPECT_EQ(laws.at(reference, laws.reference_temperature_k), reference);
}

TEST(CoolantLaws, AndradeViscosityFallsAndConductivityRisesWithTemperature) {
  const th::CoolantProperties reference;
  th::CoolantPropertyLaws laws;
  laws.temperature_dependent = true;
  const th::CoolantProperties warm = laws.at(reference, 330.0);
  EXPECT_LT(warm.dynamic_viscosity_pa_s, reference.dynamic_viscosity_pa_s);
  EXPECT_GT(warm.thermal_conductivity_w_per_m_k, reference.thermal_conductivity_w_per_m_k);
  // Density and heat capacity stay at the reference values.
  EXPECT_EQ(warm.density_kg_per_m3, reference.density_kg_per_m3);
  EXPECT_EQ(warm.volumetric_heat_capacity_j_per_m3_k,
            reference.volumetric_heat_capacity_j_per_m3_k);
  const th::CoolantProperties cold = laws.at(reference, 280.0);
  EXPECT_GT(cold.dynamic_viscosity_pa_s, reference.dynamic_viscosity_pa_s);
}

// ----------------------------------------------------------------- replay
TEST(FleetReplay, DeterministicAcrossRuns) {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 2);
  rack.chips[1].workload_offset_s = 0.5;
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.steps = 6;
  const fl::FleetReplayResult a = fl::replay_fleet_trace(rack, options);
  const fl::FleetReplayResult b = fl::replay_fleet_trace(rack, options);
  EXPECT_EQ(a.max_peak_temperature_k, b.max_peak_temperature_k);
  EXPECT_EQ(a.heat_absorbed_j, b.heat_absorbed_j);
  EXPECT_EQ(a.mean_pump_power_w, b.mean_pump_power_w);
  ASSERT_EQ(a.final_chips.size(), b.final_chips.size());
  for (std::size_t i = 0; i < a.final_chips.size(); ++i) {
    EXPECT_EQ(a.final_chips[i].peak_temperature_k, b.final_chips[i].peak_temperature_k);
  }
}

TEST(FleetReplay, StaggerChangesTheBurstReplay) {
  const fl::RackSpec aligned = fl::make_demo_rack(fast_base(), 2, 1, 2);
  fl::RackSpec staggered = aligned;
  staggered.chips[1].workload_offset_s = 1.0;  // opposite phase of the burst
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.steps = 8;
  const fl::FleetReplayResult a = fl::replay_fleet_trace(aligned, options);
  const fl::FleetReplayResult b = fl::replay_fleet_trace(staggered, options);
  EXPECT_NE(a.heat_absorbed_j, b.heat_absorbed_j);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_TRUE(a.inlet_monotonic);
  EXPECT_TRUE(b.inlet_monotonic);
}

TEST(FleetReplay, RejectsBadStepControls) {
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 2, 1, 1);
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.steps = 0;
  EXPECT_THROW((void)fl::replay_fleet_trace(rack, options), std::invalid_argument);
  options.steps = 4;
  options.dt_s = 0.0;
  EXPECT_THROW((void)fl::replay_fleet_trace(rack, options), std::invalid_argument);
}

/// The time-weighted mean of (seconds, phase) parts, named "mean".
ch::WorkloadPhase weighted(const std::vector<std::pair<double, ch::WorkloadPhase>>& parts) {
  ch::WorkloadPhase mean{"mean", 0.0, 0.0, 0.0, 0.0, 0.0};
  for (const auto& [seconds, phase] : parts) {
    mean.duration_s += seconds;
    mean.core_activity += seconds * phase.core_activity;
    mean.cache_activity += seconds * phase.cache_activity;
    mean.logic_activity += seconds * phase.logic_activity;
    mean.io_activity += seconds * phase.io_activity;
  }
  mean.core_activity /= mean.duration_s;
  mean.cache_activity /= mean.duration_s;
  mean.logic_activity /= mean.duration_s;
  mean.io_activity /= mean.duration_s;
  return mean;
}

void expect_activities_near(const ch::WorkloadPhase& actual, const ch::WorkloadPhase& expected) {
  EXPECT_NEAR(actual.core_activity, expected.core_activity, 1e-12);
  EXPECT_NEAR(actual.cache_activity, expected.cache_activity, 1e-12);
  EXPECT_NEAR(actual.logic_activity, expected.logic_activity, 1e-12);
  EXPECT_NEAR(actual.io_activity, expected.io_activity, 1e-12);
}

TEST(FleetReplay, SingleChipReplayIsTheEngineStepBitwise) {
  // A one-chip rack with constant-property coolant on a single-phase trace
  // steps exactly what a TransientEngine run of the same model, operating
  // point and dt steps: the fleet runs the engine's own step.
  const co::SystemConfig base = fast_base();
  const fl::RackSpec rack = fl::make_demo_rack(base, 1, 1, 1);
  fl::FleetReplayOptions options;
  options.trace = ch::full_load_trace(0.5);
  options.dt_s = 0.125;  // binary-exact, so run()'s schedule steps 0.125 s too
  options.steps = 4;
  const fl::FleetReplayResult replay = fl::replay_fleet_trace(rack, options);

  const ch::Floorplan floorplan = ch::make_power7_floorplan(base.power_spec);
  const th::ThermalModel model(base.stack, floorplan.die_width(), floorplan.die_height(),
                               base.thermal_grid);
  th::OperatingPoint op = base.thermal_operating_point();
  op.total_flow_m3_per_s = rack.loop_flow_m3_per_s;
  op.inlet_temperature_k = rack.loop_inlet_temperature_k;
  th::TransientEngineOptions engine_options;
  engine_options.schedule.dt_s = options.dt_s;
  th::TransientEngine engine(model, op, engine_options);
  double max_peak_k = 0.0, heat_j = 0.0, last_peak_k = 0.0, last_heat_w = 0.0;
  engine.run(options.trace, base.power_spec, [&](const th::TransientEngine::StepView& view) {
    EXPECT_EQ(view.step.dt_s(), options.dt_s);
    max_peak_k = std::max(max_peak_k, view.solution.peak_temperature_k);
    heat_j += view.solution.fluid_heat_absorbed_w * options.dt_s;
    last_peak_k = view.solution.peak_temperature_k;
    last_heat_w = view.solution.fluid_heat_absorbed_w;
  });

  ASSERT_EQ(engine.steps_taken(), options.steps);
  ASSERT_EQ(replay.final_chips.size(), 1u);
  EXPECT_EQ(replay.max_peak_temperature_k, max_peak_k);
  EXPECT_EQ(replay.heat_absorbed_j, heat_j);
  // The final-step observables are functions of the final field.
  EXPECT_EQ(replay.final_chips[0].peak_temperature_k, last_peak_k);
  EXPECT_EQ(replay.final_chips[0].heat_absorbed_w, last_heat_w);
}

TEST(FleetReplay, PhasesShorterThanTheStepEnterTheEnergyIntegral) {
  // A 10 ms spike inside every 0.1 s step: point-sampling the trace at the
  // step start saw the spike or missed it depending on fmod rounding. The
  // replay must integrate it, exactly like a one-phase trace carrying the
  // time-averaged activities (power maps are linear in activity).
  const fl::RackSpec rack = fl::make_demo_rack(fast_base(), 1, 1, 1);
  const ch::WorkloadPhase idle{"idle", 0.09, 0.1, 0.3, 0.2, 0.1};
  const ch::WorkloadPhase spike{"spike", 0.01, 3.0, 2.5, 2.0, 1.5};
  fl::FleetReplayOptions options;
  options.dt_s = 0.1;
  options.steps = 6;
  options.trace = ch::WorkloadTrace({idle, spike});
  const fl::FleetReplayResult phased = fl::replay_fleet_trace(rack, options);
  options.trace = ch::WorkloadTrace({weighted({{0.09, idle}, {0.01, spike}})});
  const fl::FleetReplayResult flat = fl::replay_fleet_trace(rack, options);

  EXPECT_NEAR(phased.heat_absorbed_j, flat.heat_absorbed_j, 1e-9 * flat.heat_absorbed_j);
  EXPECT_NEAR(phased.max_peak_temperature_k, flat.max_peak_temperature_k,
              1e-9 * flat.max_peak_temperature_k);
}

// ------------------------------------------------- parallel segment waves
/// Seven chips on two loops of uneven length, with mixed one-/two-die
/// segments, temperature-dependent coolant, one blocked chip and staggered
/// workloads: loop 0 holds segments {chip0, chip4 (blocked, two-die)},
/// {chip2}, {chip6 (two-die)}; loop 1 holds {chip1, chip5 (two-die)},
/// {chip3}. Its segment waves carry 3, 2 and 1 live chips.
fl::RackSpec wavefront_rack() {
  fl::RackSpec rack = fl::make_demo_rack(fast_base(), 7, 2, 2, /*heterogeneous=*/true);
  rack.chips[6].segment = 2;
  rack.chips[4].blocked = true;
  rack.coolant_laws.temperature_dependent = true;
  rack.coolant_laws.reference_temperature_k = rack.loop_inlet_temperature_k;
  for (std::size_t i = 0; i < rack.chips.size(); ++i) {
    rack.chips[i].workload_offset_s = 0.3 * static_cast<double>(i);
  }
  rack.validate();
  return rack;
}

fl::FleetReplayOptions wavefront_replay() {
  fl::FleetReplayOptions options;
  options.trace = ch::burst_trace(1);
  options.dt_s = 0.07;
  options.steps = 4;
  return options;
}

TEST(RackWavefront, SteadySolveIsBitwiseIdenticalAtAnyThreadCount) {
  const fl::RackSpec rack = wavefront_rack();
  const fl::RackSolveResult serial = fl::solve_rack_steady(rack, 1);
  // The rack is the shape the wavefront tests rely on.
  ASSERT_EQ(serial.loops.size(), 2u);
  EXPECT_EQ(serial.loops[0].segment_inlet_k.size(), 3u);
  EXPECT_EQ(serial.loops[1].segment_inlet_k.size(), 2u);
  EXPECT_EQ(serial.chips[4].flow_m3_per_s, 0.0);                              // blocked
  EXPECT_GT(serial.chips[5].flow_fraction, serial.chips[1].flow_fraction);  // two-die

  const fl::RackSolveResult parallel = fl::solve_rack_steady(rack, 8);
  EXPECT_TRUE(parallel == serial);
}

TEST(RackWavefront, ReplayIsBitwiseIdenticalAtAnyThreadCount) {
  const fl::RackSpec rack = wavefront_rack();
  const fl::FleetReplayOptions options = wavefront_replay();
  const fl::FleetReplayResult serial = fl::replay_fleet_trace(rack, options, 1);
  ASSERT_EQ(serial.final_chips.size(), 7u);
  for (const int threads : {2, 3, 8}) {
    const fl::FleetReplayResult parallel = fl::replay_fleet_trace(rack, options, threads);
    EXPECT_TRUE(parallel == serial) << "threads " << threads;
    for (std::size_t i = 0; i < serial.final_chips.size(); ++i) {
      EXPECT_TRUE(parallel.final_chips[i] == serial.final_chips[i])
          << "threads " << threads << " chip " << i;
    }
  }
}

TEST(RackWavefront, RejectsFewerThanOneThread) {
  const fl::RackSpec rack = wavefront_rack();
  EXPECT_THROW((void)fl::solve_rack_steady(rack, 0), std::invalid_argument);
  EXPECT_THROW((void)fl::replay_fleet_trace(rack, wavefront_replay(), 0),
               std::invalid_argument);
}

/// The replay's error message, or "" when it does not throw.
std::string replay_error(const fl::RackSpec& rack, int threads) {
  try {
    (void)fl::replay_fleet_trace(rack, wavefront_replay(), threads);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// `rack` with chip `index`'s BiCGSTAB limited to one iteration, so its
/// first transient step fails to converge.
fl::RackSpec with_failing_chip(fl::RackSpec rack, std::size_t index) {
  rack.chips[index].system.thermal_grid.solver.max_iterations = 1;
  return rack;
}

TEST(RackWavefront, AFailingChipStepThrowsTheSerialErrorAtAnyThreadCount) {
  // chip2 and chip3 form the second wave (loop 0 then loop 1), so both
  // fail in one parallel solve; the lowest-index chip's error must win
  // wherever its thread finishes, and reach the caller as the exception a
  // serial replay throws.
  const fl::RackSpec base = wavefront_rack();
  const std::string chip2_error = replay_error(with_failing_chip(base, 2), 1);
  const std::string chip3_error = replay_error(with_failing_chip(base, 3), 1);
  ASSERT_NE(chip2_error.find("did not converge"), std::string::npos) << chip2_error;
  ASSERT_NE(chip3_error.find("did not converge"), std::string::npos) << chip3_error;
  ASSERT_NE(chip2_error, chip3_error);  // the texts tell the chips apart

  const fl::RackSpec both = with_failing_chip(with_failing_chip(base, 3), 2);
  EXPECT_EQ(replay_error(both, 1), chip2_error);
  EXPECT_EQ(replay_error(both, 4), chip2_error);
  EXPECT_EQ(replay_error(with_failing_chip(base, 3), 4), chip3_error);
}

// -------------------------------------------------------------- mean phase
TEST(MeanPhase, InsideOnePhaseReturnsItsActivitiesExactly) {
  const ch::WorkloadTrace trace = ch::burst_trace(1);  // idle 0.6 | burst 1.2 | sustain 1.2
  const ch::WorkloadPhase& burst = trace.phases()[1];
  const ch::WorkloadPhase phase = trace.mean_phase(0.7, 0.9);
  EXPECT_EQ(phase.name, "burst");
  EXPECT_NEAR(phase.duration_s, 0.2, 1e-12);
  EXPECT_EQ(phase.core_activity, burst.core_activity);
  EXPECT_EQ(phase.cache_activity, burst.cache_activity);
  EXPECT_EQ(phase.logic_activity, burst.logic_activity);
  EXPECT_EQ(phase.io_activity, burst.io_activity);
}

TEST(MeanPhase, StraddlingABoundaryWeighsEachPhaseByItsTime) {
  const ch::WorkloadTrace trace = ch::burst_trace(1);
  const ch::WorkloadPhase phase = trace.mean_phase(0.5, 0.8);
  EXPECT_EQ(phase.name, "mean");
  expect_activities_near(phase, weighted({{0.1, trace.phases()[0]}, {0.2, trace.phases()[1]}}));
}

TEST(MeanPhase, IntervalsPastTheTraceEndWrapCyclically) {
  const ch::WorkloadTrace trace = ch::burst_trace(1);  // 3.0 s
  const ch::WorkloadPhase expected =
      weighted({{0.1, trace.phases()[2]}, {0.2, trace.phases()[0]}});
  expect_activities_near(trace.mean_phase(2.9, 3.2), expected);
  // Any number of cycles later is the same stretch of the workload.
  expect_activities_near(trace.mean_phase(8.9, 9.2), expected);
  expect_activities_near(ch::burst_trace(2).mean_phase(5.9, 6.2), expected);
}

TEST(MeanPhase, WholeCyclesReturnTheTraceMean) {
  const ch::WorkloadTrace trace = ch::burst_trace(1);
  const ch::WorkloadPhase expected = weighted(
      {{0.6, trace.phases()[0]}, {1.2, trace.phases()[1]}, {1.2, trace.phases()[2]}});
  expect_activities_near(trace.mean_phase(0.0, 3.0), expected);
  expect_activities_near(trace.mean_phase(0.3, 3.3), expected);
  expect_activities_near(trace.mean_phase(0.25, 6.25), expected);
}

TEST(MeanPhase, RejectsAnEmptyOrReversedInterval) {
  const ch::WorkloadTrace trace = ch::burst_trace(1);
  for (const auto& [t0, t1] : {std::pair{1.0, 1.0}, std::pair{1.0, 0.5}}) {
    try {
      (void)trace.mean_phase(t0, t1);
      FAIL() << "expected std::invalid_argument for (" << t0 << ", " << t1 << "]";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("mean_phase"), std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW((void)trace.mean_phase(-0.1, 0.5), std::invalid_argument);
}

// ------------------------------------------------------------ fleet sweeps
TEST(FleetSweep, RegisteredPlansValidateAndExpand) {
  const sw::SweepPlan rack_plan = sw::make_registered_plan("fleet_rack");
  EXPECT_EQ(rack_plan.evaluator.name, "fleet");
  EXPECT_EQ(rack_plan.scenarios.size(), 10u);  // 2x2x2 grid + 2 named
  const sw::SweepPlan mission_plan = sw::make_registered_plan("fleet_mission");
  EXPECT_EQ(mission_plan.evaluator.name, "fleet_replay");
  EXPECT_EQ(mission_plan.scenarios.size(), 8u);  // 2x2x2 grid
}

TEST(FleetSweep, RowsByteIdenticalAcrossThreadCounts) {
  const sw::SweepPlan plan = small_fleet_grid();
  const sw::SweepResult serial = sw::SweepRunner({1}).run(plan);
  const sw::SweepResult parallel = sw::SweepRunner({4}).run(plan);
  EXPECT_EQ(csv_of(serial), csv_of(parallel));
  EXPECT_EQ(serial.rows.size(), 6u);
  for (const sw::ScenarioResult& row : serial.rows) {
    EXPECT_TRUE(row.error.empty()) << row.name << ": " << row.error;
  }
}

TEST(FleetSweep, ShardedRunsMergeByteIdenticalAtShardCounts123) {
  const sw::SweepPlan plan = small_fleet_grid();
  const std::string reference = csv_of(sw::SweepRunner({1}).run(plan));
  for (const int shard_count : {1, 2, 3}) {
    const std::string dir = temp_dir("shards_" + std::to_string(shard_count));
    int evaluated = 0;
    for (int index = 0; index < shard_count; ++index) {
      sw::ShardOptions options;
      options.store_dir = dir;
      options.scope = plan.name;
      options.shard_index = index;
      options.shard_count = shard_count;
      options.local = {2, true};
      const sw::SweepResult partial = sw::SweepRunner(sw::make_shard_backend(options)).run(plan);
      evaluated += partial.exec.evaluated;
    }
    EXPECT_EQ(evaluated, 6) << shard_count << " shards";
    EXPECT_EQ(csv_of(sw::assemble_from_store(plan, dir)), reference)
        << shard_count << " shards";
  }
}

TEST(FleetSweep, KillAndResumeReproducesTheUninterruptedRun) {
  const sw::SweepPlan plan = small_fleet_grid();
  const std::string reference = csv_of(sw::SweepRunner({1}).run(plan));
  const std::string dir = temp_dir("resume");

  // "Kill" after 2 fresh evaluations (row-limit injection).
  sw::ShardOptions limited;
  limited.store_dir = dir;
  limited.scope = plan.name;
  limited.row_limit = 2;
  limited.local = {2, true};
  const sw::SweepResult killed = sw::SweepRunner(sw::make_shard_backend(limited)).run(plan);
  EXPECT_EQ(killed.exec.evaluated, 2);
  EXPECT_EQ(killed.exec.pending, 4);

  // Resume against the same store: only the missing rows are evaluated.
  sw::ShardOptions resume = limited;
  resume.row_limit = -1;
  const sw::SweepResult resumed = sw::SweepRunner(sw::make_shard_backend(resume)).run(plan);
  EXPECT_EQ(resumed.exec.store_hits, 2);
  EXPECT_EQ(resumed.exec.evaluated, 4);
  EXPECT_EQ(csv_of(resumed), reference);
  EXPECT_EQ(csv_of(sw::assemble_from_store(plan, dir)), reference);
}

}  // namespace
