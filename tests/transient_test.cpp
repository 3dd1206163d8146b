// Tests of the shared transient engine: phase-boundary-aligned step
// scheduling (full trace coverage — no truncated tails), sample
// decimation, outlet fallbacks, in-place state hand-off equivalence,
// resumable checkpoints and power following the workload phases.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "thermal/solve_context.h"
#include "thermal/stack.h"
#include "thermal/transient.h"

namespace th = brightsi::thermal;
namespace ch = brightsi::chip;

namespace {

th::ThermalModel make_model(int axial_cells = 8,
                            th::SolverKind kind = th::SolverKind::kIlu0,
                            th::StackSpec stack = th::power7_microchannel_stack(),
                            double relative_tolerance = 1e-10) {
  th::ThermalModel::GridSettings grid;
  grid.axial_cells = axial_cells;
  grid.solver_config.kind = kind;
  grid.solver.relative_tolerance = relative_tolerance;
  return th::ThermalModel(std::move(stack), ch::kPower7DieWidthM, ch::kPower7DieHeightM, grid);
}

th::OperatingPoint nominal_op() {
  th::OperatingPoint op;
  op.total_flow_m3_per_s = 676e-6 / 60.0;
  op.inlet_temperature_k = 300.15;
  return op;
}

/// What the tests read of one engine step.
struct Sample {
  bool sampled = true;
  double time_s = 0.0;
  double dt_s = 0.0;
  std::string phase;
  double peak_k = 0.0;
  double outlet_k = 0.0;
  double power_w = 0.0;
};

/// Runs `trace` (default POWER7+ power spec) through `engine`, one Sample
/// per step.
std::vector<Sample> record(th::TransientEngine& engine, const ch::WorkloadTrace& trace) {
  std::vector<Sample> steps;
  engine.run(trace, ch::Power7PowerSpec{}, [&](const th::TransientEngine::StepView& view) {
    steps.push_back({view.sampled, view.step.t_end_s, view.step.dt_s(), view.phase.name,
                     view.solution.peak_temperature_k, view.mean_outlet_k,
                     view.solution.total_power_w});
  });
  return steps;
}

th::TransientEngineOptions engine_options(double dt_s, int sample_stride = 1,
                                 const brightsi::numerics::Grid3<double>* initial = nullptr) {
  th::TransientEngineOptions options;
  options.schedule.dt_s = dt_s;
  options.sample_stride = sample_stride;
  options.initial_state = initial;
  return options;
}

double max_peak(const std::vector<Sample>& steps) {
  double peak = 0.0;
  for (const Sample& step : steps) {
    peak = std::max(peak, step.peak_k);
  }
  return peak;
}

// ------------------------------------------------------------- scheduling

TEST(TransientSchedule, DivisibleDtCoversTraceExactly) {
  // 10.0 / 0.1 is 99.999... in floating point; truncation used to drop the
  // final step. Round-to-nearest must yield exactly 100 steps ending at
  // exactly 10 s.
  const auto trace = ch::full_load_trace(10.0);
  const auto schedule = th::make_transient_schedule(trace, {0.1});
  ASSERT_EQ(schedule.size(), 100u);
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 10.0);
  for (const th::TransientStep& step : schedule) {
    EXPECT_NEAR(step.dt_s(), 0.1, 1e-12);
  }
}

TEST(TransientSchedule, NonDivisibleDtGetsResidualStep) {
  const auto trace = ch::full_load_trace(1.0);
  const auto schedule = th::make_transient_schedule(trace, {0.3});
  ASSERT_EQ(schedule.size(), 4u);  // 0.3, 0.3, 0.3, residual 0.1
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, 1.0);
  EXPECT_NEAR(schedule.back().dt_s(), 0.1, 1e-12);
  // The steps tile the duration gaplessly.
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_DOUBLE_EQ(schedule[i].t_begin_s, schedule[i - 1].t_end_s);
  }
}

TEST(TransientSchedule, OversizedDtShrinksToTheTrace) {
  const auto trace = ch::full_load_trace(0.2);
  const auto schedule = th::make_transient_schedule(trace, {1.0});
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_DOUBLE_EQ(schedule.front().t_begin_s, 0.0);
  EXPECT_DOUBLE_EQ(schedule.front().t_end_s, 0.2);
}

TEST(TransientSchedule, AlignedStepsNeverStraddlePhaseEdges) {
  // burst_trace phases: 0.6 | 1.2 | 1.2 with dt 0.25 — none divisible.
  const auto trace = ch::burst_trace(2);
  const auto schedule = th::make_transient_schedule(trace, {0.25});
  EXPECT_DOUBLE_EQ(schedule.back().t_end_s, trace.total_duration_s());
  for (const th::TransientStep& step : schedule) {
    ASSERT_NE(step.phase, nullptr);
    // The phase at both endpoints' interior matches the step's phase: the
    // step lies inside exactly one phase.
    const double eps = 1e-9;
    EXPECT_EQ(&trace.phase_at(step.t_begin_s + eps), step.phase);
    EXPECT_EQ(trace.phase_at(step.t_end_s - eps).name, step.phase->name);
  }
}

TEST(TransientSchedule, RejectsBadInputs) {
  const auto trace = ch::full_load_trace(1.0);
  EXPECT_THROW((void)th::make_transient_schedule(trace, {0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)th::make_transient_schedule(trace, {-0.1}),
               std::invalid_argument);
}

// --------------------------------------------------------------- engine

TEST(TransientEngine, FullCoverageWithAwkwardDt) {
  const auto model = make_model();
  // 1.0 s at dt 0.3: the old truncating loop recorded 3 samples ending at
  // 0.9 s; the engine records 4 ending at exactly 1.0 s.
  th::TransientEngine engine(model, nominal_op(), engine_options(0.3));
  const auto steps = record(engine, ch::full_load_trace(1.0));
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_NEAR(steps.back().time_s, 1.0, 1e-9);
  EXPECT_NEAR(steps.back().dt_s, 0.1, 1e-12);
}

TEST(TransientEngine, LongDivisibleTraceKeepsItsTail) {
  const auto trace = ch::full_load_trace(10.0);
  const auto schedule = th::make_transient_schedule(trace, {0.1});
  EXPECT_EQ(schedule.size(), 100u);
  EXPECT_NEAR(schedule.back().t_end_s, trace.total_duration_s(), 1e-9);
}

TEST(TransientEngine, SolidStackFallsBackToInletOutlet) {
  // A channel-less (conventional air-cooled) stack has no outlet
  // temperatures; the step must fall back to the inlet temperature, not
  // report 0 K.
  const th::ThermalModel model(th::power7_conventional_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM);
  th::OperatingPoint op;
  op.inlet_temperature_k = 318.15;
  th::TransientEngine engine(model, op, engine_options(0.1));
  const auto steps = record(engine, ch::full_load_trace(0.2));
  ASSERT_FALSE(steps.empty());
  for (const Sample& step : steps) {
    EXPECT_DOUBLE_EQ(step.outlet_k, 318.15);
  }
}

TEST(TransientEngine, SampleDecimationKeepsTheTail) {
  const auto model = make_model();
  th::TransientEngine all(model, nominal_op(), engine_options(0.1));
  th::TransientEngine thinned(model, nominal_op(), engine_options(0.1, 3));
  const auto all_steps = record(all, ch::full_load_trace(1.0));
  const auto thinned_steps = record(thinned, ch::full_load_trace(1.0));
  std::vector<double> sampled_times;
  for (const Sample& step : thinned_steps) {
    if (step.sampled) {
      sampled_times.push_back(step.time_s);
    }
  }
  ASSERT_EQ(all_steps.size(), 10u);
  EXPECT_TRUE(std::all_of(all_steps.begin(), all_steps.end(),
                          [](const Sample& step) { return step.sampled; }));
  ASSERT_EQ(sampled_times.size(), 4u);  // steps 3, 6, 9, plus the final 10th
  EXPECT_NEAR(sampled_times.back(), 1.0, 1e-9);
  // Decimation only drops records: the stepping (and final state) match.
  EXPECT_DOUBLE_EQ(max_peak(thinned_steps), max_peak(all_steps));
  ASSERT_EQ(thinned.state().size(), all.state().size());
  EXPECT_EQ(thinned.state().data(), all.state().data());
}

TEST(TransientEngine, ResumedRunMatchesSingleRun) {
  const auto model = make_model();
  const auto op = nominal_op();

  th::TransientEngine whole(model, op, engine_options(0.1));
  const auto whole_steps = record(whole, ch::full_load_trace(1.0));
  th::TransientEngine first(model, op, engine_options(0.1));
  (void)record(first, ch::full_load_trace(0.5));
  th::TransientEngine second(model, op, engine_options(0.1, 1, &first.state()));
  const auto second_steps = record(second, ch::full_load_trace(0.5));
  // The split run walks the identical step sequence, so fields agree to
  // solver tolerance.
  ASSERT_EQ(whole.state().size(), second.state().size());
  double worst = 0.0;
  for (std::size_t i = 0; i < whole.state().size(); ++i) {
    worst = std::max(worst, std::abs(whole.state().data()[i] - second.state().data()[i]));
  }
  EXPECT_LT(worst, 1e-3);
  EXPECT_NEAR(whole_steps.back().peak_k, second_steps.back().peak_k, 1e-3);
}

TEST(TransientEngine, RecordsOneStepPerScheduledStep) {
  const auto model = make_model();
  th::TransientEngine engine(model, nominal_op(), engine_options(0.1));
  const auto steps = record(engine, ch::full_load_trace(0.5));
  EXPECT_EQ(steps.size(), 5u);
  EXPECT_EQ(steps.front().phase, "full-load");
  EXPECT_GT(max_peak(steps), 300.15);
}

TEST(TransientEngine, TemperatureRisesDuringBurst) {
  const auto model = make_model();
  th::TransientEngine engine(model, nominal_op(), engine_options(0.1));
  // The last idle step and a late burst step.
  double idle_peak = 0.0, burst_peak = 0.0;
  for (const Sample& step : record(engine, ch::burst_trace(1))) {
    if (step.phase == "idle") {
      idle_peak = step.peak_k;
    }
    if (step.phase == "burst") {
      burst_peak = step.peak_k;
    }
  }
  EXPECT_GT(burst_peak, idle_peak + 1.0);
}

TEST(TransientEngine, FinalStateSeedsFollowUpRun) {
  const auto model = make_model();
  th::TransientEngine warmup(model, nominal_op(), engine_options(0.1));
  (void)record(warmup, ch::full_load_trace(0.5));
  th::TransientEngine cont(model, nominal_op(), engine_options(0.1, 1, &warmup.state()));
  th::TransientEngine cold(model, nominal_op(), engine_options(0.1));
  // Continuation starts hot: its first step exceeds a cold first step.
  EXPECT_GT(record(cont, ch::full_load_trace(0.2)).front().peak_k,
            record(cold, ch::full_load_trace(0.2)).front().peak_k + 1.0);
}

TEST(TransientEngine, PowerFollowsPhases) {
  const auto model = make_model();
  th::TransientEngine engine(model, nominal_op(), engine_options(0.1));
  const double full_w = ch::make_power7_floorplan().total_power();
  for (const Sample& step : record(engine, ch::memory_bound_trace(0.3))) {
    EXPECT_LT(step.power_w, full_w);
  }
}

TEST(TransientEngine, RunNeedsOneUpperFloorplanPerUpperDie) {
  const th::ThermalModel model(th::two_die_stack(), ch::kPower7DieWidthM,
                               ch::kPower7DieHeightM);
  th::TransientEngine engine(model, nominal_op(), engine_options(0.1));
  EXPECT_THROW(engine.run(ch::full_load_trace(0.1), ch::Power7PowerSpec{}, nullptr),
               std::invalid_argument);
  EXPECT_EQ(engine.steps_taken(), 0);
}

TEST(TransientEngine, StatsAccumulateAcrossRuns) {
  const auto model = make_model();
  th::TransientEngineOptions options;
  options.schedule.dt_s = 0.1;
  th::TransientEngine engine(model, nominal_op(), options);
  const ch::Power7PowerSpec spec;
  engine.run(ch::full_load_trace(0.3), spec, nullptr);
  EXPECT_EQ(engine.steps_taken(), 3);
  engine.run(ch::full_load_trace(0.2), spec, nullptr);
  EXPECT_EQ(engine.steps_taken(), 5);
  EXPECT_EQ(engine.thermal_stats().solves, 5);
}

// ------------------------------------------- transient preconditioning

/// Backward-Euler steps of `model` from a uniform field under full load on
/// every die; returns each step's field and BiCGSTAB iteration count.
struct SteppedFields {
  std::vector<std::vector<double>> fields;
  std::vector<int> iterations;
};

SteppedFields step_full_load(const th::ThermalModel& model, int steps, double dt_s) {
  std::vector<ch::Floorplan> dies(static_cast<std::size_t>(model.die_count()),
                                  ch::make_power7_floorplan());
  std::vector<const ch::Floorplan*> pointers;
  for (const ch::Floorplan& die : dies) {
    pointers.push_back(&die);
  }
  th::ThermalSolveContext context(model);
  auto state = model.uniform_state(nominal_op().inlet_temperature_k);
  SteppedFields out;
  for (int step = 0; step < steps; ++step) {
    th::ThermalSolution solution = context.step_transient(state, pointers, nominal_op(), dt_s);
    out.iterations.push_back(solution.solver_report.iterations);
    state = std::move(solution.temperature_k);
    out.fields.push_back(state.data());
  }
  return out;
}

/// The default transient path (plane-sweep preconditioner) against the
/// same steps under the multigrid preconditioner, an independent one: both
/// solve the same backward-Euler system, so the fields agree to solver
/// tolerance. The default 1e-10 relative residual leaves ~1e-7 K between
/// two preconditioners, so both solve to 1e-13 here.
void expect_default_matches_multigrid(int axial_cells, const th::StackSpec& stack) {
  const auto sweep_model = make_model(axial_cells, th::SolverKind::kIlu0, stack, 1e-13);
  const auto mg_model = make_model(axial_cells, th::SolverKind::kMultigrid, stack, 1e-13);
  const SteppedFields sweep = step_full_load(sweep_model, 4, 0.05);
  const SteppedFields mg = step_full_load(mg_model, 4, 0.05);
  for (std::size_t step = 0; step < sweep.fields.size(); ++step) {
    double worst = 0.0;
    for (std::size_t i = 0; i < sweep.fields[step].size(); ++i) {
      worst = std::max(worst, std::abs(sweep.fields[step][i] - mg.fields[step][i]));
    }
    EXPECT_LE(worst, 1e-8) << "axial " << axial_cells << " step " << step;
  }
}

TEST(TransientPreconditioner, Power7StepMatchesMultigridAtAxial8) {
  expect_default_matches_multigrid(8, th::power7_microchannel_stack());
}

TEST(TransientPreconditioner, Power7StepMatchesMultigridAtAxial32) {
  expect_default_matches_multigrid(32, th::power7_microchannel_stack());
}

TEST(TransientPreconditioner, InterlayerTwoDieStepMatchesMultigrid) {
  expect_default_matches_multigrid(8, th::two_die_stack());
}

TEST(TransientPreconditioner, StepsTakeAtMostFourIterations) {
  // The fleet and mission workloads run axial_cells = 8 at steps of
  // 0.03-0.15 s, where ILU(0) took 20-35 iterations per step.
  for (const double dt_s : {0.03, 0.05, 0.1, 0.15}) {
    const SteppedFields stepped = step_full_load(make_model(8), 5, dt_s);
    for (std::size_t step = 0; step < stepped.iterations.size(); ++step) {
      EXPECT_LE(stepped.iterations[step], 4) << "dt " << dt_s << " step " << step;
    }
  }
  const SteppedFields two_die =
      step_full_load(make_model(8, th::SolverKind::kIlu0, th::two_die_stack()), 5, 0.05);
  for (const int iterations : two_die.iterations) {
    EXPECT_LE(iterations, 4);
  }
  // Shorter cells strengthen conduction along y against the mass term, so
  // the sweep needs more iterations at axial_cells = 32 (3-9; ILU(0) 16-35).
  const SteppedFields fine = step_full_load(make_model(32), 5, 0.1);
  for (const int iterations : fine.iterations) {
    EXPECT_LE(iterations, 10);
  }
}

}  // namespace
