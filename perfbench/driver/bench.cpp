#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "chip/power7.h"
#include "core/cosim.h"
#include "pdn/power_grid.h"
#include "sweep/scenario.h"
#include "thermal/solve_context.h"

namespace perfbench {

namespace co = brightsi::core;
namespace sw = brightsi::sweep;
namespace th = brightsi::thermal;

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 0x632BE59BD9B4E019ULL)) {
  next();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi, double step) {
  // Formed as integer / scale, so 0.1-steps print as 31.2, not 31.200000000000003.
  const double scale = std::round(1.0 / step);
  const auto first = std::llround(lo * scale);
  const auto count = static_cast<std::uint64_t>(std::llround((hi - lo) * scale));
  return static_cast<double>(first + static_cast<long long>(next() % count)) / scale;
}

int Rng::integer(int lo, int hi) {
  return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    order[static_cast<std::size_t>(i)] = i;
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(integer(0, i))]);
  }
  return order;
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "core.cosim_run_ms",
      "core.system_build_ms",
      "core.cosim_unattributed_fraction",
      "thermal.solves_per_run",
      "thermal.krylov_iters_per_run",
      "thermal.assembly_ms_per_run",
      "thermal.precond_setup_ms_per_run",
      "thermal.krylov_ms_per_run",
      "thermal.steady_solve_ms",
      "thermal.model_build_ms",
      "thermal.transient_step_ms",
      "thermal.krylov_iters_per_chip_step",
      "thermal.krylov_iters_per_mission_step",
      "thermal.rom_step_fraction",
      "thermal.rom_fallbacks",
      "thermal.rom_build_ms",
      "pdn.solve_ms",
      "pdn.cg_iters",
      "pdn.build_ms",
      "flowcell.current_eval_ms",
      "core.mission_step_ms",
      "core.mission_thermal_fraction",
      "hydraulics.segment_split_us",
      "fleet.replay_s_per_row",
      "fleet.coupling_fraction",
      "sweep.worker_busy_fraction",
      "sweep.model_cache_hit_rate",
      "sweep.trajectory_hit_rate",
      "sweep.store_append_ms",
      "sweep.store_resolve_us",
      "opt.driver_fraction",
      "opt.surrogate_screen_rate",
      "opt.generations",
  };
  return names;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

void TimingBackend::execute(const co::SystemConfig& base, const sw::SweepEvaluator& evaluator,
                            const std::vector<sw::ScenarioSpec>& scenarios,
                            std::vector<sw::ScenarioResult>& rows) {
  const auto start = std::chrono::steady_clock::now();
  const double cpu_before = process_cpu_s();
  inner_->execute(base, evaluator, scenarios, rows);
  batches_.push_back(
      {std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
       process_cpu_s() - cpu_before});
}

void Workload::use_backend(std::shared_ptr<sw::ExecutionBackend> backend) {
  auto timing = std::make_shared<TimingBackend>(std::move(backend));
  timing_ = timing.get();
  backend_ = std::move(timing);
}

void Workload::trace_with(Tracer& tracer) {
  tracer_ = &tracer;
  auto tracing = std::make_shared<TracingBackend>(backend_, tracer);
  tracing_ = tracing.get();
  backend_ = std::move(tracing);
}

void Workload::run_scenarios(const sw::SweepPlan& plan, std::size_t first, std::size_t count,
                             std::vector<Row>& rows) {
  sw::SweepPlan batch;
  batch.name = plan.name;
  batch.base = plan.base;
  batch.evaluator = plan.evaluator;
  const auto begin = plan.scenarios.begin() + static_cast<std::ptrdiff_t>(first);
  batch.scenarios.assign(begin, begin + static_cast<std::ptrdiff_t>(count));
  sw::SweepResult result = sw::SweepRunner(backend_).run(batch);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back(Row{batch.scenarios[i].name, std::move(result.rows[i]), {}});
  }
}

std::shared_ptr<sw::ExecutionBackend> local_backend(int workers) {
  sw::SweepOptions local;
  local.thread_count = workers;
  return sw::make_local_backend(local);
}

sw::ScenarioSpec spec_of(const Row& row) {
  return sw::ScenarioSpec{row.result.name, row.result.overrides};
}

double metric(const Row& row, const std::vector<std::string>& names, const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end() || row.result.metrics.size() != names.size()) {
    return 0.0;
  }
  return row.result.metrics[static_cast<std::size_t>(it - names.begin())];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string scenario_inputs_json(const std::string& fields, const std::vector<Row>& rows) {
  std::string out = "{" + fields + ",\"scenarios\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sw::ScenarioResult& row = rows[i].result;
    out += i == 0 ? "\n{\"name\":" : ",\n{\"name\":";
    out += json_string(row.name);
    out += ",\"overrides\":{";
    for (std::size_t k = 0; k < row.overrides.size(); ++k) {
      out += k == 0 ? "" : ",";
      out += json_string(row.overrides[k].first);
      out += ":";
      out += json_number(row.overrides[k].second);
    }
    out += "}}";
  }
  return out + "]}";
}

brightsi::chip::WorkloadTrace workload_trace(int kind, int repeats) {
  namespace ch = brightsi::chip;
  const ch::WorkloadTrace base = kind == 0   ? ch::full_load_trace()
                                 : kind == 1 ? ch::burst_trace(1)
                                             : ch::memory_bound_trace();
  return ch::WorkloadTrace(base.phases(), repeats);
}

void probe_cosim_rows(const co::SystemConfig& base, const std::vector<sw::ScenarioSpec>& sample,
                      Tracer& tracer, Layers& layers) {
  std::vector<double> run_ms, build_ms, unattributed, solves, iters, assembly_ms, setup_ms,
      krylov_ms, steady_ms, model_ms, pdn_solve_ms, pdn_iters, pdn_build_ms, current_ms;
  for (const sw::ScenarioSpec& spec : sample) {
    const co::SystemConfig config = sw::apply_scenario(base, spec);
    config.validate();

    std::shared_ptr<const th::ThermalModel> model;
    {
      const brightsi::chip::Floorplan floorplan =
          brightsi::chip::make_power7_floorplan(config.power_spec);
      ScopedSpan span(&tracer, spec.name, "thermal.model_build");
      model = std::make_shared<const th::ThermalModel>(config.stack, floorplan.die_width(),
                                                       floorplan.die_height(),
                                                       config.thermal_grid);
      model_ms.push_back(span.elapsed_s() * 1e3);
    }
    std::optional<co::IntegratedMpsocSystem> system;
    {
      ScopedSpan span(&tracer, spec.name, "core.system_build");
      system.emplace(config, model);
      build_ms.push_back(span.elapsed_s() * 1e3);
    }

    // The run's thermal buckets come from its report; they are laid out as
    // back-to-back child spans so the run's self time in the trace is the
    // part no bucket covers.
    const double run_start_us = tracer.now_us();
    const auto run_start = std::chrono::steady_clock::now();
    const co::CoSimReport report = system->run();
    const double run_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
    tracer.record(spec.name, "core.cosim_run", run_start_us, run_s * 1e6,
                  "{\"iterations\":" + std::to_string(report.iterations) +
                      ",\"thermal_solves\":" + std::to_string(report.thermal_solves) + "}");
    double child_us = run_start_us;
    for (const auto& [cat, seconds] :
         {std::pair{"thermal.assembly", report.thermal_assembly_time_s},
          std::pair{"thermal.precond_setup", report.thermal_setup_time_s},
          std::pair{"thermal.krylov", report.thermal_solve_time_s}}) {
      tracer.record(spec.name, cat, child_us, seconds * 1e6, "{\"from_report\":true}");
      child_us += seconds * 1e6;
    }
    run_ms.push_back(run_s * 1e3);
    solves.push_back(report.thermal_solves);
    iters.push_back(static_cast<double>(report.thermal_iterations));
    assembly_ms.push_back(report.thermal_assembly_time_s * 1e3);
    setup_ms.push_back(report.thermal_setup_time_s * 1e3);
    krylov_ms.push_back(report.thermal_solve_time_s * 1e3);

    std::optional<brightsi::pdn::PowerGrid> grid;
    {
      ScopedSpan span(&tracer, spec.name, "pdn.build");
      grid.emplace(config.grid_spec, system->floorplan());
      pdn_build_ms.push_back(span.elapsed_s() * 1e3);
    }
    double pdn_s = 0.0;
    {
      const auto taps = brightsi::pdn::make_vrm_grid(
          config.vrm_spec.count_x, config.vrm_spec.count_y, system->floorplan().die_width(),
          system->floorplan().die_height(), config.vrm_spec.set_point_v,
          config.vrm_spec.output_resistance_ohm);
      ScopedSpan span(&tracer, spec.name, "pdn.solve");
      const brightsi::pdn::PowerGridSolution solution = grid->solve(taps);
      pdn_s = span.elapsed_s();
      pdn_iters.push_back(solution.solver_report.iterations);
    }
    pdn_solve_ms.push_back(pdn_s * 1e3);

    {
      std::vector<const brightsi::chip::Floorplan*> dies;
      for (const brightsi::chip::Floorplan& floorplan : system->floorplans()) {
        dies.push_back(&floorplan);
      }
      th::ThermalSolveContext context(*model);
      ScopedSpan span(&tracer, spec.name, "thermal.steady_solve");
      (void)context.solve_steady(dies, config.thermal_operating_point());
      steady_ms.push_back(span.elapsed_s() * 1e3);
    }

    // run() evaluates the array twice at the probe voltage: once with the
    // coupled channel profiles, once isothermal.
    const double probe_v = config.vrm_spec.set_point_v;
    const auto profiles = system->group_channel_profiles(report.thermal.channel_fluid_axial_k());
    double coupled_s = 0.0;
    double isothermal_s = 0.0;
    {
      ScopedSpan span(&tracer, spec.name, "flowcell.current_eval");
      (void)system->array_current_with_profiles(probe_v, profiles);
      coupled_s = span.elapsed_s();
    }
    {
      ScopedSpan span(&tracer, spec.name + " (isothermal)", "flowcell.current_eval");
      (void)system->array().current_at_voltage(probe_v);
      isothermal_s = span.elapsed_s();
    }
    current_ms.push_back(coupled_s * 1e3);

    const double attributed = report.thermal_assembly_time_s + report.thermal_setup_time_s +
                              report.thermal_solve_time_s + pdn_s + coupled_s + isothermal_s;
    unattributed.push_back(run_s > 0.0 ? std::max(0.0, run_s - attributed) / run_s : 0.0);
  }
  layers["core.cosim_run_ms"] = median(run_ms);
  layers["core.system_build_ms"] = median(build_ms);
  layers["core.cosim_unattributed_fraction"] = median(unattributed);
  layers["thermal.solves_per_run"] = median(solves);
  layers["thermal.krylov_iters_per_run"] = median(iters);
  layers["thermal.assembly_ms_per_run"] = median(assembly_ms);
  layers["thermal.precond_setup_ms_per_run"] = median(setup_ms);
  layers["thermal.krylov_ms_per_run"] = median(krylov_ms);
  layers["thermal.steady_solve_ms"] = median(steady_ms);
  layers["thermal.model_build_ms"] = median(model_ms);
  layers["pdn.solve_ms"] = median(pdn_solve_ms);
  layers["pdn.cg_iters"] = median(pdn_iters);
  layers["pdn.build_ms"] = median(pdn_build_ms);
  layers["flowcell.current_eval_ms"] = median(current_ms);
}

}  // namespace perfbench
