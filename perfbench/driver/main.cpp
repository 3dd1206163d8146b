// perfbench_driver: runs one benchmark workload for about --seconds and
// writes what it measured; perfbench/run.py builds it, checks the rows and
// reports the metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//                    [--max-rows N]
//
// Writes DIR/result.json (timings, counters, layer metrics), DIR/rows.json
// (every timed row with its check values), DIR/inputs.json (the generated
// inputs of the scheduled rows, enough to replay the run) and, when traced,
// DIR/trace.json (Chrome trace-event spans).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;
namespace sw = brightsi::sweep;

/// Set-up runs this many times before the timed rows and as many times after
/// them, each time in a fresh directory as a first set-up would, and the
/// median is reported; the timed rows use the last set-up before them.
/// Sampling at both ends of the run spreads the samples over the cores the
/// scheduler moves the process to, which on a shared host differ in speed.
constexpr int kSetupSamples = 9;

/// An untimed run makes this many passes over the same blocks; run.py counts
/// each execute() batch and each row at its fastest pass. Load from other
/// tenants of a shared host only ever slows a batch down, so the fastest of
/// two passes, some seconds apart, is steadier than either. A traced run
/// makes one.
constexpr int kPasses = 2;
/// The first pass stops early once it has spent this many times its share
/// of --seconds, so a much slower program still ends in time.
constexpr double kOverrun = 3.0;

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cosim_sweep") {
    return make_cosim_sweep();
  }
  if (name == "stack_nsga2") {
    return make_stack_nsga2();
  }
  if (name == "fleet_replay") {
    return make_fleet_replay();
  }
  if (name == "mission_store") {
    return make_mission_store();
  }
  throw std::invalid_argument("unknown workload: " + name +
                              " (expected cosim_sweep, stack_nsga2, fleet_replay or "
                              "mission_store)");
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value after " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--out") {
      options.out_dir = value;
      have_out = true;
    } else if (flag == "--max-rows") {
      options.max_rows = std::stoll(value);
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (options.workload.empty() || !have_out) {
    throw std::invalid_argument("--workload and --out are required");
  }
  return options;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// CLOCK_MONOTONIC in seconds: the clock of Python's time.monotonic(), so
/// run.py can time the span from launching the driver to main().
double monotonic_s() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

sw::ExecutionStats minus(const sw::ExecutionStats& a, const sw::ExecutionStats& b) {
  sw::ExecutionStats d;
  d.scheduled = a.scheduled - b.scheduled;
  d.evaluated = a.evaluated - b.evaluated;
  d.store_hits = a.store_hits - b.store_hits;
  d.leases_stolen = a.leases_stolen - b.leases_stolen;
  d.pending = a.pending - b.pending;
  d.model_builds = a.model_builds - b.model_builds;
  d.trajectory_hits = a.trajectory_hits - b.trajectory_hits;
  return d;
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

std::string rows_json(const std::vector<Row>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out += i == 0 ? "\n{\"key\":" : ",\n{\"key\":";
    out += json_string(row.key);
    out += ",\"pass\":";
    out += std::to_string(row.pass);
    out += ",\"name\":";
    out += json_string(row.result.name);
    out += ",\"overrides\":{";
    for (std::size_t k = 0; k < row.result.overrides.size(); ++k) {
      out += k == 0 ? "" : ",";
      out += json_string(row.result.overrides[k].first);
      out += ":";
      out += json_number(row.result.overrides[k].second);
    }
    out += "},\"metrics\":[";
    for (std::size_t k = 0; k < row.result.metrics.size(); ++k) {
      out += k == 0 ? "" : ",";
      out += json_number(row.result.metrics[k]);
    }
    out += row.result.failed ? "],\"failed\":true" : "],\"failed\":false";
    out += ",\"error\":";
    out += json_string(row.result.error);
    out += ",\"elapsed_s\":";
    out += json_number(row.result.elapsed_s);
    out += ",\"checks\":{";
    for (std::size_t k = 0; k < row.checks.size(); ++k) {
      out += k == 0 ? "" : ",";
      out += json_string(row.checks[k].first);
      out += ":";
      out += json_number(row.checks[k].second);
    }
    out += "}}";
  }
  return out + "\n]\n";
}

int run(const Options& options, double main_start_s) {
  const std::filesystem::path out_dir(options.out_dir);
  std::filesystem::create_directories(out_dir);

  // Declared before the workload, whose backend records into it.
  std::optional<Tracer> tracer;
  const std::filesystem::path samples_dir = out_dir / "setup";
  std::vector<double> setup_s;
  auto set_up = [&] {
    Options sample_options = options;
    sample_options.out_dir = (samples_dir / std::to_string(setup_s.size())).string();
    const auto setup_start = std::chrono::steady_clock::now();
    std::unique_ptr<Workload> workload = make_workload(options.workload);
    workload->setup(sample_options);
    setup_s.push_back(seconds_since(setup_start));
    return workload;
  };
  std::unique_ptr<Workload> workload;
  for (int sample = 0; sample < kSetupSamples; ++sample) {
    workload.reset();
    workload = set_up();
  }

  if (options.trace) {
    tracer.emplace();
    workload->trace_with(*tracer);
  }

  // Timed phase. Each pass runs the same number of whole blocks: as many as
  // fill its share of --seconds at the workload's nominal block time, so the
  // amount of work measured does not flip with the host's speed of the
  // moment. Every pass after the first starts the stream over on a fresh
  // backend (untimed) and repeats exactly the first pass's blocks.
  const int passes = options.trace ? 1 : kPasses;
  const double pass_budget_s = options.seconds / passes;
  auto pass_blocks = static_cast<std::size_t>(
      std::max(1L, std::lround(pass_budget_s / workload->nominal_block_s())));
  const sw::ExecutionStats stats_before = workload->stats();
  std::vector<Row> rows;
  std::vector<BlockTime> blocks;
  bool exhausted = false;
  double wall_s = 0.0;
  {
    const ScopedSpan span(tracer ? &*tracer : nullptr, options.workload, "perfbench.timed");
    for (int pass = 0; pass < passes; ++pass) {
      if (pass > 0) {
        workload->rewind();
      }
      double pass_wall_s = 0.0;
      for (std::size_t block = 0; block < pass_blocks; ++block) {
        // A program or host far slower than the nominal time, or the
        // self-test's row limit, ends the first pass early.
        if (pass == 0 && block > 0 &&
            (pass_wall_s > kOverrun * pass_budget_s ||
             (options.max_rows >= 0 && static_cast<long long>(rows.size()) >= options.max_rows))) {
          pass_blocks = block;
          break;
        }
        const std::size_t first_row = rows.size();
        const auto block_start = std::chrono::steady_clock::now();
        const double cpu_before = process_cpu_s();
        const bool more = workload->run_block(rows);
        const double block_wall_s = seconds_since(block_start);
        const double block_cpu_s = process_cpu_s() - cpu_before;
        if (!more) {
          exhausted = true;
          pass_blocks = block;
          break;
        }
        BlockTime timing{pass, block, block_wall_s, block_cpu_s, rows.size() - first_row, 0.0,
                         workload->take_batches()};
        for (std::size_t r = first_row; r < rows.size(); ++r) {
          rows[r].pass = pass;
          timing.units += workload->units_of(rows[r]);
        }
        blocks.push_back(timing);
        pass_wall_s += block_wall_s;
        wall_s += block_wall_s;
      }
    }
  }
  const double rss_mb = peak_rss_mb();
  const sw::ExecutionStats delta = minus(workload->stats(), stats_before);
  for (int sample = 0; sample < kSetupSamples; ++sample) {
    (void)set_up();
  }

  double busy_s = 0.0;
  for (const Row& row : rows) {
    busy_s += row.result.elapsed_s;
  }
  std::string blocks_json;
  for (const BlockTime& block : blocks) {
    blocks_json += blocks_json.empty() ? "{" : ",{";
    blocks_json += "\"pass\":" + std::to_string(block.pass) +
                   ",\"block\":" + std::to_string(block.block) +
                   ",\"wall_s\":" + json_number(block.wall_s) +
                   ",\"cpu_s\":" + json_number(block.cpu_s) +
                   ",\"rows\":" + std::to_string(block.rows) +
                   ",\"units\":" + json_number(block.units) + ",\"batches\":[";
    for (std::size_t b = 0; b < block.batches.size(); ++b) {
      blocks_json += b == 0 ? "[" : ",[";
      blocks_json += json_number(block.batches[b].wall_s) + "," +
                     json_number(block.batches[b].cpu_s) + "]";
    }
    blocks_json += "]}";
  }

  workload->check(rows);

  Layers layers;
  if (tracer) {
    for (const std::string& name : layer_metric_names()) {
      layers[name] = 0.0;
    }
    const double worker_s = wall_s * workload->workers();
    layers["sweep.worker_busy_fraction"] = busy_s / worker_s;
    const long long lookups = workload->model_cache_lookups(delta);
    layers["sweep.model_cache_hit_rate"] =
        lookups > 0
            ? static_cast<double>(lookups - delta.model_builds) / static_cast<double>(lookups)
            : 0.0;
    layers["sweep.trajectory_hit_rate"] =
        delta.evaluated > 0
            ? static_cast<double>(delta.trajectory_hits) / static_cast<double>(delta.evaluated)
            : 0.0;
    {
      const ScopedSpan probe_span(&*tracer, options.workload, "perfbench.probe");
      workload->probe(rows, *tracer, layers);
    }
    tracer->write_chrome_json((out_dir / "trace.json").string());
  }

  std::string metric_names;
  for (const std::string& name : workload->metric_names()) {
    metric_names += metric_names.empty() ? "" : ",";
    metric_names += json_string(name);
  }
  std::string layer_json;
  for (const auto& [name, value] : layers) {
    layer_json += layer_json.empty() ? "" : ",";
    layer_json += json_string(name);
    layer_json += ":";
    layer_json += json_number(value);
  }
  const std::string result =
      "{\"workload\":" + json_string(options.workload) +
      ",\"seed\":" + std::to_string(options.seed) +
      ",\"seconds\":" + json_number(options.seconds) +
      ",\"trace\":" + (tracer ? "true" : "false") +
      ",\"unit\":" + json_string(workload->unit_name()) +
      ",\"workers\":" + std::to_string(workload->workers()) +
      ",\"main_start_s\":" + json_number(main_start_s) +
      ",\"setup_s\":" + json_number(median(setup_s)) +
      ",\"setup_samples\":" + std::to_string(setup_s.size()) +
      ",\"wall_s\":" + json_number(wall_s) +
      ",\"rows\":" + std::to_string(rows.size()) +
      ",\"passes\":" + std::to_string(passes) +
      ",\"blocks\":[" + blocks_json + "]" +
      ",\"peak_rss_mb\":" + json_number(rss_mb) +
      ",\"exhausted\":" + (exhausted ? "true" : "false") +
      ",\"exec\":{\"scheduled\":" + std::to_string(delta.scheduled) +
      ",\"evaluated\":" + std::to_string(delta.evaluated) +
      ",\"store_hits\":" + std::to_string(delta.store_hits) +
      ",\"pending\":" + std::to_string(delta.pending) +
      ",\"model_builds\":" + std::to_string(delta.model_builds) +
      ",\"trajectory_hits\":" + std::to_string(delta.trajectory_hits) +
      "},\"metric_names\":[" + metric_names + "],\"layers\":{" + layer_json + "}}\n";
  write_file(out_dir / "rows.json", rows_json(rows));
  write_file(out_dir / "inputs.json",
             "{\"workload\":" + json_string(options.workload) +
                 ",\"seed\":" + std::to_string(options.seed) +
                 ",\"inputs\":" + workload->inputs_json(rows) + "}\n");
  write_file(out_dir / "result.json", result);
  workload.reset();
  std::filesystem::remove_all(samples_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double main_start_s = monotonic_s();
  try {
    return run(parse(argc, argv), main_start_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: error: %s\n", e.what());
    return 1;
  }
}
