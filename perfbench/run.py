#!/usr/bin/env python3
"""The repository benchmark of brightsi.

    python3 perfbench/run.py --workload cosim_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

Run from the root of a brightsi checkout. The first run builds the driver
(perfbench/CMakeLists.txt, which compiles this checkout's src/ with the
repository's own CMake settings) into .bench_build/perfbench. Each run then:

  * generates the workload's inputs from --seed (the driver writes them to
    inputs.json beside the results, so a run replays exactly),
  * runs whole blocks through the library's sweep execution seam, in two
    passes over the same blocks that together take about --seconds (their
    number is fixed by the workload's nominal block time), and counts every
    execute() batch and every row at its fastest pass,
  * checks every row (perfbench/checks.py) and names the rows that fail,
  * prints every metric with its unit and sample count, and as its last line
    one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 makes
an untraced run and then a traced one on the same seed. The traced run
records spans (Chrome trace-event JSON, opens in Perfetto), re-drives sample
rows through each layer's public entry points afterwards and reports the
per-layer metrics, with a per-layer self-time table; trace_overhead_fraction
compares its row times with the untraced run's. Results land in
.bench_build/perfbench-runs/<workload>-seed<seed>-trace<0|1>/.

The default seed is 1; its rows must also match perfbench/reference/. Seed 2
is the second seed for checking a claim on inputs not used while writing it.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"
DRIVER = BUILD_DIR / "perfbench_driver"
# A run must end within 180 s; the driver gets what is left of that after
# the (no-op) build check. Building on the first run is not counted.
RUN_LIMIT_S = 175.0

# row_tail_s is this percentile of the rows' elapsed_s (each row at its
# fastest pass): the highest one that leaves at least 10 rows beyond it at
# this benchmark's run length. It is fixed per workload so that a faster
# program (more rows) does not change which percentile is compared.
# fleet_replay times 10 racks a pass, too few for that rule; its racks keep
# fixed cost classes, so p90 is the same class, the second costliest, on
# every seed.
TAIL_PERCENTILE = {
    "cosim_sweep": 87,
    "stack_nsga2": 92,
    "fleet_replay": 90,
    "mission_store": 86,
}


def fail(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_definition():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core" / "cosim.h").is_file():
        fail(f"no brightsi sources at {ROOT} (run from the root of a checkout)")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench_driver", "-j", "4"])
    for command in steps:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("building the benchmark driver failed: " + " ".join(command))


def run_driver(workload, seed, seconds, trace, max_rows, deadline):
    out = RUNS_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    command = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if max_rows is not None:
        command += ["--max-rows", str(max_rows)]
    launched = time.monotonic()
    process = subprocess.Popen(command, stdout=sys.stderr, stderr=sys.stderr)
    try:
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail(f"{workload} did not finish in time")
    if code != 0:
        fail(f"driver exited with code {code} on {workload}")
    with open(out / "result.json") as f:
        result = json.load(f)
    # The driver stamps main() on the same clock as time.monotonic().
    result["launch_s"] = result["main_start_s"] - launched
    with open(out / "rows.json") as f:
        rows = json.load(f)
    return out, result, rows


def nearest_rank(sorted_values, percentile):
    index = max(0, math.ceil(percentile / 100.0 * len(sorted_values)) - 1)
    return sorted_values[index]


def fastest(passes, key):
    """A block's wall or CPU seconds with each of its execute() batches, and
    the time between them, counted at its fastest pass."""
    batches = [block["batches"] for block in passes]
    if any(len(b) != len(batches[0]) for b in batches):
        return min(block[key] for block in passes)
    column = 0 if key == "wall_s" else 1
    outside = min(block[key] - sum(batch[column] for batch in block["batches"])
                  for block in passes)
    return outside + sum(min(b[j][column] for b in batches) for j in range(len(batches[0])))


def fastest_pass(result, rows):
    """Blocks and rows of a run, each at its fastest pass.

    Every pass runs the same blocks, with the same execute() batches and the
    same rows, so a block's wall and CPU seconds count each batch at its
    fastest pass, and a row's elapsed_s is its minimum over the passes.
    """
    by_block = {}
    for block in result["blocks"]:
        by_block.setdefault(block["block"], []).append(block)
    blocks = [dict(passes[0], wall_s=fastest(passes, "wall_s"), cpu_s=fastest(passes, "cpu_s"))
              for passes in by_block.values()]
    elapsed = {}
    for row in rows:
        elapsed[row["key"]] = min(elapsed.get(row["key"], math.inf), row["elapsed_s"])
    return blocks, sorted(elapsed.values())


def end_to_end(workload, result, rows, failed):
    """name -> (value, sample count, note)."""
    attempted = len(rows)
    blocks, elapsed = fastest_pass(result, rows)
    wall = sum(b["wall_s"] for b in blocks)
    cpu = sum(b["cpu_s"] for b in blocks)
    distinct = sum(b["rows"] for b in blocks)
    units = sum(b["units"] for b in blocks)
    pct = TAIL_PERCENTILE[workload]
    passes = f"fastest of {result['passes']} passes"
    return {
        "setup_s": (result["launch_s"] + result["setup_s"], result["setup_samples"],
                    f"launch to main() {result['launch_s'] * 1e3:.2f} ms + median set-up"),
        "rows_per_s": (distinct / wall, distinct,
                       f"{len(blocks)} blocks, {wall:.2f} s wall, {passes}"),
        "units_per_s": (units / wall, distinct, f"{units:g} x {result['unit']}, {passes}"),
        "row_p50_s": (statistics.median(elapsed), len(elapsed),
                      f"median ScenarioResult::elapsed_s, {passes}"),
        "row_tail_s": (nearest_rank(elapsed, pct), len(elapsed),
                       f"p{pct}, {len(elapsed) - math.ceil(pct / 100.0 * len(elapsed))} "
                       f"rows beyond, {passes}"),
        "cpu_s_per_unit": (cpu / units, distinct,
                           f"{cpu:.2f} s CPU, {result['workers']} workers, {passes}"),
        "peak_rss_mb": (result["peak_rss_mb"], 1, "getrusage ru_maxrss"),
        "ok_fraction": (1.0 - failed / attempted, attempted, f"{failed} failed of {attempted}"),
    }


def self_times(trace_path):
    """{phase: {category: [spans, total_ms, self_ms]}} from the Chrome trace.

    Self time is a span's duration minus what its child spans on the same
    thread cover. Phase "timed" holds the timed rows (sweep/opt spans, one
    span per evaluator call); phase "re-drive" holds the layer calls the
    traced run makes afterwards.
    """
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    probe = [e for e in events if e["cat"] == "perfbench.probe"]
    probe_start = probe[0]["ts"] if probe else math.inf
    by_thread = {}
    for event in events:
        by_thread.setdefault(event["tid"], []).append(event)
    children = {}
    for thread_events in by_thread.values():
        thread_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for event in thread_events:
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= event["ts"]:
                stack.pop()
            if stack:
                children[id(stack[-1])] = children.get(id(stack[-1]), 0.0) + event["dur"]
            stack.append(event)
    table = {}
    for event in events:
        phase = "re-drive" if event["ts"] >= probe_start else "timed"
        row = table.setdefault(phase, {}).setdefault(event["cat"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += event["dur"] / 1e3
        row[2] += max(0.0, event["dur"] - children.get(id(event), 0.0)) / 1e3
    return table


def trace_overhead(untraced_rows, traced_rows):
    """Median over the rows both runs timed of traced / untraced row time, minus 1.

    The untraced run's first pass is compared, as the traced run makes one.
    The median keeps out rows whose cost differs between the runs for other
    reasons, such as a mission row that hit the trajectory cache in one run
    and missed it in the other.
    """
    untraced = {row["key"]: row["elapsed_s"] for row in untraced_rows if row["pass"] == 0}
    ratios = [row["elapsed_s"] / untraced[row["key"]]
              for row in traced_rows if row["key"] in untraced]
    return statistics.median(ratios) - 1.0, len(ratios)


def print_table(title, entries):
    print(title)
    for name, value, unit, samples, note in entries:
        print(f"  {name:36s} {value:>14.6g} {unit:9s} n={samples:<6d} {note}")


def checked_run(workload, seed, seconds, trace, max_rows, deadline):
    """Runs the driver and checks every row, printing the failed ones."""
    out, result, rows = run_driver(workload, seed, seconds, trace, max_rows, deadline)
    if not rows:
        fail(f"{workload} ran no row in {seconds} s")
    reference = checks.load_reference(workload, seed)
    failures = checks.failed_rows(workload, result["metric_names"], rows, reference)
    for key, name, reasons in failures:
        print(f"FAILED {workload} row {key} ({name}): " + "; ".join(reasons))
    return out, result, rows, failures


def run_workload(definition, workload, seed, seconds, trace, max_rows, deadline):
    if not trace:
        _, result, rows, failures = checked_run(workload, seed, seconds, 0, max_rows, deadline)
        values = end_to_end(workload, result, rows, len(failures))
        entries = []
        metrics = {}
        for m in definition["end_to_end"]:
            value, samples, note = values[m["name"]]
            entries.append((m["name"], value, m["unit"], samples, note))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = " (generated stream exhausted)" if result["exhausted"] else ""
        print_table(f"{workload} (seed {seed}): end-to-end metrics{note}", entries)
        return {"correct": not failures, "attempted": len(rows), "failed": len(failures),
                "metrics": metrics}

    _, _, untraced_rows, untraced_failures = checked_run(workload, seed, seconds, 0, max_rows,
                                                         deadline)
    out, result, rows, failures = checked_run(workload, seed, seconds, 1, max_rows, deadline)
    layers = result["layers"]
    overhead, paired = trace_overhead(untraced_rows, rows)
    layers["trace_overhead_fraction"] = overhead
    wanted = [m["name"] for m in definition["per_layer"]]
    if sorted(layers) != sorted(wanted):
        fail("driver layer metrics differ from BENCHMARK.json per_layer")
    samples = {"trace_overhead_fraction": paired}
    entries = [(m["name"], layers[m["name"]], m["unit"], samples.get(m["name"], 1), "")
               for m in definition["per_layer"]]
    print_table(f"{workload} (seed {seed}, traced): per-layer metrics", entries)
    trace_path = out / "trace.json"
    table = self_times(trace_path)
    print(f"{workload}: self time per layer entry point (trace {trace_path.relative_to(ROOT)})")
    print(f"  {'phase':9s} {'layer.entry':28s} {'spans':>7s} {'total_ms':>12s} "
          f"{'self_ms':>12s}")
    for phase in ("timed", "re-drive"):
        for category, (spans, total_ms, self_ms) in sorted(table.get(phase, {}).items()):
            print(f"  {phase:9s} {category:28s} {spans:7d} {total_ms:12.1f} {self_ms:12.1f}")
    print("  core.cosim_unattributed_fraction = "
          f"{layers['core.cosim_unattributed_fraction']:.4f}, "
          f"fleet.coupling_fraction = {layers['fleet.coupling_fraction']:.4f}")
    with open(out / "layers.json", "w") as f:
        json.dump({"layers": layers, "self_time_ms": table}, f, indent=1)
    failed = len(untraced_failures) + len(failures)
    return {"correct": failed == 0, "attempted": len(untraced_rows) + len(rows),
            "failed": failed,
            "metrics": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                        for m in definition["per_layer"]}}


def write_reference(workload, rows_wanted):
    """Runs the default seed for `rows_wanted` rows and commits them as reference."""
    if workload not in checks.REFERENCE_WORKLOADS:
        fail(f"{workload} is checked on invariants only and has no reference")
    _, result, rows = run_driver(workload, checks.DEFAULT_SEED, 3600, 0, rows_wanted, None)
    rows = [row for row in rows if row["pass"] == 0]
    failures = checks.failed_rows(workload, result["metric_names"], rows, None)
    if failures:
        fail(f"{len(failures)} rows fail their invariants; not writing a reference")
    header = {
        "workload": workload,
        "seed": checks.DEFAULT_SEED,
        "tolerance": {"rel": checks.REL_TOL, "abs": checks.ABS_TOL},
        "metric_names": result["metric_names"],
    }
    lines = [json.dumps(row["key"]) + ": " + json.dumps(
        {"name": row["name"], "overrides": row["overrides"], "metrics": row["metrics"]})
             for row in rows]
    with open(checks.reference_path(workload), "w") as f:
        f.write(json.dumps(header)[:-1] + ',\n"rows": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {len(rows)} reference rows to {checks.reference_path(workload)}")


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time measured, both passes (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-rows", type=int, default=None,
                        help="stop after this many rows (self-test size)")
    parser.add_argument("--write-reference", type=int, metavar="ROWS", default=None,
                        help="regenerate perfbench/reference/<workload>.json from the default seed")
    args = parser.parse_args()

    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload!r} (expected one of {', '.join(names)} or all)")
    seconds = args.seconds if args.seconds is not None else definition["run_seconds"]

    build()
    if args.write_reference is not None:
        for workload in workloads:
            write_reference(workload, args.write_reference)
        return
    # A first run that compiled gets its full run time after the build.
    deadline = max(started + RUN_LIMIT_S, time.monotonic() + RUN_LIMIT_S - 10.0)
    if len(workloads) > 1:
        deadline = None
    outcomes = {w: run_workload(definition, w, args.seed, seconds, args.trace, args.max_rows,
                                deadline)
                for w in workloads}
    if len(workloads) == 1:
        summary = outcomes[workloads[0]]
    else:
        summary = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{k}": v
                        for w, o in outcomes.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
