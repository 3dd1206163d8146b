#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size on the default seed,
untraced and traced, and checks that

  * the last output line is the result object with exactly the keys
    correct / attempted / failed / metrics, the run is correct, and every
    end-to-end (untraced) or per-layer (traced) metric is emitted with the
    unit BENCHMARK.json gives it;
  * the trace file is Chrome trace-event JSON with spans of the layers;
  * a reference row perturbed beyond the tolerance, and a row that breaks an
    invariant, are each reported as failed rows rather than accepted.

Exits non-zero on the first failed check.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import run  # noqa: E402

# One batch (or one optimizer run) per workload.
TINY_ROWS = {"cosim_sweep": 10, "stack_nsga2": 64, "fleet_replay": 2, "mission_store": 6}


def expect(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def run_tiny(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(checks.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
               "--max-rows", str(TINY_ROWS[workload])]
    process = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    expect(process.returncode == 0, f"{workload} trace={trace} exited {process.returncode}: "
           f"{process.stderr[-2000:]}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def check_metrics(workload, trace, result, wanted):
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: run not correct: {result}")
    expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
           f"{workload} trace={trace}: metric names {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
               f"{workload}: metric {m['name']} emitted as {got}")


def check_trace(workload):
    path = run.RUNS_DIR / f"{workload}-seed{checks.DEFAULT_SEED}-trace1" / "trace.json"
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    expect(spans and all({"name", "cat", "ts", "dur", "pid", "tid"} <= e.keys() for e in spans),
           f"{workload}: trace events malformed")
    layers = {e["cat"].split(".")[0] for e in spans}
    expect({"perfbench", "sweep"} <= layers and len(layers) >= 4,
           f"{workload}: trace covers too few layers: {sorted(layers)}")


def check_failures_are_reported(workload):
    out = run.RUNS_DIR / f"{workload}-seed{checks.DEFAULT_SEED}-trace0"
    with open(out / "result.json") as f:
        names = json.load(f)["metric_names"]
    with open(out / "rows.json") as f:
        rows = json.load(f)
    reference = checks.load_reference(workload, checks.DEFAULT_SEED)
    expect(not checks.failed_rows(workload, names, rows, reference),
           f"{workload}: clean rows reported as failed")
    victim = rows[0]
    if reference is not None:
        perturbed = copy.deepcopy(reference)
        values = perturbed["rows"][victim["key"]]["metrics"]
        column = max(range(len(values)), key=lambda i: abs(values[i]))
        values[column] *= 1.0 + 1e-4
        failures = checks.failed_rows(workload, names, rows, perturbed)
        expect({f[0] for f in failures} == {victim["key"]},
               f"{workload}: a perturbed reference row was accepted ({failures})")
    broken = copy.deepcopy(rows)
    broken[0]["metrics"][0] = float("nan")
    failures = checks.failed_rows(workload, names, broken, reference)
    expect([f[0] for f in failures] == [victim["key"]],
           f"{workload}: a row with a non-finite metric was accepted ({failures})")


def main():
    definition = run.load_definition()
    for workload in (w["name"] for w in definition["workloads"]):
        check_metrics(workload, 0, run_tiny(workload, 0), definition["end_to_end"])
        check_failures_are_reported(workload)
        check_metrics(workload, 1, run_tiny(workload, 1), definition["per_layer"])
        check_trace(workload)
        print(f"selftest: {workload} ok")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
