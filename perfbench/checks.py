"""Output checks of the repository benchmark.

Every row is checked on invariants that hold for any seed. Rows of the
default seed are also compared with the reference rows committed under
perfbench/reference/ (fleet_replay excepted: its values may legitimately
move when the replay's phase sampling changes, so it is held to invariants
only). A row that fails any check counts as failed, by name.
"""

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_WORKLOADS = ("cosim_sweep", "stack_nsga2", "mission_store")
DEFAULT_SEED = 1
# The default per-column tolerance of tests/golden_test.cpp:
# |fresh - reference| <= abs + rel * |reference|.
REL_TOL = 1e-6
ABS_TOL = 1e-9
FLEET_ENERGY_TOL = 1e-6
ROM_BOUND_TOL_K = 0.5
POWER_REL_TOL = 1e-9


def _cosim(m):
    reasons = []
    if m["converged"] != 1:
        reasons.append("co-simulation did not converge")
    if m["iterations"] < 1:
        reasons.append("no fixed-point iteration ran")
    if m["bus_v"] > 0:
        expected = m["bus_v"] * m["array_current_a"]
        if abs(m["array_power_w"] - expected) > POWER_REL_TOL * abs(expected):
            reasons.append(
                f"array_power_w {m['array_power_w']!r} != bus_v x array_current_a {expected!r}")
    elif m["array_power_w"] != 0 or m["array_current_a"] != 0:
        reasons.append("infeasible supply (bus_v = 0) still reports array power")
    if not 0 < m["rail_min_v"] <= 1.5:
        reasons.append(f"rail_min_v {m['rail_min_v']!r} outside (0, 1.5] V")
    return reasons


def _stack(m):
    reasons = []
    if m["converged"] != 1:
        reasons.append("co-simulation did not converge")
    if m["dies"] not in (1, 2, 3):
        reasons.append(f"dies {m['dies']!r} outside the study's 1..3")
    if not 0 < m["flow_frac_min"] <= m["bottom_flow_frac"] <= m["flow_frac_max"] <= 1:
        reasons.append("layer flow fractions not ordered within (0, 1]")
    if m["fluid_heat_w"] <= 0:
        reasons.append("coolant absorbed no heat")
    return reasons


def _fleet(m, overrides, checks):
    # The replay row carries no energy balance; the loop energy balance is
    # checked on the steady loop walk of the same rack.
    reasons = []
    if m["chips"] != overrides.get("rack_chips") or m["steps"] != overrides.get("rack_steps"):
        reasons.append("rack size or step count differs from the scenario")
    if m["heat_kj"] <= 0:
        reasons.append("coolant absorbed no heat")
    if m["inlet_monotonic"] != 1:
        reasons.append("segment inlets not monotonic along a loop")
    if checks.get("steady_failed", 1) != 0:
        reasons.append("steady solve of the same rack failed")
    elif not checks.get("steady_energy_err", math.inf) <= FLEET_ENERGY_TOL:
        error = checks.get("steady_energy_err")
        reasons.append(f"loop energy balance {error!r} > {FLEET_ENERGY_TOL}")
    return reasons


def _mission(m, overrides, checks):
    reasons = []
    if not 0 <= m["final_soc"] <= 1:
        reasons.append(f"final_soc {m['final_soc']!r} outside [0, 1]")
    if m["steps"] < 1:
        reasons.append("mission ran no step")
    if not 0 <= m["supply_ok_frac"] <= 1:
        reasons.append("supply_ok_frac outside [0, 1]")
    if m["energy_j"] < 0:
        reasons.append("negative delivered energy")
    if overrides.get("transient", 0) != 0:
        bound = checks.get("rom_max_bound_k")
        if bound is None or not bound <= ROM_BOUND_TOL_K:
            reasons.append(f"ROM certified bound {bound!r} K > {ROM_BOUND_TOL_K} K")
    return reasons


_INVARIANTS = {
    "cosim_sweep": lambda m, o, c: _cosim(m),
    "stack_nsga2": lambda m, o, c: _stack(m),
    "fleet_replay": _fleet,
    "mission_store": _mission,
}


def invariant_failures(workload, metric_names, row):
    """Reasons the row breaks an any-seed invariant (empty when it holds)."""
    if row["failed"]:
        return ["evaluation failed: " + row["error"]]
    values = row["metrics"]
    if len(values) != len(metric_names) or any(v is None or not math.isfinite(v) for v in values):
        return ["non-finite or missing metric values"]
    metrics = dict(zip(metric_names, values))
    return _INVARIANTS[workload](metrics, row["overrides"], row["checks"])


def reference_failures(metric_names, row, reference):
    """Reasons the row differs from its reference row (empty when it matches)."""
    if reference["metric_names"] != metric_names:
        return ["metric columns differ from the reference"]
    expected = reference["rows"].get(row["key"])
    if expected is None:
        return []  # past the end of the committed reference stream
    if expected["name"] != row["name"] or expected["overrides"] != row["overrides"]:
        return ["scenario differs from the reference row"]
    reasons = []
    for name, got, want in zip(metric_names, row["metrics"], expected["metrics"]):
        if got is None or not abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            reasons.append(f"{name} = {got!r}, reference {want!r}")
    return reasons


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload, seed):
    """The committed reference of the default seed, or None."""
    if seed != DEFAULT_SEED or workload not in REFERENCE_WORKLOADS:
        return None
    with open(reference_path(workload)) as f:
        return json.load(f)


def failed_rows(workload, metric_names, rows, reference):
    """[(key, name, reasons)] for every row that fails a check."""
    failures = []
    for row in rows:
        reasons = invariant_failures(workload, metric_names, row)
        if reference is not None and not row["failed"]:
            reasons += reference_failures(metric_names, row, reference)
        if reasons:
            failures.append((row["key"], row["name"], reasons))
    return failures
