// Fleet layer: a rack of N heterogeneous MPSoC chips sharing manifolded
// coolant loops — the production-scale regime the paper's outlook implies.
//
// Topology. A RackSpec holds chips, each placed on one coolant loop at one
// serial segment position. Chips of the same (loop, segment) are parallel
// branches off common supply/return plena: the loop flow splits across
// them at equal plenum-to-plenum pressure drop
// (hydraulics::split_equal_pressure over ParallelBranch — the
// layers-within-a-stack split generalized to chips-within-a-rack, each
// chip's cooling layers collapsing to one branch conductance). Segments
// are serial: segment s+1's inlet temperature is segment s's flow-mixed
// outlet, so the per-chip inlet rises monotonically along every loop while
// the loop's pressure drops add up.
//
// Coolant. Every loop carries one fluid (validate() enforces identical
// per-chip references). CoolantPropertyLaws (thermal/materials.h) re-price
// viscosity and conductivity at each segment's inlet temperature, feeding
// both the manifold split / pump-power pricing (mu falls as the loop
// heats, so downstream segments cost less pressure) and the film
// coefficients (k rises). The laws default to disabled: constant
// properties, bit-identical to the single-chip paths.
//
// Blocked branches. A blocked chip (valve closed, failure injection) takes
// exactly zero flow — its live neighbors inherit its share — and is
// treated as powered off (no solve). An all-blocked segment throws the
// named-branch manifold error.
//
// Workloads. replay_fleet_trace steps every live chip's own
// TransientEngine (thermal/transient.h) in lock step under one workload
// trace replayed cyclically with a per-chip time offset (staggered duty
// cycles), re-walking the loop coupling every step. Each step is driven by
// the trace's mean phase over the step (WorkloadTrace::mean_phase), so
// phases shorter than the step still enter the energy integral exactly.
//
// Parallelism. Both entry points walk the loops as a segment wavefront:
// wave s holds segment s of every loop. A segment depends only on its
// loop's previous segment and loops never interact, so once a wave's
// inlets and splits are known its chips are independent and are solved on
// up to `threads` threads (numerics/parallel.h), each with its private
// solve context or transient engine over the shared const ThermalModel.
// The heat sums, outlets, peak and inlet carry-forward are then reduced
// serially in loop-by-loop order, so every floating-point sum keeps its
// order and results are bitwise identical at any thread count.
#ifndef BRIGHTSI_FLEET_RACK_H
#define BRIGHTSI_FLEET_RACK_H

#include <string>
#include <vector>

#include "chip/workload.h"
#include "core/system_config.h"
#include "thermal/materials.h"

namespace brightsi::fleet {

/// One chip of a rack: a full single-chip system configuration plus its
/// loop placement and workload stagger.
struct RackChip {
  std::string name;
  core::SystemConfig system;
  int loop = 0;                  ///< coolant loop index
  int segment = 0;               ///< serial position along the loop; 0 is coldest
  double workload_offset_s = 0.0;///< stagger of the replayed trace
  bool blocked = false;          ///< branch valve closed: zero flow, powered off
};

/// A rack: chips on shared coolant loops. Every loop receives
/// `loop_flow_m3_per_s` at `loop_inlet_temperature_k` from its pump.
struct RackSpec {
  std::string name = "rack";
  std::vector<RackChip> chips;
  double loop_flow_m3_per_s = 676e-6 / 60.0;   ///< Table II spec flow per loop
  double loop_inlet_temperature_k = 300.0;     ///< Table II inlet
  thermal::CoolantPropertyLaws coolant_laws;   ///< default: constant properties
  double pump_efficiency = 0.5;                ///< paper Section III-B

  /// Throws std::invalid_argument on an empty rack, duplicate/empty chip
  /// names, negative loop/segment indices, a loop with a gap in its
  /// serial segment sequence, a non-blocked chip without cooling
  /// channels, chips whose coolant references differ (a loop carries one
  /// fluid), or invalid flow/inlet/pump values.
  void validate() const;

  [[nodiscard]] int loop_count() const;
  [[nodiscard]] int segment_count(int loop) const;

  /// The loops' shared coolant at the reference state: the (common)
  /// config-implied coolant of the chips. The laws re-price it per segment.
  [[nodiscard]] thermal::CoolantProperties coolant_reference() const;
};

/// Per-chip outputs of a rack solve (steady, or the final replay step).
struct RackChipResult {
  std::string name;
  int loop = 0;
  int segment = 0;
  bool blocked = false;
  double inlet_temperature_k = 0.0;   ///< the segment's plenum inlet
  double flow_m3_per_s = 0.0;         ///< equal-dp share of the loop flow
  double flow_fraction = 0.0;         ///< share of the loop flow within the segment
  double heat_absorbed_w = 0.0;       ///< coolant heat pickup of this chip
  double outlet_temperature_k = 0.0;  ///< enthalpy-consistent branch outlet
  double peak_temperature_k = 0.0;

  friend bool operator==(const RackChipResult&, const RackChipResult&) = default;
};

/// Per-loop outputs of a rack solve.
struct RackLoopResult {
  double inlet_temperature_k = 0.0;
  double outlet_temperature_k = 0.0;      ///< final segment's mixed outlet
  double pressure_drop_pa = 0.0;          ///< serial sum over segments
  double pump_power_w = 0.0;              ///< dp * Q / eta for this loop
  double heat_absorbed_w = 0.0;
  std::vector<double> segment_inlet_k;    ///< plenum inlet per serial segment

  friend bool operator==(const RackLoopResult&, const RackLoopResult&) = default;
};

/// Result of one steady rack solve.
struct RackSolveResult {
  std::vector<RackChipResult> chips;  ///< rack order
  std::vector<RackLoopResult> loops;
  double pump_power_w = 0.0;          ///< all loops
  double heat_absorbed_w = 0.0;       ///< all chips
  double peak_temperature_k = 0.0;    ///< hottest junction across the fleet
  double max_inlet_rise_k = 0.0;      ///< max over loops: last segment inlet - loop inlet
  bool inlet_monotonic = true;        ///< segment inlets nondecreasing along every loop
  /// Max over loops of |sum of chip heat pickups - loop enthalpy rise|
  /// relative to the pickup total — rounding-level by construction.
  double energy_balance_rel_error = 0.0;

  friend bool operator==(const RackSolveResult&, const RackSolveResult&) = default;
};

/// Steady solve of the whole rack: walks every loop's serial segments,
/// splitting flow at equal pressure drop per segment and carrying the
/// mixed outlet forward as the next segment's inlet. Each segment wave's
/// chip solves run on up to `threads` threads (>= 1); the result is
/// bitwise identical at any thread count, and a failing chip solve
/// rethrows on the calling thread the same error as a serial solve.
[[nodiscard]] RackSolveResult solve_rack_steady(const RackSpec& rack, int threads = 1);

/// Staggered workload replay controls. The trace cycles (modulo its total
/// duration), so any horizon is valid.
struct FleetReplayOptions {
  chip::WorkloadTrace trace;
  double dt_s = 0.05;
  int steps = 40;
};

/// Result of a staggered fleet trace replay.
struct FleetReplayResult {
  int steps = 0;
  double sim_time_s = 0.0;
  double max_peak_temperature_k = 0.0;   ///< across all chips and steps
  double mean_pump_power_w = 0.0;        ///< averaged over steps
  double heat_absorbed_j = 0.0;          ///< integrated coolant pickup
  double max_inlet_rise_k = 0.0;         ///< final step
  bool inlet_monotonic = true;           ///< final step
  std::vector<RackChipResult> final_chips;  ///< final-step snapshot, rack order

  friend bool operator==(const FleetReplayResult&, const FleetReplayResult&) = default;
};

/// Transient replay of `options.trace` across the fleet: every step
/// re-walks the loop coupling (segment inlets from the upstream chips'
/// states of the same step) and advances each live chip's engine by one
/// backward-Euler step under the trace's mean phase over the chip's offset
/// step interval. Each segment wave's chip steps run on up to `threads`
/// threads (>= 1); the result is bitwise identical at any thread count,
/// and a failing chip step rethrows on the calling thread the same error
/// as a serial replay.
[[nodiscard]] FleetReplayResult replay_fleet_trace(const RackSpec& rack,
                                                   const FleetReplayOptions& options,
                                                   int threads = 1);

/// A demo rack of `chip_count` chips derived from `base`: chips
/// round-robin across `loop_count` loops, loop positions round-robin
/// across `segments_per_loop` serial segments (so segments hold parallel
/// chip sets when chips outnumber segments). With `heterogeneous`, chips
/// of every odd pass over the segment sequence become the two-die
/// interlayer-cooled stack — a segment's parallel chips come from
/// different passes, so mixed segments split their flow unequally; the
/// first `blocked_count` chips are blocked.
/// Flow, inlet, laws and staggers stay at RackSpec defaults for the
/// caller to override.
[[nodiscard]] RackSpec make_demo_rack(const core::SystemConfig& base, int chip_count,
                                      int loop_count, int segments_per_loop,
                                      bool heterogeneous = false, int blocked_count = 0);

}  // namespace brightsi::fleet

#endif  // BRIGHTSI_FLEET_RACK_H
