// Workload scenarios: time-phased activity factors per block type, applied
// to a floorplan to drive transient thermal / co-simulation studies.
//
// Includes the paper-motivated presets: the full-load case of Fig. 9, an
// idle/burst/sustain duty cycle, and the "memory-bound microserver"
// scenario of the outlook (ref. [25], DOME microserver: cores throttled,
// caches busy).
#ifndef BRIGHTSI_CHIP_WORKLOAD_H
#define BRIGHTSI_CHIP_WORKLOAD_H

#include <string>
#include <vector>

#include "chip/floorplan.h"
#include "chip/power7.h"

namespace brightsi::chip {

/// Activity multipliers (0..1+) per block class for one phase.
struct WorkloadPhase {
  std::string name;
  double duration_s = 1.0;
  double core_activity = 1.0;
  double cache_activity = 1.0;
  double logic_activity = 1.0;
  double io_activity = 1.0;

  void validate() const;
};

/// A sequence of phases, optionally repeated.
class WorkloadTrace {
 public:
  WorkloadTrace() = default;
  explicit WorkloadTrace(std::vector<WorkloadPhase> phases, int repeats = 1);

  [[nodiscard]] const std::vector<WorkloadPhase>& phases() const { return phases_; }
  [[nodiscard]] int repeats() const { return repeats_; }
  [[nodiscard]] double total_duration_s() const;

  /// The phase active at time `t_s` (cycling through repeats). Throws when
  /// `t_s` exceeds the total duration.
  [[nodiscard]] const WorkloadPhase& phase_at(double t_s) const;

  /// The workload over the interval (t0_s, t1_s] of the trace replayed
  /// cyclically: every activity is its time-weighted mean over the
  /// interval. Power maps are linear in activity, so a step driven by the
  /// mean phase receives the interval's exact energy however short its
  /// phases are. The result lasts t1_s - t0_s and carries the active
  /// phase's name when one phase covers the interval, "mean" otherwise.
  /// Throws std::invalid_argument unless 0 <= t0_s < t1_s.
  [[nodiscard]] WorkloadPhase mean_phase(double t0_s, double t1_s) const;

 private:
  std::vector<WorkloadPhase> phases_;
  int repeats_ = 1;
};

/// Floorplan with this phase's activities applied to the given power spec.
[[nodiscard]] Floorplan apply_phase(const Power7PowerSpec& spec, const WorkloadPhase& phase);

/// Presets.
[[nodiscard]] WorkloadTrace full_load_trace(double duration_s = 2.0);
[[nodiscard]] WorkloadTrace burst_trace(int repeats = 2);
/// Memory-bound microserver (outlook ref. [25]): cores at low activity,
/// caches and I/O fully busy.
[[nodiscard]] WorkloadTrace memory_bound_trace(double duration_s = 2.0);

}  // namespace brightsi::chip

#endif  // BRIGHTSI_CHIP_WORKLOAD_H
