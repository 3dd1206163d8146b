#include "chip/workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "numerics/contracts.h"

namespace brightsi::chip {

void WorkloadPhase::validate() const {
  ensure(!name.empty(), "workload phase must be named");
  ensure_positive(duration_s, "phase duration");
  ensure_non_negative(core_activity, "core activity");
  ensure_non_negative(cache_activity, "cache activity");
  ensure_non_negative(logic_activity, "logic activity");
  ensure_non_negative(io_activity, "io activity");
}

WorkloadTrace::WorkloadTrace(std::vector<WorkloadPhase> phases, int repeats)
    : phases_(std::move(phases)), repeats_(repeats) {
  ensure(!phases_.empty(), "workload trace needs at least one phase");
  ensure(repeats >= 1, "workload repeats must be positive");
  for (const auto& phase : phases_) {
    phase.validate();
  }
}

double WorkloadTrace::total_duration_s() const {
  double once = 0.0;
  for (const auto& phase : phases_) {
    once += phase.duration_s;
  }
  return once * repeats_;
}

const WorkloadPhase& WorkloadTrace::phase_at(double t_s) const {
  ensure(!phases_.empty(), "empty workload trace");
  ensure_non_negative(t_s, "time");
  const double total = total_duration_s();
  if (t_s >= total) {
    throw std::out_of_range("WorkloadTrace::phase_at: time beyond the trace");
  }
  double once = total / repeats_;
  double local = std::fmod(t_s, once);
  for (const auto& phase : phases_) {
    if (local < phase.duration_s) {
      return phase;
    }
    local -= phase.duration_s;
  }
  return phases_.back();
}

WorkloadPhase WorkloadTrace::mean_phase(double t0_s, double t1_s) const {
  ensure_non_negative(t0_s, "mean_phase interval start");
  if (!(t1_s > t0_s)) {
    throw std::invalid_argument("WorkloadTrace::mean_phase: interval end " +
                                std::to_string(t1_s) + " s does not follow its start " +
                                std::to_string(t0_s) + " s");
  }
  const double cycle = std::accumulate(
      phases_.begin(), phases_.end(), 0.0,
      [](double sum, const WorkloadPhase& phase) { return sum + phase.duration_s; });
  // Seconds each phase is active over the interval: whole cycles first,
  // then a walk from t0's position in the cycle.
  const double length = t1_s - t0_s;
  const double cycles = std::floor(length / cycle);
  std::vector<double> active(phases_.size());
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    active[p] = cycles * phases_[p].duration_s;
  }
  double local = std::fmod(t0_s, cycle);
  std::size_t p = 0;
  while (p + 1 < phases_.size() && local >= phases_[p].duration_s) {
    local -= phases_[p].duration_s;
    ++p;
  }
  for (double remaining = length - cycles * cycle; remaining > 0.0;
       p = (p + 1) % phases_.size()) {
    const double piece = std::min(remaining, std::max(0.0, phases_[p].duration_s - local));
    active[p] += piece;
    remaining -= piece;
    local = 0.0;
  }

  const auto is_active = [](double seconds) { return seconds > 0.0; };
  const auto first = std::find_if(active.begin(), active.end(), is_active);
  if (std::none_of(first + 1, active.end(), is_active)) {
    // One phase covers the interval: its activities exactly, no rounding.
    WorkloadPhase phase = phases_[static_cast<std::size_t>(first - active.begin())];
    phase.duration_s = length;
    return phase;
  }
  const double weight = std::accumulate(active.begin(), active.end(), 0.0);
  WorkloadPhase mean{"mean", length, 0.0, 0.0, 0.0, 0.0};
  for (double WorkloadPhase::*activity :
       {&WorkloadPhase::core_activity, &WorkloadPhase::cache_activity,
        &WorkloadPhase::logic_activity, &WorkloadPhase::io_activity}) {
    for (std::size_t q = 0; q < phases_.size(); ++q) {
      mean.*activity += active[q] * phases_[q].*activity;
    }
    mean.*activity /= weight;
  }
  return mean;
}

Floorplan apply_phase(const Power7PowerSpec& spec, const WorkloadPhase& phase) {
  phase.validate();
  Power7PowerSpec scaled = spec;
  scaled.core_w_per_cm2 *= phase.core_activity;
  scaled.cache_w_per_cm2 *= phase.cache_activity;
  scaled.logic_w_per_cm2 *= phase.logic_activity;
  scaled.io_w_per_cm2 *= phase.io_activity;
  return make_power7_floorplan(scaled);
}

WorkloadTrace full_load_trace(double duration_s) {
  return WorkloadTrace({{"full-load", duration_s, 1.0, 1.0, 1.0, 1.0}});
}

WorkloadTrace burst_trace(int repeats) {
  return WorkloadTrace(
      {
          {"idle", 0.6, 0.15, 0.4, 0.5, 0.3},
          {"burst", 1.2, 1.0, 1.0, 1.0, 1.0},
          {"sustain", 1.2, 0.7, 0.9, 0.8, 0.8},
      },
      repeats);
}

WorkloadTrace memory_bound_trace(double duration_s) {
  // Outlook ref. [25]: compute throttled, memory system saturated.
  return WorkloadTrace({{"memory-bound", duration_s, 0.3, 1.0, 0.9, 1.0}});
}

}  // namespace brightsi::chip
