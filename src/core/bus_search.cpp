#include "core/bus_search.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "numerics/root_finding.h"

namespace brightsi::core {

BusOperatingPoint find_bus_voltage(const std::function<double(double)>& current_a,
                                   double open_circuit_v, double input_power_w,
                                   double floor_v, double power_tolerance_w) {
  constexpr double kScanStepV = 0.05;
  constexpr double kVoltageToleranceV = 1e-5;
  constexpr int kMaxBrentIterations = 64;

  BusOperatingPoint point;
  const double v_hi = open_circuit_v - 1e-3;
  if (v_hi <= floor_v) {
    return point;  // no voltage above the floor (e.g. a dead reservoir)
  }

  double bracket_lo = floor_v;
  double last_residual = std::numeric_limits<double>::quiet_NaN();
  auto failure = [&](const std::string& what) {
    return std::runtime_error("bus voltage search: " + what + " (bracket [" +
                              std::to_string(bracket_lo) + ", " + std::to_string(v_hi) +
                              "] V, last residual " + std::to_string(last_residual) + " W)");
  };

  // (voltage, current) of every evaluation; the search touches a few dozen
  // voltages at most, so a linear lookup is cheaper than any map.
  std::vector<std::pair<double, double>> memo;
  memo.reserve(32);
  auto current = [&](double v) {
    for (const auto& [voltage, amps] : memo) {
      if (voltage == v) {
        return amps;
      }
    }
    const double amps = current_a(v);
    if (!std::isfinite(amps)) {
      throw failure("array current " + std::to_string(amps) + " A at " + std::to_string(v) +
                    " V is not finite");
    }
    memo.emplace_back(v, amps);
    return amps;
  };
  auto surplus = [&](double v) {
    last_residual = v * current(v) - input_power_w;
    return last_residual;
  };

  if (surplus(v_hi) >= 0.0) {
    point.voltage_v = v_hi;  // demand met at (essentially) open circuit
  } else {
    // Scan downward for a bracketing voltage (the maximum-power point of
    // the array bounds the search).
    bool bracketed = false;
    for (double v = v_hi - kScanStepV; v >= floor_v; v -= kScanStepV) {
      if (surplus(v) >= 0.0) {
        bracket_lo = v;
        bracketed = true;
        break;
      }
    }
    if (!bracketed) {
      return point;  // the array cannot deliver this power above the floor
    }
    const numerics::RootResult root = numerics::find_root_brent(
        surplus, bracket_lo, v_hi, kVoltageToleranceV, power_tolerance_w, kMaxBrentIterations);
    if (!root.converged) {
      last_residual = root.function_value;
      throw failure("Brent did not converge in " + std::to_string(root.iterations) +
                    " iterations");
    }
    point.voltage_v = root.root;
  }
  point.current_a = current(point.voltage_v);
  point.feasible = true;
  return point;
}

}  // namespace brightsi::core
