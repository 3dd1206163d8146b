// Bus-voltage search shared by the steady co-simulation and the mission
// loop: the highest cell voltage at which the flow-cell array sources a
// constant power demand (the VRM input power).
#ifndef BRIGHTSI_CORE_BUS_SEARCH_H
#define BRIGHTSI_CORE_BUS_SEARCH_H

#include <functional>

namespace brightsi::core {

/// Operating point found by `find_bus_voltage`.
struct BusOperatingPoint {
  bool feasible = false;   ///< some scanned voltage meets the demand
  double voltage_v = 0.0;  ///< 0 when infeasible
  double current_a = 0.0;  ///< current_a(voltage_v); 0 when infeasible
};

/// Highest voltage V in [floor_v, open_circuit_v - 1 mV] with
/// V * current_a(V) >= input_power_w. The array power rises from 0 at open
/// circuit as V falls, so the search starts 1 mV below open circuit, scans
/// down in 0.05 V steps to the first voltage that meets the demand and
/// refines the crossing with Brent's method (1e-5 V or `power_tolerance_w`).
/// A memo evaluates each voltage once: Brent's bracket ends and the final
/// current are lookups of the scan's evaluations.
///
/// Infeasible when no scanned voltage meets the demand, and without any
/// evaluation when open circuit - 1 mV is at or below `floor_v`. Throws
/// std::runtime_error naming the bus search, its bracket and the last
/// residual when current_a returns a non-finite value or Brent does not
/// converge.
[[nodiscard]] BusOperatingPoint find_bus_voltage(
    const std::function<double(double)>& current_a, double open_circuit_v,
    double input_power_w, double floor_v, double power_tolerance_w);

}  // namespace brightsi::core

#endif  // BRIGHTSI_CORE_BUS_SEARCH_H
