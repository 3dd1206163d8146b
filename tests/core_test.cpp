// Tests of the integrated co-simulator, the throttling governor and the
// reporting helpers.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bus_search.h"
#include "core/cosim.h"
#include "core/report.h"
#include "core/system_config.h"
#include "core/throttling.h"
#include "numerics/root_finding.h"

namespace co = brightsi::core;
namespace ch = brightsi::chip;
namespace th = brightsi::thermal;
namespace pd = brightsi::pdn;

namespace {

/// Coarse, fast configuration for the loopy tests.
co::SystemConfig fast_config() {
  co::SystemConfig config = co::power7_system_config();
  config.thermal_grid.axial_cells = 8;
  config.fvm.axial_steps = 80;
  config.channel_groups = 4;
  return config;
}

const co::CoSimReport& cached_report() {
  static const co::CoSimReport report = [] {
    co::IntegratedMpsocSystem system(fast_config());
    return system.run();
  }();
  return report;
}

// ------------------------------------------------------------------- config
TEST(SystemConfig, DefaultValidates) {
  EXPECT_NO_THROW(co::power7_system_config().validate());
}

TEST(SystemConfig, RejectsIndivisibleGroups) {
  auto config = co::power7_system_config();
  config.channel_groups = 7;  // 88 % 7 != 0
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(SystemConfig, RejectsBadPumpEfficiency) {
  auto config = co::power7_system_config();
  config.pump_efficiency = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// -------------------------------------------------------------------- cosim
TEST(CoSim, ConvergesAtNominalOperatingPoint) {
  const auto& r = cached_report();
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 8);
}

TEST(CoSim, PeakTemperatureInPaperBand) {
  const auto& r = cached_report();
  EXPECT_GT(r.peak_temperature_c, 33.0);
  EXPECT_LT(r.peak_temperature_c, 43.0);  // paper: 41 C
}

TEST(CoSim, SupplyFeedsCacheRail) {
  const auto& r = cached_report();
  EXPECT_TRUE(r.supply.feasible);
  EXPECT_TRUE(r.supply.vrm_window_ok);
  EXPECT_NEAR(r.supply.vrm_output_power_w, 5.0, 0.05);       // the 5 W rail
  EXPECT_NEAR(r.supply.array_power_w, 5.0 / 0.86, 0.1);      // + VRM loss
  EXPECT_GT(r.supply.bus_voltage_v, 0.9);
  EXPECT_LT(r.supply.bus_voltage_v, 1.3);
}

TEST(CoSim, GridWindowMatchesFig8) {
  const auto& r = cached_report();
  EXPECT_NEAR(r.grid.min_voltage_v, 0.962, 0.01);
  EXPECT_NEAR(r.grid.max_voltage_v, 0.995, 0.005);
}

TEST(CoSim, NetEnergyPositive) {
  // The paper's headline: generation exceeds pumping power.
  const auto& r = cached_report();
  EXPECT_GT(r.supply.array_power_w, r.pumping_power_w);
  EXPECT_GT(r.net_power_w, 0.0);
}

TEST(CoSim, HydraulicsMatchTableII) {
  const auto& r = cached_report();
  EXPECT_NEAR(r.mean_velocity_m_per_s, 1.6, 0.02);
  EXPECT_NEAR(r.pressure_drop_bar, 0.39, 0.02);
  EXPECT_NEAR(r.pumping_power_w, 0.88, 0.05);
}

TEST(CoSim, ThermalFeedbackRaisesCurrentSlightly) {
  // Paper: at nominal flow the temperature effect is at most ~4 %.
  const auto& r = cached_report();
  EXPECT_GT(r.thermal_current_gain, 0.0);
  EXPECT_LT(r.thermal_current_gain, 0.04);
}

TEST(CoSim, HotInletBoostsPowerTowardPaperNumber) {
  // Paper: 37 C inlet raises generated power by up to ~23 %.
  auto config = fast_config();
  config.array_spec.inlet_temperature_k = 310.15;
  co::IntegratedMpsocSystem hot(config);
  co::IntegratedMpsocSystem cold(fast_config());
  const double p_hot = hot.array().current_at_voltage(1.0, {310.15}) * 1.0;
  const double p_cold = cold.array().current_at_voltage(1.0) * 1.0;
  EXPECT_NEAR(p_hot / p_cold - 1.0, 0.22, 0.05);
}

TEST(CoSim, GroupedProfilesAverageCorrectly) {
  co::IntegratedMpsocSystem system(fast_config());
  std::vector<std::vector<double>> per_channel(88, std::vector<double>(4, 300.0));
  for (int c = 0; c < 88; ++c) {
    per_channel[static_cast<std::size_t>(c)].assign(4, 300.0 + c);
  }
  const auto groups = system.group_channel_profiles(per_channel);
  ASSERT_EQ(groups.size(), 4u);  // fast_config: 4 groups of 22
  EXPECT_NEAR(groups[0][0], 300.0 + 10.5, 1e-9);
  EXPECT_NEAR(groups[3][0], 300.0 + 76.5, 1e-9);
}

TEST(CoSim, SweepWithThermalFeedbackIsMonotone) {
  co::IntegratedMpsocSystem system(fast_config());
  const auto curve = system.array_sweep_with_thermal_feedback(0.6, 8);
  for (std::size_t i = 1; i < curve.points().size(); ++i) {
    EXPECT_GE(curve.points()[i].current_a, curve.points()[i - 1].current_a - 1e-9);
  }
}

TEST(CoSim, InfeasibleWhenRailDemandExceedsArray) {
  auto config = fast_config();
  config.power_spec.cache_w_per_cm2 = 40.0;  // ~100 W rail, way beyond the array
  co::IntegratedMpsocSystem system(config);
  const auto r = system.run();
  EXPECT_FALSE(r.supply.feasible);
}

// --------------------------------------------------------------- bus search
// Synthetic array: I(V) = 40 A/V * (1 V - V), so P(V) = 40 V (1 - V) peaks
// at 10 W at 0.5 V. A 6 W demand crosses at V = 0.5 + sqrt(0.1) = 0.816 V;
// the 0.05 V scan from 0.999 V meets it at 0.799 V, its fifth evaluation.
constexpr double kSyntheticOcv = 1.0;
double synthetic_current(double v) { return 40.0 * (kSyntheticOcv - v); }

TEST(BusSearch, TheMemoAnswersBrentsBracketEndsAndTheFinalCurrent) {
  std::vector<double> calls;
  const co::BusOperatingPoint bus = co::find_bus_voltage(
      [&](double v) {
        calls.push_back(v);
        return synthetic_current(v);
      },
      kSyntheticOcv, 6.0, 0.2, 1e-3 * 6.0);
  ASSERT_TRUE(bus.feasible);
  EXPECT_NEAR(bus.voltage_v, 0.5 + std::sqrt(0.1), 1e-4);
  EXPECT_EQ(bus.current_a, synthetic_current(bus.voltage_v));
  EXPECT_EQ(std::set<double>(calls.begin(), calls.end()).size(), calls.size())
      << "a voltage was evaluated twice";

  // Without the memo the search would evaluate the scan (5 voltages), both
  // bracket ends again, each Brent iteration but the converging one, and
  // the final current. With it only the scan and Brent's interior points run.
  ASSERT_GE(calls.size(), 5U);
  const double v_hi = calls[0];
  const double v_lo = calls[4];
  EXPECT_EQ(v_hi, kSyntheticOcv - 1e-3);
  EXPECT_GE(v_lo * synthetic_current(v_lo), 6.0);
  const auto brent = brightsi::numerics::find_root_brent(
      [](double v) { return v * synthetic_current(v) - 6.0; }, v_lo, v_hi, 1e-5, 6e-3, 64);
  ASSERT_TRUE(brent.converged);
  EXPECT_EQ(brent.root, bus.voltage_v);
  EXPECT_EQ(calls.size(), 5U + static_cast<std::size_t>(brent.iterations - 1));
}

TEST(BusSearch, DemandMetAtOpenCircuitEvaluatesOnce) {
  int calls = 0;
  const co::BusOperatingPoint bus = co::find_bus_voltage(
      [&](double v) {
        ++calls;
        return synthetic_current(v);
      },
      kSyntheticOcv, 0.0, 0.2, 1e-3);
  ASSERT_TRUE(bus.feasible);
  EXPECT_EQ(bus.voltage_v, kSyntheticOcv - 1e-3);
  EXPECT_EQ(bus.current_a, synthetic_current(kSyntheticOcv - 1e-3));
  EXPECT_EQ(calls, 1);
}

TEST(BusSearch, DemandAboveTheMaximumPowerIsInfeasible) {
  int calls = 0;
  const co::BusOperatingPoint bus = co::find_bus_voltage(
      [&](double v) {
        ++calls;
        return synthetic_current(v);
      },
      kSyntheticOcv, 20.0, 0.2, 1e-3 * 20.0);
  EXPECT_FALSE(bus.feasible);
  EXPECT_EQ(bus.voltage_v, 0.0);
  EXPECT_EQ(bus.current_a, 0.0);
  // 0.999 V, then 0.949 V down to the last step above the 0.2 V floor.
  EXPECT_EQ(calls, 16);
}

TEST(BusSearch, OpenCircuitAtTheFloorIsInfeasibleWithoutAnEvaluation) {
  int calls = 0;
  const co::BusOperatingPoint bus = co::find_bus_voltage(
      [&](double v) {
        ++calls;
        return synthetic_current(v);
      },
      0.3005, 1.0, 0.3, 1e-3);
  EXPECT_FALSE(bus.feasible);
  EXPECT_EQ(calls, 0);
}

TEST(BusSearch, ANonFiniteCurrentInsideTheBracketIsANamedError) {
  // Finite at every scan voltage, NaN around the crossing, so Brent's first
  // interior point inside [0.799, 0.999] V hits it.
  const auto current = [](double v) {
    return (v > 0.80 && v < 0.84) ? std::numeric_limits<double>::quiet_NaN()
                                  : synthetic_current(v);
  };
  try {
    (void)co::find_bus_voltage(current, kSyntheticOcv, 6.0, 0.2, 1e-3 * 6.0);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bus voltage search: array current nan A at 0.8"), std::string::npos)
        << what;
    EXPECT_NE(what.find("is not finite (bracket [0.799000, 0.999000] V, last residual "),
              std::string::npos)
        << what;
  }
}

// --------------------------------------------------------------- throttling
TEST(Throttling, IntegratedPackageStaysBright) {
  // With microfluidic cooling the POWER7+ runs all cores at full power.
  const auto config = fast_config();
  th::ThermalModel model(config.stack, ch::kPower7DieWidthM, ch::kPower7DieHeightM,
                         config.thermal_grid);
  co::ThrottleEnvironment env;
  env.thermal_model = &model;
  env.thermal_op.total_flow_m3_per_s = config.array_spec.total_flow_m3_per_s;
  env.thermal_op.inlet_temperature_k = config.array_spec.inlet_temperature_k;
  env.grid_spec = &config.grid_spec;
  env.taps = pd::make_vrm_grid(4, 4, ch::kPower7DieWidthM, ch::kPower7DieHeightM, 1.0, 25e-3);
  env.power_spec = config.power_spec;
  env.rail_filter = [](const ch::Block& b) { return ch::is_cache(b.type); };

  const auto result = co::find_max_core_activity(env, co::ThrottleConstraints{});
  EXPECT_DOUBLE_EQ(result.max_activity, 1.0);
  EXPECT_LT(result.peak_temperature_c, 85.0);
}

/// Conventional baseline environment: air-cooled package, edge-fed primary
/// rail supervising the whole chip (so core activity moves the rail load).
struct ConventionalBaseline {
  th::ThermalModel model;
  pd::PowerGridSpec core_rail;
  co::ThrottleEnvironment env;

  explicit ConventionalBaseline(const co::SystemConfig& config)
      : model(th::power7_conventional_stack(1200.0, 318.15), ch::kPower7DieWidthM,
              ch::kPower7DieHeightM, config.thermal_grid) {
    core_rail.sheet_resistance_ohm_per_sq = 5e-3;  // full-metal primary rail
    env.thermal_model = &model;
    env.grid_spec = &core_rail;
    env.taps = pd::make_edge_taps(20, ch::kPower7DieWidthM, ch::kPower7DieHeightM, 1.0, 2e-3);
    env.power_spec = config.power_spec;
    // default rail_filter: every block (the conventional core rail)
  }
};

TEST(Throttling, ConventionalPackageGoesDark) {
  // Air-cooled baseline with a modest sink cannot hold full activity.
  const ConventionalBaseline baseline(fast_config());
  const auto result = co::find_max_core_activity(baseline.env, co::ThrottleConstraints{});
  EXPECT_LT(result.max_activity, 0.9);
  EXPECT_GT(result.max_activity, 0.0);  // partial operation still possible
  EXPECT_TRUE(result.thermally_limited || result.voltage_limited);
  EXPECT_LE(result.peak_temperature_c, 85.5);
}

TEST(Throttling, TighterLimitDarkensMore) {
  const ConventionalBaseline baseline(fast_config());
  co::ThrottleConstraints strict;
  strict.max_junction_c = 70.0;
  co::ThrottleConstraints loose;
  loose.max_junction_c = 95.0;
  EXPECT_LT(co::find_max_core_activity(baseline.env, strict).max_activity,
            co::find_max_core_activity(baseline.env, loose).max_activity);
}

// ------------------------------------------------------------------ report
TEST(Report, TextTableFormats) {
  co::TextTable table({"a", "b"});
  table.add_row({"1", "2"});
  table.add_row({"long-cell", "x"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-cell"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, NumFormatsPrecision) {
  EXPECT_EQ(co::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(co::TextTable::num(41.0, 1), "41.0");
}

TEST(Report, DownsamplePreservesMean) {
  brightsi::numerics::Grid2<double> field(40, 30, 2.5);
  const auto small = co::downsample(field, 8, 6);
  EXPECT_EQ(small.nx(), 8);
  EXPECT_EQ(small.ny(), 6);
  for (const double v : small.data()) {
    EXPECT_NEAR(v, 2.5, 1e-12);
  }
}

TEST(Report, AsciiMapRendersGradient) {
  brightsi::numerics::Grid2<double> field(16, 8, 0.0);
  for (int iy = 0; iy < 8; ++iy) {
    for (int ix = 0; ix < 16; ++ix) {
      field(ix, iy) = ix;
    }
  }
  std::ostringstream os;
  co::print_ascii_map(os, field, "test", "C", 16, 8);
  const std::string out = os.str();
  EXPECT_NE(out.find('@'), std::string::npos);  // hottest shade present
  EXPECT_NE(out.find("test"), std::string::npos);
}

TEST(Report, FieldCsvHasHeaderAndRows) {
  brightsi::numerics::Grid2<double> field(2, 2, 1.0);
  std::ostringstream os;
  co::write_field_csv(os, field, 1e-3, 1e-3);
  const std::string out = os.str();
  EXPECT_EQ(out.find("x_mm,y_mm,value"), 0u);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);
}

TEST(Report, ResultsFileRoundTrip) {
  const std::string path = co::write_results_file(
      "unit_test_artifact.csv", [](std::ostream& os) { os << "a,b\n1,2\n"; });
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
}

TEST(Report, ResultsFileRejectsPathEscapes) {
  EXPECT_THROW((void)co::write_results_file("../evil.csv", [](std::ostream&) {}),
               std::invalid_argument);
  EXPECT_THROW((void)co::write_results_file("", [](std::ostream&) {}),
               std::invalid_argument);
}

TEST(Report, SeriesCsvRejectsRagged) {
  std::ostringstream os;
  EXPECT_THROW(
      co::write_series_csv(os, {"a", "b"}, {{1.0, 2.0}, {3.0}}),
      std::invalid_argument);
  co::write_series_csv(os, {"a", "b"}, {{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(os.str(), "a,b\n1,3\n2,4\n");
}

}  // namespace
