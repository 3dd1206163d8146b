// Tests of the PDN module: analytic single-resistor and uniform-strip
// cases, an independent ILU(0)-CG oracle for the spectral rail solve, KCL
// conservation, monotonicity in taps/sheet resistance, the Fig. 8
// calibration window and the VRM conversion model.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "chip/power7.h"
#include "numerics/linear_solvers.h"
#include "numerics/sparse_matrix.h"
#include "pdn/power_grid.h"
#include "pdn/vrm.h"

namespace pd = brightsi::pdn;
namespace ch = brightsi::chip;
namespace nm = brightsi::numerics;

namespace {

ch::Floorplan single_load_floorplan(double power_w) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"load", ch::BlockType::kL2Cache, ch::rect_mm(4, 4, 2, 2), power_w / 4e-6});
  return fp;
}

// ------------------------------------------------------------- grid basics
TEST(PowerGrid, SpecValidation) {
  pd::PowerGridSpec spec;
  spec.nodes_x = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = pd::PowerGridSpec{};
  spec.sheet_resistance_ohm_per_sq = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(PowerGrid, NominalLoadCurrentMatchesBlockPower) {
  pd::PowerGridSpec spec;
  spec.nodes_x = 20;
  spec.nodes_y = 20;
  const auto fp = single_load_floorplan(3.0);
  const pd::PowerGrid grid(spec, fp);
  EXPECT_NEAR(grid.nominal_load_current_a(), 3.0, 1e-9);  // 3 W at 1 V
}

TEST(PowerGrid, DefaultFilterSelectsCaches) {
  pd::PowerGridSpec spec;
  spec.nodes_x = 10;
  spec.nodes_y = 10;
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"core", ch::BlockType::kCore, ch::rect_mm(0, 0, 5, 10), 1e5});
  fp.add_block({"l3", ch::BlockType::kL3Cache, ch::rect_mm(5, 0, 5, 10), 2e4});
  const pd::PowerGrid grid(spec, fp);
  EXPECT_NEAR(grid.nominal_load_current_a(), fp.cache_power(), 1e-9);
}

TEST(PowerGrid, SolveRequiresTaps) {
  const auto fp = single_load_floorplan(1.0);
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  EXPECT_THROW(grid.solve({}), std::invalid_argument);
}

// --------------------------------------------------------------- KCL checks
TEST(PowerGrid, SupplyCurrentEqualsLoadCurrent) {
  // Property: in steady state, the VRM taps source exactly the sink total.
  const auto fp = single_load_floorplan(2.5);
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps =
      pd::make_vrm_grid(3, 3, fp.die_width(), fp.die_height(), 1.0, 10e-3);
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.total_supply_current_a, sol.total_load_current_a, 1e-6);
}

TEST(PowerGrid, NoLoadMeansFlatRailAtSetPoint) {
  ch::Floorplan fp(10e-3, 10e-3);
  fp.add_block({"core", ch::BlockType::kCore, ch::rect_mm(0, 0, 10, 10), 1e5});
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);  // cache filter: no loads
  const auto taps = pd::make_vrm_grid(2, 2, fp.die_width(), fp.die_height(), 1.0, 10e-3);
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.min_voltage_v, 1.0, 1e-9);
  EXPECT_NEAR(sol.max_voltage_v, 1.0, 1e-9);
  EXPECT_NEAR(sol.ohmic_loss_w, 0.0, 1e-12);
}

TEST(PowerGrid, SingleTapAnalyticDrop) {
  // One tap with output resistance R sourcing a total current I: the tap
  // node sits at set_point - I*R regardless of the mesh.
  const auto fp = single_load_floorplan(2.0);  // 2 A at 1 V
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const double r_out = 20e-3;
  const std::vector<pd::VrmTap> taps = {{5e-3, 5e-3, 1.0, r_out}};
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.max_voltage_v, 1.0 - 2.0 * r_out, 2e-3);
}

// ------------------------------------------------------------ monotonicity
TEST(PowerGrid, MoreTapsReduceDroop) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto few = pd::make_vrm_grid(2, 2, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto many = pd::make_vrm_grid(6, 6, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  EXPECT_GT(grid.solve(many).min_voltage_v, grid.solve(few).min_voltage_v);
}

TEST(PowerGrid, HigherSheetResistanceMoreDroop) {
  const auto fp = ch::make_power7_floorplan();
  pd::PowerGridSpec lo;
  lo.sheet_resistance_ohm_per_sq = 0.02;
  pd::PowerGridSpec hi;
  hi.sheet_resistance_ohm_per_sq = 0.2;
  const auto taps = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  EXPECT_GT(pd::PowerGrid(lo, fp).solve(taps).min_voltage_v,
            pd::PowerGrid(hi, fp).solve(taps).min_voltage_v);
}

TEST(PowerGrid, EdgeFeedingWorseThanDistributed) {
  // The paper's architectural point: in-package distributed VRMs beat
  // peripheral feeding for the same tap count and output resistance.
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto distributed =
      pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto edge = pd::make_edge_taps(8, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  ASSERT_EQ(distributed.size(), edge.size());
  EXPECT_GT(grid.solve(distributed).min_voltage_v, grid.solve(edge).min_voltage_v);
}

// ----------------------------------------------------------- Fig. 8 window
TEST(PowerGrid, Fig8CalibrationWindow) {
  // Paper Fig. 8: cache-rail voltages between ~0.96 and ~0.995 V at the
  // 5 A load with distributed in-package VRMs.
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto sol = grid.solve(taps);
  EXPECT_NEAR(sol.min_voltage_v, 0.962, 0.008);
  EXPECT_NEAR(sol.max_voltage_v, 0.995, 0.004);
  EXPECT_NEAR(sol.total_load_current_a, 5.0, 0.05);
}

TEST(PowerGrid, OhmicLossIsSmallFraction) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto taps = pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3);
  const auto sol = grid.solve(taps);
  EXPECT_GT(sol.ohmic_loss_w, 0.0);
  EXPECT_LT(sol.ohmic_loss_w, 0.25);  // a few % of the 5 W rail
}

// ------------------------------------------------- independent oracles
/// The rail's nodal system G v = b assembled as a sparse matrix (5-point
/// stencil plus one conductance per tap) and solved by ILU(0)-preconditioned
/// CG: a method unrelated to the spectral solve inside PowerGrid.
std::vector<double> cg_rail_voltages(const pd::PowerGrid& grid, const ch::Floorplan& fp,
                                     const std::vector<pd::VrmTap>& taps) {
  const int nx = grid.spec().nodes_x;
  const int ny = grid.spec().nodes_y;
  const int n = nx * ny;
  const double dx = fp.die_width() / nx;
  const double dy = fp.die_height() / ny;
  const double g_x = dy / dx / grid.spec().sheet_resistance_ohm_per_sq;
  const double g_y = dx / dy / grid.spec().sheet_resistance_ohm_per_sq;
  nm::TripletList triplets(static_cast<std::size_t>(n) * 5 + taps.size());
  std::vector<double> rhs(static_cast<std::size_t>(n), 0.0);
  auto stamp_edge = [&triplets](int a, int b, double g) {
    triplets.add(a, a, g);
    triplets.add(b, b, g);
    triplets.add(a, b, -g);
    triplets.add(b, a, -g);
  };
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const int me = iy * nx + ix;
      if (ix + 1 < nx) {
        stamp_edge(me, me + 1, g_x);
      }
      if (iy + 1 < ny) {
        stamp_edge(me, me + nx, g_y);
      }
      rhs[static_cast<std::size_t>(me)] -= grid.load_current_map()(ix, iy);
    }
  }
  for (const pd::VrmTap& tap : taps) {
    const int ix = std::clamp(static_cast<int>(std::floor(tap.x_m / dx)), 0, nx - 1);
    const int iy = std::clamp(static_cast<int>(std::floor(tap.y_m / dy)), 0, ny - 1);
    const int node = iy * nx + ix;
    triplets.add(node, node, 1.0 / tap.output_resistance_ohm);
    rhs[static_cast<std::size_t>(node)] += tap.set_point_v / tap.output_resistance_ohm;
  }
  const auto matrix = nm::CsrMatrix::from_triplets(n, n, triplets);
  const nm::Ilu0Preconditioner precond(matrix);
  nm::SolverOptions options;
  options.relative_tolerance = 1e-12;
  options.max_iterations = 20000;
  std::vector<double> v(static_cast<std::size_t>(n), grid.spec().nominal_voltage_v);
  const nm::SolverReport report = nm::solve_cg(matrix, rhs, v, &precond, options);
  EXPECT_TRUE(report.converged);
  return v;
}

/// Solves `taps` both ways and checks node voltages and current totals.
void expect_matches_cg_oracle(const pd::PowerGrid& grid, const ch::Floorplan& fp,
                              const std::vector<pd::VrmTap>& taps) {
  const pd::PowerGridSolution sol = grid.solve(taps);
  const std::vector<double> oracle = cg_rail_voltages(grid, fp, taps);
  ASSERT_EQ(sol.node_voltage_v.data().size(), oracle.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(sol.node_voltage_v.data()[i] - oracle[i]));
  }
  EXPECT_LE(max_diff, 1e-10);
  EXPECT_NEAR(sol.total_supply_current_a, sol.total_load_current_a,
              1e-9 * sol.total_load_current_a);
  EXPECT_NEAR(sol.total_load_current_a, grid.nominal_load_current_a(), 1e-12);
}

TEST(PowerGridOracle, MatchesCgOnPower7TapGrids) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const double w = fp.die_width();
  const double h = fp.die_height();
  expect_matches_cg_oracle(grid, fp, {{0.3 * w, 0.6 * h, 1.0, 25e-3}});
  expect_matches_cg_oracle(grid, fp, pd::make_vrm_grid(2, 2, w, h, 1.0, 10e-3));
  expect_matches_cg_oracle(grid, fp, pd::make_vrm_grid(6, 6, w, h, 1.0, 50e-3));
  expect_matches_cg_oracle(grid, fp, pd::make_edge_taps(8, w, h, 1.0, 25e-3));
}

TEST(PowerGridOracle, TwoTapsOnOneNodeMatchCg) {
  // R_out > 0 keeps the bordered tap system nonsingular even when two taps
  // share a node (identical rows of S).
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const double x = 0.4 * fp.die_width();
  const double y = 0.5 * fp.die_height();
  const std::vector<pd::VrmTap> taps = {{x, y, 1.0, 20e-3}, {x, y, 1.01, 40e-3},
                                        {0.8 * fp.die_width(), y, 1.0, 25e-3}};
  expect_matches_cg_oracle(grid, fp, taps);
}

TEST(PowerGridOracle, NonSquareMeshMatchesCg) {
  const auto fp = ch::make_power7_floorplan();
  pd::PowerGridSpec spec;
  spec.nodes_x = 20;
  spec.nodes_y = 7;
  const pd::PowerGrid grid(spec, fp);
  expect_matches_cg_oracle(grid, fp,
                           pd::make_vrm_grid(3, 2, fp.die_width(), fp.die_height(), 1.0, 25e-3));
  expect_matches_cg_oracle(grid, fp,
                           pd::make_edge_taps(4, fp.die_width(), fp.die_height(), 1.0, 25e-3));
}

TEST(PowerGridOracle, UniformStripFedFromTheLeftEdgeIsExact) {
  // One cache block covering the die sinks the same current I at every
  // node; one tap of resistance r per mesh row, in the left column, makes
  // every row an independent chain. The tap carries nx I and edge j carries
  // (nx - 1 - j) I, so the far node sits at
  //   v_far = s - r nx I - I nx (nx - 1) / (2 g_x).
  const double width_mm = 10.0;
  const double height_mm = 5.0;
  const double power_w = 2.0;
  ch::Floorplan fp(width_mm * 1e-3, height_mm * 1e-3);
  fp.add_block({"l3", ch::BlockType::kL3Cache, ch::rect_mm(0, 0, width_mm, height_mm),
                power_w / (width_mm * height_mm * 1e-6)});
  pd::PowerGridSpec spec;
  spec.nodes_x = 20;
  spec.nodes_y = 7;
  const pd::PowerGrid grid(spec, fp);
  const double set_point = 1.0;
  const double r = 10e-3;
  std::vector<pd::VrmTap> taps;
  for (int iy = 0; iy < spec.nodes_y; ++iy) {
    taps.push_back({1e-6, fp.die_height() * (iy + 0.5) / spec.nodes_y, set_point, r});
  }
  const pd::PowerGridSolution sol = grid.solve(taps);

  const double nx = spec.nodes_x;
  const double current = grid.nominal_load_current_a() / (nx * spec.nodes_y);
  const double dx = fp.die_width() / spec.nodes_x;
  const double dy = fp.die_height() / spec.nodes_y;
  const double g_x = dy / dx / spec.sheet_resistance_ohm_per_sq;
  const double v_far = set_point - r * nx * current - current * nx * (nx - 1.0) / (2.0 * g_x);
  for (int iy = 0; iy < spec.nodes_y; ++iy) {
    EXPECT_NEAR(sol.node_voltage_v(spec.nodes_x - 1, iy), v_far, 1e-12 * v_far);
    EXPECT_NEAR(sol.node_voltage_v(0, iy), set_point - r * nx * current, 1e-12);
  }
  EXPECT_NEAR(sol.min_voltage_v, v_far, 1e-12 * v_far);
}

TEST(PowerGridOracle, SolverReportIsADirectSolve) {
  const auto fp = ch::make_power7_floorplan();
  const pd::PowerGrid grid(pd::PowerGridSpec{}, fp);
  const auto sol =
      grid.solve(pd::make_vrm_grid(4, 4, fp.die_width(), fp.die_height(), 1.0, 25e-3));
  EXPECT_TRUE(sol.solver_report.converged);
  EXPECT_EQ(sol.solver_report.iterations, 0);
  EXPECT_LE(sol.solver_report.residual_norm, 1e-9);
}

// -------------------------------------------------------------------- taps
TEST(Taps, GridPlacementCoversDie) {
  const auto taps = pd::make_vrm_grid(3, 2, 26.55e-3, 21.34e-3, 1.0, 1e-3);
  ASSERT_EQ(taps.size(), 6u);
  for (const auto& tap : taps) {
    EXPECT_GT(tap.x_m, 0.0);
    EXPECT_LT(tap.x_m, 26.55e-3);
    EXPECT_GT(tap.y_m, 0.0);
    EXPECT_LT(tap.y_m, 21.34e-3);
  }
}

TEST(Taps, EdgePlacementOnPerimeter) {
  const auto taps = pd::make_edge_taps(5, 26.55e-3, 21.34e-3, 1.0, 1e-3);
  ASSERT_EQ(taps.size(), 10u);
  for (const auto& tap : taps) {
    EXPECT_TRUE(tap.x_m < 1e-4 || tap.x_m > 26.55e-3 - 1e-4);
  }
}

// --------------------------------------------------------------------- VRM
TEST(Vrm, SpecValidation) {
  pd::VrmSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.efficiency = 1.2;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = pd::VrmSpec{};
  spec.max_input_voltage_v = spec.min_input_voltage_v;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Vrm, ConversionArithmetic) {
  pd::VrmSpec spec;  // 86 % efficient
  const auto c = pd::convert_at_bus(spec, 5.0, 1.0);
  EXPECT_NEAR(c.input_power_w, 5.0 / 0.86, 1e-9);
  EXPECT_NEAR(c.input_current_a, 5.0 / 0.86, 1e-9);
  EXPECT_NEAR(c.loss_w, 5.0 / 0.86 - 5.0, 1e-9);
  EXPECT_TRUE(c.input_in_window);
}

TEST(Vrm, WindowDetection) {
  pd::VrmSpec spec;
  EXPECT_FALSE(pd::convert_at_bus(spec, 1.0, 0.5).input_in_window);
  EXPECT_FALSE(pd::convert_at_bus(spec, 1.0, 2.5).input_in_window);
  EXPECT_TRUE(pd::convert_at_bus(spec, 1.0, 1.2).input_in_window);
}

TEST(Vrm, HigherBusVoltageLowersInputCurrent) {
  pd::VrmSpec spec;
  EXPECT_GT(pd::convert_at_bus(spec, 5.0, 1.0).input_current_a,
            pd::convert_at_bus(spec, 5.0, 1.5).input_current_a);
}

}  // namespace
