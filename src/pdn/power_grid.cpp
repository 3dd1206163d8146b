#include "pdn/power_grid.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "chip/power_map.h"
#include "numerics/contracts.h"
#include "numerics/dense_matrix.h"

namespace brightsi::pdn {

namespace {

/// Relative residual above which a rail solve is rejected.
constexpr double kResidualLimit = 1e-9;

/// Orthonormal DCT-II basis of the n-node path Laplacian with Neumann ends,
/// mode-major: basis[p * n + i] = c_p cos(pi p (2i + 1) / 2n), c_0 =
/// sqrt(1/n), c_p = sqrt(2/n). Every angle is a multiple of pi / 2n, so a
/// 4n-entry cosine table indexed modulo 4n supplies all n^2 entries.
std::vector<double> dct2_basis(int n) {
  const auto size = static_cast<std::size_t>(n);
  std::vector<double> cosine(4 * size);
  for (std::size_t m = 0; m < cosine.size(); ++m) {
    cosine[m] = std::cos(std::numbers::pi * static_cast<double>(m) / (2.0 * n));
  }
  const double c0 = std::sqrt(1.0 / n);
  const double c = std::sqrt(2.0 / n);
  std::vector<double> basis(size * size);
  for (std::size_t p = 0; p < size; ++p) {
    std::size_t angle = p;  // p (2i + 1) mod 4n; 2p < 4n, so one wrap per step
    for (std::size_t i = 0; i < size; ++i) {
      basis[p * size + i] = (p == 0 ? c0 : c) * cosine[angle];
      angle += 2 * p;
      if (angle >= cosine.size()) {
        angle -= cosine.size();
      }
    }
  }
  return basis;
}

/// Eigenvalues 4 g sin^2(pi p / 2n) of that path Laplacian with edge
/// conductance g.
std::vector<double> neumann_eigenvalues(int n, double g) {
  std::vector<double> eigen(static_cast<std::size_t>(n));
  for (std::size_t p = 0; p < eigen.size(); ++p) {
    const double s = std::sin(std::numbers::pi * static_cast<double>(p) / (2.0 * n));
    eigen[p] = 4.0 * g * s * s;
  }
  return eigen;
}

}  // namespace

void PowerGridSpec::validate() const {
  ensure(nodes_x >= 2 && nodes_y >= 2, "power grid needs at least a 2x2 mesh");
  ensure_positive(sheet_resistance_ohm_per_sq, "sheet resistance");
  ensure_positive(nominal_voltage_v, "nominal voltage");
}

PowerGrid::PowerGrid(PowerGridSpec spec, const chip::Floorplan& floorplan,
                     std::function<bool(const chip::Block&)> load_filter)
    : spec_(spec), die_width_m_(floorplan.die_width()), die_height_m_(floorplan.die_height()) {
  spec_.validate();
  if (!load_filter) {
    load_filter = [](const chip::Block& b) { return chip::is_cache(b.type); };
  }
  // Per-node sink currents at the nominal rail voltage: rasterize the
  // filtered block power onto the node grid (cell-centered), divide by V.
  const numerics::Grid2<double> power =
      chip::rasterize_power_w(floorplan, spec_.nodes_x, spec_.nodes_y, load_filter);
  load_current_a_ = numerics::Grid2<double>(spec_.nodes_x, spec_.nodes_y, 0.0);
  for (std::size_t i = 0; i < power.data().size(); ++i) {
    load_current_a_.data()[i] = power.data()[i] / spec_.nominal_voltage_v;
  }

  // Edge conductances: a uniform mesh of squares has edge resistance equal
  // to the sheet resistance times the edge aspect; with near-square cells
  // the x/y aspect corrections keep the continuum limit exact.
  const double dx = die_width_m_ / spec_.nodes_x;
  const double dy = die_height_m_ / spec_.nodes_y;
  conductance_x_ = dy / dx / spec_.sheet_resistance_ohm_per_sq;
  conductance_y_ = dx / dy / spec_.sheet_resistance_ohm_per_sq;

  basis_x_ = dct2_basis(spec_.nodes_x);
  basis_y_ = dct2_basis(spec_.nodes_y);
  eigen_x_ = neumann_eigenvalues(spec_.nodes_x, conductance_x_);
  eigen_y_ = neumann_eigenvalues(spec_.nodes_y, conductance_y_);
}

double PowerGrid::nominal_load_current_a() const {
  double total = 0.0;
  for (const double i : load_current_a_.data()) {
    total += i;
  }
  return total;
}

int PowerGrid::nearest_node_x(double x_m) const {
  const double pitch = die_width_m_ / spec_.nodes_x;
  const int ix = static_cast<int>(std::floor(x_m / pitch));
  return std::clamp(ix, 0, spec_.nodes_x - 1);
}

int PowerGrid::nearest_node_y(double y_m) const {
  const double pitch = die_height_m_ / spec_.nodes_y;
  const int iy = static_cast<int>(std::floor(y_m / pitch));
  return std::clamp(iy, 0, spec_.nodes_y - 1);
}

// Node fields are row-major (index iy * nx + ix); spectral fields use the
// same layout with (q, p) in place of (iy, ix).
std::vector<double> PowerGrid::to_spectral(const std::vector<double>& nodes) const {
  const auto nx = static_cast<std::size_t>(spec_.nodes_x);
  const auto ny = static_cast<std::size_t>(spec_.nodes_y);
  // Along x: partial[iy][p] = sum_ix nodes[iy][ix] phi_p(ix).
  std::vector<double> partial(nx * ny);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const double* row = &nodes[iy * nx];
    for (std::size_t p = 0; p < nx; ++p) {
      const double* mode = &basis_x_[p * nx];
      double sum = 0.0;
      for (std::size_t ix = 0; ix < nx; ++ix) {
        sum += row[ix] * mode[ix];
      }
      partial[iy * nx + p] = sum;
    }
  }
  // Along y: spectral[q][p] = sum_iy psi_q(iy) partial[iy][p].
  std::vector<double> spectral(nx * ny, 0.0);
  for (std::size_t q = 0; q < ny; ++q) {
    double* out = &spectral[q * nx];
    for (std::size_t iy = 0; iy < ny; ++iy) {
      const double c = basis_y_[q * ny + iy];
      const double* in = &partial[iy * nx];
      for (std::size_t p = 0; p < nx; ++p) {
        out[p] += c * in[p];
      }
    }
  }
  return spectral;
}

std::vector<double> PowerGrid::to_nodes(const std::vector<double>& spectral) const {
  const auto nx = static_cast<std::size_t>(spec_.nodes_x);
  const auto ny = static_cast<std::size_t>(spec_.nodes_y);
  // Along y: partial[iy][p] = sum_q psi_q(iy) spectral[q][p].
  std::vector<double> partial(nx * ny, 0.0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    double* out = &partial[iy * nx];
    for (std::size_t q = 0; q < ny; ++q) {
      const double c = basis_y_[q * ny + iy];
      const double* in = &spectral[q * nx];
      for (std::size_t p = 0; p < nx; ++p) {
        out[p] += c * in[p];
      }
    }
  }
  // Along x: nodes[iy][ix] = sum_p partial[iy][p] phi_p(ix).
  std::vector<double> nodes(nx * ny, 0.0);
  for (std::size_t iy = 0; iy < ny; ++iy) {
    double* out = &nodes[iy * nx];
    for (std::size_t p = 0; p < nx; ++p) {
      const double c = partial[iy * nx + p];
      const double* mode = &basis_x_[p * nx];
      for (std::size_t ix = 0; ix < nx; ++ix) {
        out[ix] += c * mode[ix];
      }
    }
  }
  return nodes;
}

void PowerGrid::apply_laplacian_pseudoinverse(std::vector<double>& spectral) const {
  const std::size_t nx = eigen_x_.size();
  for (std::size_t q = 0; q < eigen_y_.size(); ++q) {
    for (std::size_t p = 0; p < nx; ++p) {
      spectral[q * nx + p] =
          (p == 0 && q == 0) ? 0.0 : spectral[q * nx + p] / (eigen_x_[p] + eigen_y_[q]);
    }
  }
}

PowerGridSolution PowerGrid::solve(const std::vector<VrmTap>& taps) const {
  ensure(!taps.empty(), "PowerGrid::solve needs at least one VRM tap");
  const auto start = std::chrono::steady_clock::now();
  const int nx = spec_.nodes_x;
  const int ny = spec_.nodes_y;
  const auto nxs = static_cast<std::size_t>(nx);
  const auto nys = static_cast<std::size_t>(ny);
  const std::size_t k = taps.size();
  const numerics::Grid2<double>& loads = load_current_a_;
  auto index = [nx](int ix, int iy) {
    return static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx) +
           static_cast<std::size_t>(ix);
  };
  const double g_x = conductance_x_;
  const double g_y = conductance_y_;

  // Tap nodes, the distinct mesh rows they sit on, and each tap's row slot.
  std::vector<std::size_t> tap_x(k);
  std::vector<std::size_t> tap_node(k);
  std::vector<std::size_t> rows(k);
  for (std::size_t a = 0; a < k; ++a) {
    ensure_positive(taps[a].output_resistance_ohm, "VRM output resistance");
    const int ix = nearest_node_x(taps[a].x_m);
    const int iy = nearest_node_y(taps[a].y_m);
    tap_x[a] = static_cast<std::size_t>(ix);
    tap_node[a] = index(ix, iy);
    rows[a] = static_cast<std::size_t>(iy);
  }
  std::vector<std::size_t> tap_slot(k);
  {
    std::vector<std::size_t> tap_row = rows;
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (std::size_t a = 0; a < k; ++a) {
      tap_slot[a] = static_cast<std::size_t>(
          std::lower_bound(rows.begin(), rows.end(), tap_row[a]) - rows.begin());
    }
  }
  const std::size_t m = rows.size();
  // Mode values at the taps: column_modes[a][p] = phi_p(ix_a), and
  // row_modes[s][q] = psi_q(rows[s]).
  std::vector<double> column_modes(k * nxs);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t p = 0; p < nxs; ++p) {
      column_modes[a * nxs + p] = basis_x_[p * nxs + tap_x[a]];
    }
  }
  std::vector<double> row_modes(m * nys);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t q = 0; q < nys; ++q) {
      row_modes[s * nys + q] = basis_y_[q * nys + rows[s]];
    }
  }

  // u = L+(-f): sinks draw current out of their nodes.
  std::vector<double> rhs(loads.data().size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    rhs[i] = -loads.data()[i];
  }
  std::vector<double> rhs_hat = to_spectral(rhs);
  std::vector<double> u_hat = rhs_hat;
  apply_laplacian_pseudoinverse(u_hat);

  // u at the tap nodes: first along y onto each tap row, then along x.
  std::vector<double> u_rows(m * nxs, 0.0);
  for (std::size_t s = 0; s < m; ++s) {
    double* out = &u_rows[s * nxs];
    for (std::size_t q = 0; q < nys; ++q) {
      const double c = row_modes[s * nys + q];
      const double* in = &u_hat[q * nxs];
      for (std::size_t p = 0; p < nxs; ++p) {
        out[p] += c * in[p];
      }
    }
  }

  // S = P L+ P^T by separability: per x mode p and tap-row pair (s, t),
  // T[s][t][p] = sum_q psi_q(r_s) psi_q(r_t) / (lambda_p + mu_q), then
  // S_ab = sum_p phi_p(c_a) phi_p(c_b) T[s_a][s_b][p].
  std::vector<double> row_coupling(m * m * nxs);
  std::vector<double> inverse_eigen(nys);
  for (std::size_t p = 0; p < nxs; ++p) {
    for (std::size_t q = 0; q < nys; ++q) {
      inverse_eigen[q] = (p == 0 && q == 0) ? 0.0 : 1.0 / (eigen_x_[p] + eigen_y_[q]);
    }
    for (std::size_t s = 0; s < m; ++s) {
      for (std::size_t t = s; t < m; ++t) {
        double sum = 0.0;
        for (std::size_t q = 0; q < nys; ++q) {
          sum += row_modes[s * nys + q] * row_modes[t * nys + q] * inverse_eigen[q];
        }
        row_coupling[(s * m + t) * nxs + p] = sum;
        row_coupling[(t * m + s) * nxs + p] = sum;
      }
    }
  }

  // Bordered tap system [S + diag(R_out), 1; 1^T, 0] [w; c] = [s - u_tap; sum f].
  numerics::DenseMatrix bordered(static_cast<int>(k + 1), static_cast<int>(k + 1), 0.0);
  std::vector<double> unknowns(k + 1);
  for (std::size_t a = 0; a < k; ++a) {
    const double* col_a = &column_modes[a * nxs];
    for (std::size_t b = a; b < k; ++b) {
      const double* col_b = &column_modes[b * nxs];
      const double* coupling = &row_coupling[(tap_slot[a] * m + tap_slot[b]) * nxs];
      double sum = 0.0;
      for (std::size_t p = 0; p < nxs; ++p) {
        sum += col_a[p] * col_b[p] * coupling[p];
      }
      bordered.at(static_cast<int>(a), static_cast<int>(b)) = sum;
      bordered.at(static_cast<int>(b), static_cast<int>(a)) = sum;
    }
    bordered.at(static_cast<int>(a), static_cast<int>(a)) += taps[a].output_resistance_ohm;
    bordered.at(static_cast<int>(a), static_cast<int>(k)) = 1.0;
    bordered.at(static_cast<int>(k), static_cast<int>(a)) = 1.0;

    double u_tap = 0.0;
    const double* u_row = &u_rows[tap_slot[a] * nxs];
    for (std::size_t p = 0; p < nxs; ++p) {
      u_tap += col_a[p] * u_row[p];
    }
    unknowns[a] = taps[a].set_point_v - u_tap;
  }
  unknowns[k] = nominal_load_current_a();
  numerics::LuFactorization(bordered).solve(unknowns, unknowns);

  // v = L+(-f + P^T w) + c: add the tap currents to the transformed
  // right-hand side row by row, divide by the eigenvalues, transform back.
  std::vector<double> tap_rows(m * nxs, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    double* out = &tap_rows[tap_slot[a] * nxs];
    for (std::size_t p = 0; p < nxs; ++p) {
      out[p] += unknowns[a] * column_modes[a * nxs + p];
    }
  }
  for (std::size_t q = 0; q < nys; ++q) {
    double* out = &rhs_hat[q * nxs];
    for (std::size_t s = 0; s < m; ++s) {
      const double c = row_modes[s * nys + q];
      const double* in = &tap_rows[s * nxs];
      for (std::size_t p = 0; p < nxs; ++p) {
        out[p] += c * in[p];
      }
    }
  }
  apply_laplacian_pseudoinverse(rhs_hat);
  std::vector<double> voltages = to_nodes(rhs_hat);
  for (double& v : voltages) {
    v += unknowns[k];
  }

  // Self-check: the residual of G v = b with the 5-point stencil plus taps.
  for (std::size_t a = 0; a < k; ++a) {
    rhs[tap_node[a]] += taps[a].set_point_v / taps[a].output_resistance_ohm;
  }
  std::vector<double> applied(voltages.size(), 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    applied[tap_node[a]] += voltages[tap_node[a]] / taps[a].output_resistance_ohm;
  }
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      const std::size_t me = index(ix, iy);
      if (ix + 1 < nx) {
        const double flow = g_x * (voltages[me] - voltages[me + 1]);
        applied[me] += flow;
        applied[me + 1] -= flow;
      }
      if (iy + 1 < ny) {
        const double flow = g_y * (voltages[me] - voltages[me + nxs]);
        applied[me] += flow;
        applied[me + nxs] -= flow;
      }
    }
  }
  double residual_sq = 0.0;
  double rhs_sq = 0.0;
  for (std::size_t i = 0; i < applied.size(); ++i) {
    const double r = applied[i] - rhs[i];
    residual_sq += r * r;
    rhs_sq += rhs[i] * rhs[i];
  }
  const double residual =
      rhs_sq > 0.0 ? std::sqrt(residual_sq / rhs_sq) : std::sqrt(residual_sq);
  if (!(residual <= kResidualLimit)) {
    throw std::runtime_error("PowerGrid::solve: spectral solve residual " +
                             std::to_string(residual) + " exceeds 1e-9");
  }

  PowerGridSolution out;
  out.solver_report.converged = true;
  out.solver_report.iterations = 0;
  out.solver_report.residual_norm = residual;
  out.solver_report.solve_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  out.node_voltage_v = numerics::Grid2<double>(nx, ny, 0.0);
  out.node_voltage_v.data() = voltages;
  out.min_voltage_v = *std::min_element(voltages.begin(), voltages.end());
  out.max_voltage_v = *std::max_element(voltages.begin(), voltages.end());
  double sum = 0.0;
  for (const double v : voltages) {
    sum += v;
  }
  out.mean_voltage_v = sum / static_cast<double>(voltages.size());
  for (const double i : loads.data()) {
    out.total_load_current_a += i;
  }
  double max_set_point = 0.0;
  for (const VrmTap& tap : taps) {
    const std::size_t node = index(nearest_node_x(tap.x_m), nearest_node_y(tap.y_m));
    const double current = (tap.set_point_v - voltages[node]) / tap.output_resistance_ohm;
    out.total_supply_current_a += current;
    out.ohmic_loss_w += current * current * tap.output_resistance_ohm;
    max_set_point = std::max(max_set_point, tap.set_point_v);
  }
  out.worst_drop_v = max_set_point - out.min_voltage_v;

  // Mesh ohmic loss: sum over edges of G (dV)^2.
  for (int iy = 0; iy < ny; ++iy) {
    for (int ix = 0; ix < nx; ++ix) {
      if (ix + 1 < nx) {
        const double dv =
            out.node_voltage_v(ix, iy) - out.node_voltage_v(ix + 1, iy);
        out.ohmic_loss_w += g_x * dv * dv;
      }
      if (iy + 1 < ny) {
        const double dv =
            out.node_voltage_v(ix, iy) - out.node_voltage_v(ix, iy + 1);
        out.ohmic_loss_w += g_y * dv * dv;
      }
    }
  }
  return out;
}

std::vector<VrmTap> make_vrm_grid(int count_x, int count_y, double die_width_m,
                                  double die_height_m, double set_point_v,
                                  double output_resistance_ohm) {
  ensure(count_x > 0 && count_y > 0, "VRM grid counts must be positive");
  std::vector<VrmTap> taps;
  taps.reserve(static_cast<std::size_t>(count_x) * static_cast<std::size_t>(count_y));
  for (int iy = 0; iy < count_y; ++iy) {
    for (int ix = 0; ix < count_x; ++ix) {
      VrmTap tap;
      tap.x_m = die_width_m * (ix + 0.5) / count_x;
      tap.y_m = die_height_m * (iy + 0.5) / count_y;
      tap.set_point_v = set_point_v;
      tap.output_resistance_ohm = output_resistance_ohm;
      taps.push_back(tap);
    }
  }
  return taps;
}

std::vector<VrmTap> make_edge_taps(int count_per_edge, double die_width_m, double die_height_m,
                                   double set_point_v, double output_resistance_ohm) {
  ensure(count_per_edge > 0, "edge tap count must be positive");
  std::vector<VrmTap> taps;
  taps.reserve(static_cast<std::size_t>(count_per_edge) * 2);
  // Left and right edges (the package ring feeds from the die periphery).
  for (int i = 0; i < count_per_edge; ++i) {
    const double y = die_height_m * (i + 0.5) / count_per_edge;
    taps.push_back({1e-6, y, set_point_v, output_resistance_ohm});
    taps.push_back({die_width_m - 1e-6, y, set_point_v, output_resistance_ohm});
  }
  return taps;
}

}  // namespace brightsi::pdn
