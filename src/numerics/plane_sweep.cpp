#include "numerics/plane_sweep.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "numerics/contracts.h"

namespace brightsi::numerics {
namespace {

[[noreturn]] void throw_pattern_differs() {
  throw std::invalid_argument(
      "PlaneSweepPreconditioner::refactor: matrix pattern differs from the factored one");
}

}  // namespace

PlaneSweepPreconditioner::PlaneSweepPreconditioner(const CsrMatrix& a, int nx, int ny, int nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  ensure(nx >= 1 && ny >= 1 && nz >= 1, "PlaneSweepPreconditioner: grid dimensions must be >= 1");
  plane_cells_ = nx * nz;
  band_width_ = 2 * nz + 1;
  const std::size_t rows = static_cast<std::size_t>(plane_cells_) * static_cast<std::size_t>(ny);
  y_slots_.resize(2 * rows);
  plane_factor_.resize(static_cast<std::size_t>(ny));
  plane_.resize(static_cast<std::size_t>(plane_cells_));
  scan_pattern(a);
  refactor(a);
}

void PlaneSweepPreconditioner::scan_pattern(const CsrMatrix& a) {
  const std::size_t rows = y_slots_.size() / 2;
  if (a.cols() != a.rows() || static_cast<std::size_t>(a.rows()) != rows) {
    throw std::invalid_argument("PlaneSweepPreconditioner: matrix is " +
                                std::to_string(a.rows()) + "x" + std::to_string(a.cols()) +
                                ", the grid has " + std::to_string(rows) + " cells");
  }
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& columns = a.column_indices();
  const long long z_stride = static_cast<long long>(nx_) * ny_;
  std::size_t row = 0;
  for (int iz = 0; iz < nz_; ++iz) {
    for (int iy = 0; iy < ny_; ++iy) {
      for (int ix = 0; ix < nx_; ++ix, ++row) {
        int below = -1, above = -1;
        bool diagonal = false;
        for (int k = offsets[row]; k < offsets[row + 1]; ++k) {
          // The bounds guards make the three directions exclusive even
          // where offsets coincide (nx == 1 or ny == 1).
          const long long delta =
              static_cast<long long>(columns[static_cast<std::size_t>(k)]) -
              static_cast<long long>(row);
          const bool x_neighbor = (delta == -1 && ix > 0) || (delta == 1 && ix + 1 < nx_);
          const bool z_neighbor =
              (delta == -z_stride && iz > 0) || (delta == z_stride && iz + 1 < nz_);
          if (delta == 0) {
            diagonal = true;
          } else if (delta == -nx_ && iy > 0) {
            below = k;
          } else if (delta == nx_ && iy + 1 < ny_) {
            above = k;
          } else if (!x_neighbor && !z_neighbor) {
            throw std::invalid_argument(
                "PlaneSweepPreconditioner: entry (" + std::to_string(row) + ", " +
                std::to_string(columns[static_cast<std::size_t>(k)]) +
                ") is not on the 7-point stencil");
          }
        }
        if (!diagonal) {
          throw std::invalid_argument("PlaneSweepPreconditioner: row " + std::to_string(row) +
                                      " stores no diagonal entry");
        }
        y_slots_[2 * row] = below;
        y_slots_[2 * row + 1] = above;
      }
    }
  }
}

void PlaneSweepPreconditioner::check_y_slots(const CsrMatrix& a) const {
  const std::size_t rows = y_slots_.size() / 2;
  if (a.cols() != a.rows() || static_cast<std::size_t>(a.rows()) != rows) {
    throw_pattern_differs();
  }
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& columns = a.column_indices();
  const auto nx = static_cast<std::size_t>(nx_);
  for (std::size_t row = 0; row < rows; ++row) {
    for (const std::size_t side : {0U, 1U}) {
      const int slot = y_slots_[2 * row + side];
      if (slot >= 0 && (slot < offsets[row] || slot >= offsets[row + 1] ||
                        static_cast<std::size_t>(columns[static_cast<std::size_t>(slot)]) !=
                            (side == 0 ? row - nx : row + nx))) {
        throw_pattern_differs();
      }
    }
  }
}

bool PlaneSweepPreconditioner::plane_equals_previous(const CsrMatrix& a, int iy) const {
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& columns = a.column_indices();
  const std::vector<double>& values = a.values();
  auto in_plane = [&](std::size_t row, int k) {
    return k != y_slots_[2 * row] && k != y_slots_[2 * row + 1];
  };
  for (int iz = 0; iz < nz_; ++iz) {
    for (int ix = 0; ix < nx_; ++ix) {
      const std::size_t row = row_of(ix, iy, iz);
      const std::size_t previous = row - static_cast<std::size_t>(nx_);
      int k = offsets[row];
      int j = offsets[previous];
      const int k_end = offsets[row + 1];
      const int j_end = offsets[previous + 1];
      while (true) {
        while (k < k_end && !in_plane(row, k)) {
          ++k;
        }
        while (j < j_end && !in_plane(previous, j)) {
          ++j;
        }
        if (k == k_end || j == j_end) {
          if (k != k_end || j != j_end) {
            return false;
          }
          break;
        }
        const auto ku = static_cast<std::size_t>(k);
        const auto ju = static_cast<std::size_t>(j);
        if (columns[ku] - static_cast<int>(row) != columns[ju] - static_cast<int>(previous) ||
            std::bit_cast<std::uint64_t>(values[ku]) != std::bit_cast<std::uint64_t>(values[ju])) {
          return false;
        }
        ++k;
        ++j;
      }
    }
  }
  return true;
}

void PlaneSweepPreconditioner::factor_plane(const CsrMatrix& a, int iy,
                                            std::span<double> band) const {
  const int m = plane_cells_;
  const auto w = static_cast<std::size_t>(band_width_);
  const int nz = nz_;
  const std::vector<double>& values = a.values();
  const long long z_stride = static_cast<long long>(nx_) * ny_;
  // Row p of the plane block lives at band[p * w ...], entry (p, q) at
  // band[p * w + nz + q - p].
  auto row_of_band = [&](int p) {
    return band.data() + static_cast<std::size_t>(p) * w + static_cast<std::size_t>(nz);
  };
  const std::vector<int>& offsets = a.row_offsets();
  const std::vector<int>& columns = a.column_indices();
  std::fill(band.begin(), band.end(), 0.0);
  for (int iz = 0; iz < nz; ++iz) {
    for (int ix = 0; ix < nx_; ++ix) {
      const std::size_t row = row_of(ix, iy, iz);
      double* entries = row_of_band(ix * nz + iz);
      for (int k = offsets[row]; k < offsets[row + 1]; ++k) {
        if (k == y_slots_[2 * row] || k == y_slots_[2 * row + 1]) {
          continue;
        }
        const auto ku = static_cast<std::size_t>(k);
        const long long delta =
            static_cast<long long>(columns[ku]) - static_cast<long long>(row);
        int offset = 0;
        if (delta == z_stride && iz + 1 < nz) {
          offset = 1;
        } else if (delta == -z_stride && iz > 0) {
          offset = -1;
        } else if (delta == 1 && ix + 1 < nx_) {
          offset = nz;
        } else if (delta == -1 && ix > 0) {
          offset = -nz;
        } else if (delta != 0) {
          throw_pattern_differs();  // refactor() only: the constructor scanned the pattern
        }
        entries[offset] = values[ku];
      }
    }
  }
  // Row-by-row LU without pivoting (L unit lower, U upper, both within the
  // band); the diagonal keeps 1 / U(p, p).
  for (int p = 0; p < m; ++p) {
    double* row = row_of_band(p);
    for (int k = std::max(0, p - nz); k < p; ++k) {
      const double* pivot_row = row_of_band(k);
      const double factor = row[k - p] * pivot_row[0];
      row[k - p] = factor;
      const int last = std::min(m - 1, k + nz);
      for (int j = k + 1; j <= last; ++j) {
        row[j - p] -= factor * pivot_row[j - k];
      }
    }
    if (row[0] == 0.0) {
      throw std::runtime_error("PlaneSweepPreconditioner: zero pivot at plane y = " +
                               std::to_string(iy) + ", plane row " + std::to_string(p));
    }
    row[0] = 1.0 / row[0];
  }
}

void PlaneSweepPreconditioner::solve_plane(std::span<const double> band,
                                           std::span<double> b) const {
  const int m = plane_cells_;
  const auto w = static_cast<std::size_t>(band_width_);
  const int nz = nz_;
  // Each sum takes its farthest term first, so only the last product waits
  // on the value the previous row just produced.
  for (int p = 0; p < m; ++p) {
    const double* row = band.data() + static_cast<std::size_t>(p) * w +
                        static_cast<std::size_t>(nz);
    double sum = b[static_cast<std::size_t>(p)];
    for (int d = std::min(nz, p); d >= 1; --d) {
      sum -= row[-d] * b[static_cast<std::size_t>(p - d)];
    }
    b[static_cast<std::size_t>(p)] = sum;
  }
  for (int p = m - 1; p >= 0; --p) {
    const double* row = band.data() + static_cast<std::size_t>(p) * w +
                        static_cast<std::size_t>(nz);
    double sum = b[static_cast<std::size_t>(p)];
    for (int d = std::min(nz, m - 1 - p); d >= 1; --d) {
      sum -= row[d] * b[static_cast<std::size_t>(p + d)];
    }
    b[static_cast<std::size_t>(p)] = sum * row[0];
  }
}

std::span<const double> PlaneSweepPreconditioner::factor_of(int iy) const {
  const std::size_t size = factor_size();
  return {factors_.data() +
              static_cast<std::size_t>(plane_factor_[static_cast<std::size_t>(iy)]) * size,
          size};
}

void PlaneSweepPreconditioner::refactor(const CsrMatrix& a) {
  check_y_slots(a);
  int count = 0;
  for (int iy = 0; iy < ny_; ++iy) {
    const auto plane = static_cast<std::size_t>(iy);
    plane_factor_[plane] =
        (iy > 0 && plane_equals_previous(a, iy)) ? plane_factor_[plane - 1] : count++;
  }
  const std::size_t size = factor_size();
  if (factors_.size() < static_cast<std::size_t>(count) * size) {
    factors_.resize(static_cast<std::size_t>(count) * size);
  }
  for (int iy = 0; iy < ny_; ++iy) {
    const auto plane = static_cast<std::size_t>(iy);
    if (iy == 0 || plane_factor_[plane] != plane_factor_[plane - 1]) {
      factor_plane(a, iy,
                   {factors_.data() + static_cast<std::size_t>(plane_factor_[plane]) * size, size});
    }
  }
  factor_count_ = count;
  matrix_ = &a;
}

void PlaneSweepPreconditioner::apply(std::span<const double> r, std::span<double> z) const {
  ensure(r.size() == y_slots_.size() / 2 && z.size() == r.size(),
         "PlaneSweepPreconditioner::apply size mismatch");
  const std::vector<double>& values = matrix_->values();
  const auto nx = static_cast<std::size_t>(nx_);
  const std::span<double> plane(plane_);
  // Forward sweep, (D + L) y = r: plane y takes the coupling to the
  // finished plane y-1 to its right-hand side. y overwrites z.
  for (int iy = 0; iy < ny_; ++iy) {
    for (int iz = 0; iz < nz_; ++iz) {
      for (int ix = 0; ix < nx_; ++ix) {
        const std::size_t row = row_of(ix, iy, iz);
        const int slot = y_slots_[2 * row];
        double b = r[row];
        if (slot >= 0) {
          b -= values[static_cast<std::size_t>(slot)] * z[row - nx];
        }
        plane[static_cast<std::size_t>(ix * nz_ + iz)] = b;
      }
    }
    solve_plane(factor_of(iy), plane);
    for (int iz = 0; iz < nz_; ++iz) {
      for (int ix = 0; ix < nx_; ++ix) {
        z[row_of(ix, iy, iz)] = plane[static_cast<std::size_t>(ix * nz_ + iz)];
      }
    }
  }
  // Backward sweep, (D + U) z = D y: z_y = y_y - D_y^-1 U_y z_{y+1}; the
  // last plane keeps its forward value.
  for (int iy = ny_ - 2; iy >= 0; --iy) {
    for (int iz = 0; iz < nz_; ++iz) {
      for (int ix = 0; ix < nx_; ++ix) {
        const std::size_t row = row_of(ix, iy, iz);
        const int slot = y_slots_[2 * row + 1];
        plane[static_cast<std::size_t>(ix * nz_ + iz)] =
            slot >= 0 ? values[static_cast<std::size_t>(slot)] * z[row + nx] : 0.0;
      }
    }
    solve_plane(factor_of(iy), plane);
    for (int iz = 0; iz < nz_; ++iz) {
      for (int ix = 0; ix < nx_; ++ix) {
        z[row_of(ix, iy, iz)] -= plane[static_cast<std::size_t>(ix * nz_ + iz)];
      }
    }
  }
}

}  // namespace brightsi::numerics
