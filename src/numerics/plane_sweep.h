// Flow-ordered plane-sweep preconditioner for the 7-point operators the
// thermal model assembles: a symmetric block Gauss–Seidel over the y-planes,
//
//   M = (D + L) D^-1 (D + U),
//
// where D holds the x–z planes (one block per y index), L the coupling of
// each plane to plane y-1 and U its coupling to plane y+1. In the thermal
// model y runs along the coolant flow: first-order upwind advection enters
// L only, and conduction along y is weak (a cell is ~1 mm long in y but
// tens of µm thick in z), so the sweep follows the heat downstream and a
// BiCGSTAB solve needs a few iterations where ILU(0) needs tens. When
// U = 0 (pure upwind y), M equals A and one apply is an exact solve.
//
// Each plane block is factored exactly by a banded LU without pivoting. A
// plane is ordered z-fastest (plane row p = ix * nz + iz), which puts the
// z-neighbors at p ± 1 and the x-neighbors at p ± nz: half-bandwidth nz.
// Factors are stored row-major in band form, so both triangular solves run
// as short contiguous dot products.
//
// The matrix must be square over an nx × ny × nz grid in the thermal cell
// order (iz * ny + iy) * nx + ix, and every stored entry must lie on the
// 7-point stencil (the diagonal is required); anything else is rejected
// with std::invalid_argument, and `refactor` requires the same pattern.
// `refactor` compares each plane's in-plane coefficients bitwise with the
// previous plane's and reuses that factor when they are equal, so planes
// that repeat along y share one factorization; nothing about the model is
// assumed. The y-couplings are
// not copied: `apply` reads them from the matrix through two stored slot
// indices per row, so the matrix passed to the constructor or the last
// `refactor` must outlive the preconditioner and keep its coefficients
// until the next `refactor`.
//
// Allocation happens at construction only, unless a later refactor meets
// more distinct planes than any factorization before it. apply() uses a
// per-instance plane buffer, so a preconditioner is single-threaded state:
// one per solve context, never shared across threads.
#ifndef BRIGHTSI_NUMERICS_PLANE_SWEEP_H
#define BRIGHTSI_NUMERICS_PLANE_SWEEP_H

#include <cstddef>
#include <span>
#include <vector>

#include "numerics/linear_solvers.h"
#include "numerics/sparse_matrix.h"

namespace brightsi::numerics {

class PlaneSweepPreconditioner final : public Preconditioner {
 public:
  /// Checks the pattern of `a` (square, nx * ny * nz rows, 7-point stencil
  /// with a stored diagonal) and factors its distinct planes. Throws
  /// std::invalid_argument on any other pattern or shape and
  /// std::runtime_error on a zero pivot.
  PlaneSweepPreconditioner(const CsrMatrix& a, int nx, int ny, int nz);

  /// z = M^-1 r: a forward sweep with (D + L), then a backward sweep with
  /// (D + U), each plane solved exactly.
  void apply(std::span<const double> r, std::span<double> z) const override;

  /// Refactors for new coefficients of `a`, which must have the sparsity
  /// pattern the preconditioner was built from (checked;
  /// std::invalid_argument otherwise), and rebinds apply() to `a`. Throws
  /// std::runtime_error on a zero pivot.
  void refactor(const CsrMatrix& a);

  /// Number of plane factorizations the last (re)factorization kept.
  [[nodiscard]] int distinct_planes() const { return factor_count_; }

 private:
  /// Checks the shape of `a` and that every entry lies on the stencil,
  /// and stores each row's y-coupling slots.
  void scan_pattern(const CsrMatrix& a);
  /// refactor()'s pattern check, without a stored copy of the pattern:
  /// the shape must match and every stored y-slot must still hold its
  /// y-neighbor. An entry anywhere else is then in-plane; factor_plane()
  /// validates the planes it loads, and plane_equals_previous() only
  /// matches a plane whose column offsets equal those of a plane that
  /// was validated, so every plane is checked.
  void check_y_slots(const CsrMatrix& a) const;
  /// True when plane `iy`'s in-plane entries equal plane iy-1's bitwise.
  [[nodiscard]] bool plane_equals_previous(const CsrMatrix& a, int iy) const;
  /// Scatters plane `iy`'s in-plane coefficients into `band` and factors it.
  void factor_plane(const CsrMatrix& a, int iy, std::span<double> band) const;
  /// Solves (plane block) x = b in place with the factor `band`.
  void solve_plane(std::span<const double> band, std::span<double> b) const;

  [[nodiscard]] std::size_t row_of(int ix, int iy, int iz) const {
    return (static_cast<std::size_t>(iz) * static_cast<std::size_t>(ny_) +
            static_cast<std::size_t>(iy)) *
               static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(ix);
  }
  [[nodiscard]] std::size_t factor_size() const {
    return static_cast<std::size_t>(plane_cells_) * static_cast<std::size_t>(band_width_);
  }
  [[nodiscard]] std::span<const double> factor_of(int iy) const;

  int nx_ = 0, ny_ = 0, nz_ = 0;
  int plane_cells_ = 0;  // nx * nz
  int band_width_ = 0;   // 2 * nz + 1 stored entries per band column
  const CsrMatrix* matrix_ = nullptr;
  std::vector<int> y_slots_;       // per row: CSR slot of the y-1 and y+1 entries, or -1
  std::vector<int> plane_factor_;  // per plane: index of the factor it uses
  std::vector<double> factors_;    // distinct plane factors, row-major band
  int factor_count_ = 0;
  mutable std::vector<double> plane_;  // one plane in p order, apply()'s work buffer
};

}  // namespace brightsi::numerics

#endif  // BRIGHTSI_NUMERICS_PLANE_SWEEP_H
