#include "linalg/banded.hpp"

#include <string>

#include "linalg/kernels/dispatch.hpp"

namespace senkf::linalg {

BandMatrix::BandMatrix(std::span<double> storage, Index n, Index bandwidth)
    : data_(storage.data()), n_(n), band_(bandwidth) {
  SENKF_REQUIRE(n == 0 || bandwidth < n,
                "BandMatrix: bandwidth must be below the dimension");
  SENKF_REQUIRE(storage.size() >= storage_size(n, bandwidth),
                "BandMatrix: storage too small");
}

void band_cholesky_factor(BandMatrix& a) {
  const std::ptrdiff_t pivot =
      kernels::active_kernels().pbtrf(a.dim(), a.bandwidth(), a.data());
  if (pivot >= 0) {
    throw NumericError(
        "banded Cholesky: matrix is not positive definite (pivot " +
        std::to_string(pivot) + ")");
  }
}

void band_cholesky_solve_in_place(const BandMatrix& l, Matrix& x) {
  SENKF_REQUIRE(x.rows() == l.dim(),
                "band_cholesky_solve_in_place: row mismatch");
  const auto& table = kernels::active_kernels();
  const Index n = l.dim();
  const Index b = l.bandwidth();
  const Index cols = x.cols();
  // Forward: row i of Y = (B_i − Σ_{k<i} L(i,k)·Y_k) / L(i,i).
  for (Index i = 0; i < n; ++i) {
    double* xi = x.row(i).data();
    for (Index k = i > b ? i - b : 0; k < i; ++k) {
      table.axpy(cols, -l(i, k), x.row(k).data(), xi);
    }
    table.scale(cols, 1.0 / l(i, i), xi);
  }
  // Back, column-oriented: once X_i is final, remove L(i,j)·X_i from every
  // earlier row j in its band.
  for (Index i = n; i-- > 0;) {
    double* xi = x.row(i).data();
    table.scale(cols, 1.0 / l(i, i), xi);
    for (Index j = i > b ? i - b : 0; j < i; ++j) {
      table.axpy(cols, -l(i, j), xi, x.row(j).data());
    }
  }
}

void band_cholesky_solve_in_place(const BandMatrix& l, Vector& x) {
  SENKF_REQUIRE(x.size() == l.dim(),
                "band_cholesky_solve_in_place: length mismatch");
  const auto& table = kernels::active_kernels();
  const Index n = l.dim();
  const Index b = l.bandwidth();
  double* y = x.data();
  // Forward: y_i = (b_i − L(i, first..i)·y[first..i)) / L(i,i), the row
  // segment contiguous in band storage.
  for (Index i = 0; i < n; ++i) {
    const Index first = i > b ? i - b : 0;
    y[i] = (y[i] - table.dot(i - first, &l(i, first), y + first)) / l(i, i);
  }
  // Back, column-oriented: x_i is final once divided by L(i,i); remove
  // x_i·L(i, first..i) from the earlier entries of its band.
  for (Index i = n; i-- > 0;) {
    const Index first = i > b ? i - b : 0;
    y[i] /= l(i, i);
    table.axpy(i - first, -y[i], &l(i, first), y + first);
  }
}

}  // namespace senkf::linalg
