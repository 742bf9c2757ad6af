#include "linalg/banded.hpp"

#include <cmath>
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
  // Left-looking, row by row: L(i, j) needs the dot of rows i and j of L
  // over their shared columns [max(0, i−b), j), and both row segments
  // are contiguous in lower-band storage.
  const auto& table = kernels::active_kernels();
  const Index n = a.dim();
  const Index b = a.bandwidth();
  for (Index i = 0; i < n; ++i) {
    const Index first = i > b ? i - b : 0;
    const double* row_i = &a(i, first);
    for (Index j = first; j < i; ++j) {
      const double sum = table.dot(j - first, row_i, &a(j, first));
      a(i, j) = (a(i, j) - sum) / a(j, j);
    }
    const double pivot = a(i, i) - table.dot(i - first, row_i, row_i);
    if (!(pivot > 0.0)) {
      throw NumericError(
          "banded Cholesky: matrix is not positive definite (pivot " +
          std::to_string(i) + ")");
    }
    a(i, i) = std::sqrt(pivot);
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

}  // namespace senkf::linalg
