#include "linalg/banded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

// Random symmetric matrix with half-bandwidth `band`, made SPD by strict
// diagonal dominance.
Matrix random_banded_spd(Index n, Index band, Rng& rng) {
  Matrix a(n, n, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i > band ? i - band : 0; j < i; ++j) {
      a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  for (Index i = 0; i < n; ++i) {
    double off = 0.0;
    for (Index j = 0; j < n; ++j) off += j == i ? 0.0 : std::abs(a(i, j));
    a(i, i) = off + rng.uniform(0.1, 1.0);
  }
  return a;
}

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Copies the lower band of dense `a` into band storage.
BandMatrix to_band(const Matrix& a, Index band, std::vector<double>& storage) {
  storage.assign(BandMatrix::storage_size(a.rows(), band), 0.0);
  BandMatrix out(storage, a.rows(), band);
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i > band ? i - band : 0; j <= i; ++j) out(i, j) = a(i, j);
  }
  return out;
}

// The dense lower triangle of a factor held in band storage.
Matrix dense_lower(const BandMatrix& l) {
  Matrix out(l.dim(), l.dim(), 0.0);
  const Index b = l.bandwidth();
  for (Index i = 0; i < l.dim(); ++i) {
    for (Index j = i > b ? i - b : 0; j <= i; ++j) out(i, j) = l(i, j);
  }
  return out;
}

double max_relative_diff(const Matrix& got, const Matrix& want) {
  double scale = 0.0;
  for (Index i = 0; i < want.rows(); ++i) {
    for (Index j = 0; j < want.cols(); ++j) {
      scale = std::max(scale, std::abs(want(i, j)));
    }
  }
  return max_abs_diff(got, want) / scale;
}

double max_relative_diff(const Vector& got, const Vector& want) {
  double scale = 0.0;
  for (const double v : want) scale = std::max(scale, std::abs(v));
  return max_abs_diff(got, want) / scale;
}

struct BandCase {
  Index n;
  Index band;
  Index rhs;
};

class BandedCholesky : public ::testing::TestWithParam<BandCase> {};

// The oracle is LU with partial pivoting (linalg/solve): a different
// algorithm from the one under test, so agreement is not shared code.
TEST_P(BandedCholesky, FactorAndSolveMatchLuOracle) {
  const BandCase c = GetParam();
  Rng rng(100 + c.n * 7 + c.band * 3 + c.rhs);
  const Matrix a = random_banded_spd(c.n, c.band, rng);
  const Matrix b = random_matrix(c.n, c.rhs, rng);

  std::vector<double> storage;
  BandMatrix band = to_band(a, c.band, storage);
  band_cholesky_factor(band);
  // L·Lᵀ reproduces A, band and zeros outside it.
  const Matrix l = dense_lower(band);
  EXPECT_LT(max_relative_diff(multiply_a_bt(l, l), a), 1e-13);

  const LuFactor lu(a);
  Matrix x = b;
  band_cholesky_solve_in_place(band, x);
  EXPECT_LT(max_relative_diff(x, lu.solve(b)), 1e-12);
  // And it really solves the system.
  EXPECT_LT(max_relative_diff(multiply(a, x), b), 1e-12);

  // Single right-hand side: each column of B through the vector solve
  // matches the same column of the matrix solve and the oracle.
  for (Index col = 0; col < c.rhs; ++col) {
    Vector xv = b.column(col);
    band_cholesky_solve_in_place(band, xv);
    EXPECT_LT(max_relative_diff(xv, x.column(col)), 1e-13) << "col " << col;
    EXPECT_LT(max_relative_diff(xv, lu.solve(b.column(col))), 1e-12)
        << "col " << col;
  }
}

TEST(BandedCholeskyKnown, FactorsATwoByTwoExactly) {
  // A = L Lᵀ for L = [[2,0],[1,3]] → A = [[4,2],[2,10]], at full
  // bandwidth, and A x = b for b = A·[1, −1] = [2, −8].
  std::vector<double> storage(BandMatrix::storage_size(2, 1), 0.0);
  BandMatrix a(storage, 2, 1);
  a(0, 0) = 4.0;
  a(1, 0) = 2.0;
  a(1, 1) = 10.0;
  band_cholesky_factor(a);
  EXPECT_EQ(a(0, 0), 2.0);
  EXPECT_EQ(a(1, 0), 1.0);
  EXPECT_EQ(a(1, 1), 3.0);
  Vector x{2.0, -8.0};
  band_cholesky_solve_in_place(a, x);
  EXPECT_NEAR(x[0], 1.0, 1e-15);
  EXPECT_NEAR(x[1], -1.0, 1e-15);
}

INSTANTIATE_TEST_SUITE_P(
    Bands, BandedCholesky,
    ::testing::Values(BandCase{12, 0, 1}, BandCase{12, 0, 5},
                      BandCase{40, 1, 1}, BandCase{40, 1, 7},
                      BandCase{60, 4, 1}, BandCase{60, 4, 9},
                      BandCase{17, 16, 1}, BandCase{17, 16, 6},
                      BandCase{1, 0, 3}));

TEST(BandedCholeskyErrors, NonSpdThrowsNamingThePivot) {
  // Symmetric, tridiagonal, indefinite: the third pivot goes negative.
  Matrix a(5, 5, 0.0);
  for (Index i = 0; i < 5; ++i) a(i, i) = 1.0;
  a(2, 2) = -1.0;
  a(1, 0) = a(0, 1) = 0.5;
  std::vector<double> storage;
  BandMatrix band = to_band(a, 1, storage);
  try {
    band_cholesky_factor(band);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("pivot 2"), std::string::npos)
        << e.what();
  }
  // A zero pivot is rejected the same way.
  Matrix z(3, 3, 0.0);
  z(0, 0) = 1.0;
  z(2, 2) = 1.0;
  std::vector<double> zero_storage;
  BandMatrix zero = to_band(z, 2, zero_storage);
  EXPECT_THROW(band_cholesky_factor(zero), NumericError);
}

TEST(BandedCholeskyErrors, RejectsBadShapes) {
  std::vector<double> storage(BandMatrix::storage_size(4, 4), 0.0);
  EXPECT_THROW(BandMatrix(storage, 4, 4), InvalidArgument);  // b >= n
  EXPECT_THROW(BandMatrix(std::span(storage).first(3), 4, 1),
               InvalidArgument);  // too little storage
  BandMatrix ok(storage, 4, 1);
  for (Index i = 0; i < 4; ++i) ok(i, i) = 1.0;
  Matrix wrong(3, 2);
  EXPECT_THROW(band_cholesky_solve_in_place(ok, wrong), InvalidArgument);
  Vector short_rhs(3);
  EXPECT_THROW(band_cholesky_solve_in_place(ok, short_rhs), InvalidArgument);
}

}  // namespace
}  // namespace senkf::linalg
