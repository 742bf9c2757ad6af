#include "linalg/solve.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "linalg/banded.hpp"
#include "linalg/ops.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

Matrix random_square(Index n, Rng& rng) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) m(i, j) = rng.normal();
  }
  return m;
}

TEST(Lu, SolvesKnownSystem) {
  // 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = LuFactor(a).solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, SolveRandomSystems) {
  Rng rng(1);
  for (const Index n : {1u, 3u, 10u, 25u}) {
    const Matrix a = random_square(n, rng);
    Vector b(n);
    for (auto& v : b) v = rng.normal();
    const Vector x = LuFactor(a).solve(b);
    EXPECT_LT(max_abs_diff(multiply(a, x), b), 1e-8) << "n=" << n;
  }
}

TEST(Lu, NeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = LuFactor(a).solve(Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, SingularThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuFactor{a}, NumericError);
}

TEST(Lu, NonSquareThrows) { EXPECT_THROW(LuFactor{Matrix(2, 3)}, InvalidArgument); }

TEST(Lu, InverseRoundTrip) {
  Rng rng(2);
  const Matrix a = random_square(9, rng);
  EXPECT_LT(max_abs_diff(multiply(a, inverse(a)), Matrix::identity(9)), 1e-8);
}

TEST(Lu, MatrixSolve) {
  Rng rng(3);
  const Matrix a = random_square(5, rng);
  Matrix b(5, 4);
  for (Index i = 0; i < 5; ++i) {
    for (Index j = 0; j < 4; ++j) b(i, j) = rng.normal();
  }
  EXPECT_LT(max_abs_diff(multiply(a, LuFactor(a).solve(b)), b), 1e-9);
}

TEST(Lu, AgreesWithCholeskyOnSpd) {
  Rng rng(4);
  Matrix m = random_square(10, rng);
  Matrix a = multiply_a_bt(m, m);
  for (Index i = 0; i < 10; ++i) a(i, i) += 10.0;
  Vector b(10);
  for (auto& v : b) v = rng.normal();
  // The band Cholesky at full bandwidth is the library's SPD solver.
  std::vector<double> storage(BandMatrix::storage_size(10, 9), 0.0);
  BandMatrix band(storage, 10, 9);
  for (Index i = 0; i < 10; ++i) {
    for (Index j = 0; j <= i; ++j) band(i, j) = a(i, j);
  }
  band_cholesky_factor(band);
  Vector x = b;
  band_cholesky_solve_in_place(band, x);
  EXPECT_LT(max_abs_diff(LuFactor(a).solve(b), x), 1e-8);
}

}  // namespace
}  // namespace senkf::linalg
