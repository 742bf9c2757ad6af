#include "linalg/eigen.hpp"

#include <gtest/gtest.h>


#include "linalg/ops.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

Matrix random_symmetric(Index n, Rng& rng) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      m(i, j) = rng.normal();
      m(j, i) = m(i, j);
    }
  }
  return m;
}

TEST(SymmetricEigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a{{2.0, 1.0}, {1.0, 2.0}};
  const auto eig = symmetric_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(SymmetricEigen, DiagonalMatrixIsItsOwnDecomposition) {
  const Matrix d = Matrix::diagonal(Vector{3.0, -1.0, 2.0});
  const auto eig = symmetric_eigen(d);
  EXPECT_NEAR(eig.values[0], -1.0, 1e-13);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-13);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-13);
}

TEST(SymmetricEigen, ReconstructsMatrix) {
  Rng rng(1);
  for (const Index n : {2u, 5u, 12u, 30u}) {
    const Matrix a = random_symmetric(n, rng);
    const auto eig = symmetric_eigen(a);
    // A = V Λ Vᵀ
    Matrix v_lambda = eig.vectors;
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) v_lambda(i, j) *= eig.values[j];
    }
    const Matrix rebuilt = multiply_a_bt(v_lambda, eig.vectors);
    EXPECT_LT(max_abs_diff(rebuilt, a), 1e-10) << "n=" << n;
  }
}

TEST(SymmetricEigen, VectorsAreOrthonormal) {
  Rng rng(2);
  const Matrix a = random_symmetric(10, rng);
  const auto eig = symmetric_eigen(a);
  const Matrix gram = multiply_at_b(eig.vectors, eig.vectors);
  EXPECT_LT(max_abs_diff(gram, Matrix::identity(10)), 1e-11);
}

TEST(SymmetricEigen, EigenvaluesAscending) {
  Rng rng(3);
  const auto eig = symmetric_eigen(random_symmetric(15, rng));
  for (Index i = 1; i < 15; ++i) {
    EXPECT_LE(eig.values[i - 1], eig.values[i]);
  }
}

TEST(SymmetricEigen, TraceAndEigenvalueSumAgree) {
  Rng rng(4);
  const Matrix a = random_symmetric(8, rng);
  const auto eig = symmetric_eigen(a);
  double trace = 0.0, sum = 0.0;
  for (Index i = 0; i < 8; ++i) {
    trace += a(i, i);
    sum += eig.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-10);
}

TEST(SymmetricEigen, RejectsNonSymmetric) {
  const Matrix a{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(symmetric_eigen(a), InvalidArgument);
  EXPECT_THROW(symmetric_eigen(Matrix(2, 3)), InvalidArgument);
}

}  // namespace
}  // namespace senkf::linalg
