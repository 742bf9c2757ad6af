#include "linalg/covariance.hpp"

#include <gtest/gtest.h>

#include "linalg/ops.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

TEST(Covariance, MeanOfConstantEnsemble) {
  Matrix ensemble(3, 5, 2.5);
  const Vector mean = ensemble_mean(ensemble);
  for (Index i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(mean[i], 2.5);
}

TEST(Covariance, MeanKnownValues) {
  const Matrix ensemble{{1.0, 3.0}, {2.0, 6.0}};
  const Vector mean = ensemble_mean(ensemble);
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 4.0);
}

TEST(Covariance, AnomaliesHaveZeroRowSums) {
  Rng rng(1);
  Matrix ensemble(4, 7);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 7; ++j) ensemble(i, j) = rng.normal(3.0, 2.0);
  }
  const Matrix u = ensemble_anomalies(ensemble);
  for (Index i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (Index j = 0; j < 7; ++j) sum += u(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

TEST(Covariance, SampleCovarianceMatchesDefinition) {
  const Matrix ensemble{{1.0, -1.0}, {2.0, -2.0}};
  // anomalies equal ensemble; B = UUᵀ/(N−1) with N=2.
  const Matrix b = sample_covariance(ensemble);
  EXPECT_DOUBLE_EQ(b(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(b(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  EXPECT_TRUE(is_symmetric(b));
}

TEST(Covariance, SampleCovarianceOfIidApproachesIdentity) {
  Rng rng(2);
  const Index n = 5, members = 20000;
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < members; ++j) ensemble(i, j) = rng.normal();
  }
  const Matrix b = sample_covariance(ensemble);
  EXPECT_LT(max_abs_diff(b, Matrix::identity(n)), 0.05);
}

TEST(Covariance, RequiresTwoMembers) {
  EXPECT_THROW(sample_covariance(Matrix(3, 1)), InvalidArgument);
  EXPECT_THROW(ensemble_mean(Matrix(3, 0)), InvalidArgument);
}

}  // namespace
}  // namespace senkf::linalg
