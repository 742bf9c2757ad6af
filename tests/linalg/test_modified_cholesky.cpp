#include "linalg/modified_cholesky.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "dense_factor.hpp"
#include "linalg/banded.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

using testing::banded_predecessors;
using testing::dense_inverse_covariance;
using testing::dense_l;
using testing::estimate_inverse_covariance;

std::vector<Index> identity_map(Index n) {
  std::vector<Index> map(n);
  std::iota(map.begin(), map.end(), Index{0});
  return map;
}

// The band Cholesky at full bandwidth on dense symmetric `a`: throws
// NumericError unless `a` is SPD.
void cholesky_full_band(const Matrix& a) {
  const Index n = a.rows();
  std::vector<double> storage(BandMatrix::storage_size(n, n - 1), 0.0);
  BandMatrix band(storage, n, n - 1);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) band(i, j) = a(i, j);
  }
  band_cholesky_factor(band);
}

// Ensemble whose rows follow an AR(1)-like chain so that banded
// predecessors are the statistically correct neighbourhood.
Matrix ar1_ensemble(Index n, Index members, double phi, Rng& rng) {
  Matrix ensemble(n, members);
  for (Index e = 0; e < members; ++e) {
    double prev = rng.normal();
    ensemble(0, e) = prev;
    for (Index i = 1; i < n; ++i) {
      prev = phi * prev + std::sqrt(1.0 - phi * phi) * rng.normal();
      ensemble(i, e) = prev;
    }
  }
  return ensemble;
}

TEST(ModifiedCholesky, FullPredecessorsMatchExactSampleInverse) {
  // With all predecessors, no ridge and N > n the estimate equals the
  // inverse of the sample covariance (classical Cholesky regression fact).
  Rng rng(1);
  const Index n = 6, members = 200;
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index e = 0; e < members; ++e) ensemble(i, e) = rng.normal();
  }
  const Matrix u = ensemble_anomalies(ensemble);
  const auto mc = estimate_inverse_covariance(u, banded_predecessors(n), 0.0);
  const Matrix b = sample_covariance(ensemble);
  EXPECT_LT(max_abs_diff(dense_inverse_covariance(mc), inverse(b)), 1e-8);
}

TEST(ModifiedCholesky, LIsUnitLowerTriangular) {
  Rng rng(2);
  const Matrix ensemble = ar1_ensemble(10, 30, 0.7, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(3));
  const Matrix l = dense_l(mc.l);
  for (Index i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(l(i, i), 1.0);
    for (Index j = i + 1; j < 10; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
}

TEST(ModifiedCholesky, BandedSparsityPattern) {
  Rng rng(3);
  const Index band = 2;
  const Matrix ensemble = ar1_ensemble(12, 25, 0.6, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(band));
  const Matrix l = dense_l(mc.l);
  for (Index i = 0; i < 12; ++i) {
    for (Index j = 0; j < i; ++j) {
      if (i - j > band) {
        EXPECT_DOUBLE_EQ(l(i, j), 0.0) << "i=" << i << " j=" << j;
      }
    }
  }
  // Stored compactly: exactly the band's entries, and no wider.
  EXPECT_EQ(mc.l.nonzeros(), 1u + (12u - band) * band);
  EXPECT_EQ(mc.l.bandwidth(identity_map(12)), band);
}

TEST(ModifiedCholesky, InverseCovarianceIsSpd) {
  Rng rng(4);
  const Matrix ensemble = ar1_ensemble(15, 10, 0.8, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(4), 1e-6);
  const Matrix binv = dense_inverse_covariance(mc);
  EXPECT_TRUE(is_symmetric(binv, 1e-10));
  EXPECT_NO_THROW(cholesky_full_band(binv));  // SPD iff Cholesky succeeds
}

TEST(ModifiedCholesky, WellDefinedWhenNeighbourhoodExceedsEnsemble) {
  // The method's raison d'être: n ≫ N must still give an SPD estimate.
  Rng rng(5);
  const Matrix ensemble = ar1_ensemble(40, 8, 0.9, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(20), 1e-4);
  EXPECT_NO_THROW(cholesky_full_band(dense_inverse_covariance(mc)));
}

TEST(ModifiedCholesky, BandAssemblyMatchesDenseFormula) {
  // add_inverse_covariance accumulates Σ d_i⁻¹ ℓ_i ℓ_iᵀ on the band; it
  // must equal the dense Lᵀ D⁻¹ L on the band and leave nothing outside
  // it, for a band exactly as wide as L's and for a wider one.
  Rng rng(6);
  const Index n = 14;
  const Matrix ensemble = ar1_ensemble(n, 20, 0.5, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(3));
  const Matrix dense = dense_inverse_covariance(mc);
  const std::vector<Index> identity = identity_map(n);
  for (const Index band : {Index{3}, Index{7}}) {
    std::vector<double> storage(BandMatrix::storage_size(n, band), 0.0);
    BandMatrix a(storage, n, band);
    add_inverse_covariance(mc, identity, a);
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j <= i; ++j) {
        const double want = dense(i, j);
        if (i - j > band) {
          EXPECT_EQ(want, 0.0);
          continue;
        }
        EXPECT_NEAR(a(i, j), want, 1e-12 * (1.0 + std::abs(want)))
            << "i=" << i << " j=" << j;
      }
    }
  }
  // A band narrower than L's is refused rather than silently truncated.
  std::vector<double> narrow(BandMatrix::storage_size(n, 2), 0.0);
  BandMatrix too_narrow(narrow, n, 2);
  EXPECT_THROW(add_inverse_covariance(mc, identity, too_narrow),
               InvalidArgument);
}

TEST(ModifiedCholesky, BandAssemblyUnderAMapIsTheExactRenumbering) {
  // Renumbering the band moves each sum, never its terms: entry (i, j)
  // in L's order lands bitwise at (map[i], map[j]).  The width the map
  // needs is measured; the identity's would be too narrow.
  Rng rng(7);
  const Index n = 14;
  const Matrix ensemble = ar1_ensemble(n, 20, 0.5, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(3));
  const std::vector<Index> identity = identity_map(n);
  std::vector<double> base_storage(BandMatrix::storage_size(n, 3), 0.0);
  BandMatrix base(base_storage, n, 3);
  add_inverse_covariance(mc, identity, base);

  std::vector<Index> map = identity;  // odd points first, then even
  std::stable_partition(map.begin(), map.end(),
                        [](Index i) { return i % 2 == 1; });
  std::vector<Index> band_index(n);
  for (Index r = 0; r < n; ++r) band_index[map[r]] = r;
  const Index width = mc.l.bandwidth(band_index);
  ASSERT_GT(width, mc.l.bandwidth(identity));
  std::vector<double> storage(BandMatrix::storage_size(n, width), 0.0);
  BandMatrix permuted(storage, n, width);
  add_inverse_covariance(mc, band_index, permuted);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j <= i; ++j) {
      const double want = i - j <= 3 ? base(i, j) : 0.0;
      const Index hi = std::max(band_index[i], band_index[j]);
      const Index lo = std::min(band_index[i], band_index[j]);
      if (hi - lo > width) {
        EXPECT_EQ(want, 0.0);
        continue;
      }
      EXPECT_EQ(permuted.symmetric(band_index[i], band_index[j]), want)
          << "i=" << i << " j=" << j;
    }
  }
  std::vector<double> narrow(BandMatrix::storage_size(n, width - 1), 0.0);
  BandMatrix too_narrow(narrow, n, width - 1);
  EXPECT_THROW(add_inverse_covariance(mc, band_index, too_narrow),
               InvalidArgument);
}

TEST(ModifiedCholesky, CapturesAr1Structure) {
  // For an AR(1) process the true inverse covariance is tridiagonal; a
  // bandwidth-1 estimate from a large ensemble should recover the
  // off-diagonal sign (−phi/(1−phi²) < 0).
  Rng rng(7);
  const double phi = 0.7;
  const Matrix ensemble = ar1_ensemble(8, 4000, phi, rng);
  const auto mc = estimate_inverse_covariance(ensemble_anomalies(ensemble),
                                              banded_predecessors(1), 0.0);
  const Matrix binv = dense_inverse_covariance(mc);
  for (Index i = 1; i < 8; ++i) {
    EXPECT_LT(binv(i, i - 1), 0.0);
    EXPECT_NEAR(binv(i, i - 1), -phi / (1.0 - phi * phi), 0.15);
  }
}

TEST(ModifiedCholesky, InvalidInputsThrow) {
  EXPECT_THROW(
      estimate_inverse_covariance(Matrix(3, 1), banded_predecessors(1)),
      InvalidArgument);
  EXPECT_THROW(
      estimate_inverse_covariance(Matrix(3, 5), banded_predecessors(1), -1.0),
      InvalidArgument);
  // Predecessor oracle returning j >= i must be rejected.
  const auto bad = [](Index) { return std::vector<Index>{5}; };
  Matrix u(3, 5, 1.0);
  EXPECT_THROW(estimate_inverse_covariance(u, bad), InvalidArgument);
}

TEST(ModifiedCholesky, SingularRegressionThrows) {
  // All-zero anomalies and no ridge: row 1 regresses on row 0, and its
  // normal equations are the 1×1 zero matrix, which is not positive
  // definite — the estimator must say so rather than divide by zero.
  const Matrix u(4, 5, 0.0);
  EXPECT_THROW(estimate_inverse_covariance(u, banded_predecessors(2), 0.0),
               NumericError);
  // The ridge makes the same rows well-posed.
  EXPECT_NO_THROW(estimate_inverse_covariance(u, banded_predecessors(2), 1e-6));
}
}  // namespace
}  // namespace senkf::linalg
