// Ensemble-covariance utilities (paper eq. (4)).
//
//   x̄ᵇ  = ensemble mean,
//   U   = Xᵇ − x̄ᵇ ⊗ 1ᵀ   (anomalies),
//   B   = U Uᵀ / (N − 1)  (sample background-error covariance).
#pragma once

#include "linalg/matrix.hpp"

namespace senkf::linalg {

/// Row-wise mean of the ensemble matrix (n×N → length-n vector).
Vector ensemble_mean(const Matrix& ensemble);

/// U = ensemble − mean ⊗ 1ᵀ.
Matrix ensemble_anomalies(const Matrix& ensemble);

/// B = U Uᵀ / (N − 1); forms the dense n×n matrix — test/small use only.
Matrix sample_covariance(const Matrix& ensemble);

}  // namespace senkf::linalg
