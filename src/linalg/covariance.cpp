#include "linalg/covariance.hpp"

#include "linalg/ops.hpp"

namespace senkf::linalg {

Vector ensemble_mean(const Matrix& ensemble) {
  SENKF_REQUIRE(ensemble.cols() > 0, "ensemble_mean: empty ensemble");
  const double inv = 1.0 / static_cast<double>(ensemble.cols());
  Vector mean(ensemble.rows(), 0.0);
  for (Index i = 0; i < ensemble.rows(); ++i) {
    const auto row = ensemble.row(i);
    double sum = 0.0;
    for (const double v : row) sum += v;
    mean[i] = sum * inv;
  }
  return mean;
}

Matrix ensemble_anomalies(const Matrix& ensemble) {
  const Vector mean = ensemble_mean(ensemble);
  Matrix anomalies = ensemble;
  for (Index i = 0; i < ensemble.rows(); ++i) {
    auto row = anomalies.row(i);
    for (double& v : row) v -= mean[i];
  }
  return anomalies;
}

Matrix sample_covariance(const Matrix& ensemble) {
  SENKF_REQUIRE(ensemble.cols() >= 2,
                "sample_covariance: need at least 2 members");
  Matrix u = ensemble_anomalies(ensemble);
  Matrix b = multiply_a_bt(u, u);
  scale(b, 1.0 / static_cast<double>(ensemble.cols() - 1));
  return b;
}

}  // namespace senkf::linalg
