#include "enkf/verification.hpp"

#include <algorithm>

#include "linalg/banded.hpp"
#include "linalg/covariance.hpp"
#include "linalg/ops.hpp"

namespace senkf::enkf {

InnovationStats innovation_statistics(
    const std::vector<grid::Field>& ensemble,
    const obs::ObservationSet& observations) {
  SENKF_REQUIRE(ensemble.size() >= 2,
                "innovation_statistics: need >= 2 members");
  const Index m = observations.size();
  const Index n_members = ensemble.size();
  SENKF_REQUIRE(m > 0, "innovation_statistics: need observations");

  // Ensemble predictions in observation space: columns are members.
  linalg::Matrix predictions(m, n_members);
  for (Index k = 0; k < n_members; ++k) {
    for (Index r = 0; r < m; ++r) {
      predictions(r, k) = observations.components()[r].apply(ensemble[k]);
    }
  }

  // Innovation d = y − H x̄ and S = HBHᵀ + R.
  const linalg::Vector mean = linalg::ensemble_mean(predictions);
  linalg::Vector innovation(m);
  double bias = 0.0;
  for (Index r = 0; r < m; ++r) {
    innovation[r] = observations.values()[r] - mean[r];
    bias += innovation[r];
  }
  linalg::Matrix s = linalg::sample_covariance(predictions);
  for (Index r = 0; r < m; ++r) {
    const double std_dev = observations.components()[r].error_std;
    s(r, r) += std_dev * std_dev;
  }

  // χ² = dᵀS⁻¹d: S is dense SPD, i.e. a band of half-bandwidth m−1.
  std::vector<double> storage(linalg::BandMatrix::storage_size(m, m - 1));
  linalg::BandMatrix factor(storage, m, m - 1);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j <= i; ++j) factor(i, j) = s(i, j);
  }
  linalg::band_cholesky_factor(factor);
  linalg::Vector solved = innovation;
  linalg::band_cholesky_solve_in_place(factor, solved);

  InnovationStats stats;
  stats.observations = m;
  stats.mean_innovation = bias / static_cast<double>(m);
  stats.chi2 = linalg::dot(innovation, solved);
  return stats;
}

std::vector<std::size_t> rank_histogram(
    const std::vector<grid::Field>& ensemble,
    const obs::ObservationSet& observations, Rng& rng) {
  SENKF_REQUIRE(ensemble.size() >= 2, "rank_histogram: need >= 2 members");
  const Index n_members = ensemble.size();
  std::vector<double> predictions(n_members);
  std::vector<std::size_t> counts(n_members + 1, 0);
  for (Index r = 0; r < observations.size(); ++r) {
    const auto& component = observations.components()[r];
    for (Index k = 0; k < n_members; ++k) {
      // Perturb predictions by the observation error so the ensemble and
      // the observation live in the same (noisy) space.
      predictions[k] = component.apply(ensemble[k]) +
                       rng.normal(0.0, component.error_std);
    }
    std::sort(predictions.begin(), predictions.end());
    const double value = observations.values()[r];
    const std::size_t rank =
        std::lower_bound(predictions.begin(), predictions.end(), value) -
        predictions.begin();
    ++counts[rank];
  }
  return counts;
}

double histogram_flatness_chi2(const std::vector<std::size_t>& counts) {
  SENKF_REQUIRE(!counts.empty(), "histogram_flatness_chi2: empty histogram");
  double total = 0.0;
  for (const std::size_t c : counts) total += static_cast<double>(c);
  SENKF_REQUIRE(total > 0.0, "histogram_flatness_chi2: no samples");
  const double expected = total / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (const std::size_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

}  // namespace senkf::enkf
