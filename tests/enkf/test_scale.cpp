// Scale gate for the banded stochastic analysis (ROADMAP item 2): the
// 240×120, 40-member stochastic case must finish, agree bit for bit
// between the serial reference and S-EnKF, and improve on the
// background.  Its 16 layer expansions hold up to 122×17 = 2074 points
// each; the dense n̄×n̄ solve needed tens of seconds for them, the band
// (half-bandwidth 123) about a second.
#include <gtest/gtest.h>

#include "enkf/diagnostics.hpp"
#include "enkf/senkf.hpp"
#include "enkf/serial_enkf.hpp"
#include "grid/synthetic.hpp"
#include "obs/perturbed.hpp"

namespace senkf::enkf {
namespace {

TEST(Scale, Stochastic240x120FinishesAndAgrees) {
  const grid::LatLonGrid g(240, 120);
  constexpr Index kMembers = 40;
  senkf::Rng ensemble_rng(240);
  const grid::SyntheticEnsemble scenario =
      grid::synthetic_ensemble(g, kMembers, ensemble_rng, 0.5);
  senkf::Rng network_rng(241);
  obs::NetworkOptions network;
  network.station_count = 500;
  network.error_std = 0.05;
  const obs::ObservationSet observations =
      obs::random_network(g, scenario.truth, network_rng, network);
  const linalg::Matrix ys = obs::perturbed_observations(
      observations, kMembers, senkf::Rng(242));
  const MemoryEnsembleStore store(g, scenario.members);

  const grid::Halo halo{1, 1};
  EnkfRunConfig serial_config;
  serial_config.n_sdx = 2;
  serial_config.n_sdy = 1;
  serial_config.layers = 8;
  serial_config.analysis.halo = halo;
  SenkfConfig senkf_config;
  senkf_config.n_sdx = 2;
  senkf_config.n_sdy = 1;
  senkf_config.layers = 8;
  senkf_config.n_cg = 2;
  senkf_config.analysis_threads = 1;
  senkf_config.analysis.halo = halo;

  const auto gold = serial_enkf(store, observations, ys, serial_config);
  const auto parallel = senkf(store, observations, ys, senkf_config);
  EXPECT_EQ(max_ensemble_difference(gold, parallel), 0.0);
  EXPECT_LT(mean_field_rmse(gold, scenario.truth),
            mean_field_rmse(scenario.members, scenario.truth));
}

}  // namespace
}  // namespace senkf::enkf
