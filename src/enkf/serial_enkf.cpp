#include "enkf/serial_enkf.hpp"

namespace senkf::enkf {

std::vector<grid::Field> serial_enkf(const EnsembleStore& store,
                                     const obs::ObservationSet& observations,
                                     const linalg::Matrix& perturbed,
                                     const EnkfRunConfig& config) {
  const grid::Decomposition decomposition(store.grid(), config.n_sdx,
                                          config.n_sdy,
                                          config.analysis.halo);
  SENKF_REQUIRE(decomposition.valid_layer_count(config.layers),
                "serial_enkf: L must divide the sub-domain row count");

  // Each member is loaded once.  The kernel gathers every expansion
  // window in place from views of these background fields, and the
  // analysis fields start as copies of them, so skipped
  // (observation-free) regions keep their prior values.
  std::vector<grid::Field> background;
  background.reserve(store.members());
  for (Index k = 0; k < store.members(); ++k) {
    background.push_back(store.load_member(k));
  }
  std::vector<grid::Field> analysis = background;
  std::vector<grid::PatchView> members;
  members.reserve(background.size());
  for (const grid::Field& field : background) {
    members.emplace_back(store.grid().bounds(), field.data());
  }

  LocalAnalysisWorkspace& ws = LocalAnalysisWorkspace::for_this_thread();
  for (const grid::SubdomainId id : decomposition.all_subdomains()) {
    for (Index l = 0; l < config.layers; ++l) {
      const grid::Rect target = decomposition.layer(id, l, config.layers);
      const grid::Rect expansion =
          decomposition.layer_expansion(id, l, config.layers);
      const AnalysisView local =
          local_analysis_scratch(members, expansion, target, observations,
                                 perturbed, config.analysis, ws);
      for (Index k = 0; k < store.members(); ++k) {
        analysis[k].insert(local.members[k]);
      }
    }
  }
  return analysis;
}

}  // namespace senkf::enkf
