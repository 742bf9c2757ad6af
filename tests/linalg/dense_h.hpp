// The dense local operator H̄ (m̄×n̄), for tests only — the library keeps
// H̄ as row supports (obs/local_obs.hpp).  Built straight from each
// selected component's support points with the arithmetic the library
// used while it stored H̄ densely (weights accumulated with += in input
// order, so repeated points merge), sharing no code with the support
// builder.
#pragma once

#include "linalg/matrix.hpp"
#include "obs/local_obs.hpp"

namespace senkf::obs::testing {

inline linalg::Matrix dense_h(const ObservationSet& set,
                              const LocalObservations& local) {
  const grid::Rect rect = local.rect();
  const Index width = rect.x.size();
  linalg::Matrix h(local.size(), rect.count(), 0.0);
  for (Index row = 0; row < local.size(); ++row) {
    for (const auto& sp : set.components()[local.selected()[row]].support) {
      const Index j = (sp.point.y - rect.y.begin) * width +
                      (sp.point.x - rect.x.begin);
      h(row, j) += sp.weight;
    }
  }
  return h;
}

}  // namespace senkf::obs::testing
