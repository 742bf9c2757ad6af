// The localized predecessor neighbourhood of the modified-Cholesky
// estimator, restated for test references: earlier points (row-major
// within the expansion) whose offsets lie within (ξ, η).  The library's
// ExpansionPredecessorOracle must produce the same sets; keeping this
// copy separate lets the references check it instead of reusing it.
#pragma once

#include <algorithm>
#include <vector>

#include "../linalg/dense_factor.hpp"
#include "grid/local_box.hpp"

namespace senkf::enkf::testing {

inline linalg::testing::PredecessorFn expansion_predecessors(
    grid::Rect expansion, grid::Halo halo) {
  const Index width = expansion.x.size();
  return [expansion, halo, width](linalg::Index i) {
    std::vector<linalg::Index> pred;
    const Index yi = i / width;
    const Index xi = i % width;
    // Earlier rows within η, and earlier columns of the same row within ξ.
    const Index y_first = yi > halo.eta ? yi - halo.eta : 0;
    for (Index y = y_first; y <= yi; ++y) {
      const Index x_first = xi > halo.xi ? xi - halo.xi : 0;
      const Index x_last = std::min(expansion.x.size() - 1, xi + halo.xi);
      for (Index x = x_first; x <= x_last; ++x) {
        const Index j = y * width + x;
        if (j < i) pred.push_back(j);
      }
    }
    return pred;
  };
}

}  // namespace senkf::enkf::testing
