// Process-wide cache of localized observation products (DESIGN.md §15).
//
// Localizing an ObservationSet to an expansion rectangle — selecting the
// supported components, building H̄ once, row-sparse (1–4 support points
// per row), and the R diagonal with its reciprocals — depends only on
// (observation set, rect).  An entry holds nothing m̄×n̄ or n̄×n̄, and no
// product with H̄: both analysis kinds apply H̄ through its supports per
// patch, and the stochastic one forms its HᵀR⁻¹H term on the band.
// Sub-domains are re-analysed with the same rects every cycle, so the
// cache turns the per-patch localization cost into a shared-lock lookup
// after the first cycle.
//
// Keys use ObservationSet::epoch(), a process-unique id assigned at
// construction: a *new* observation set (fresh values, new network) gets
// a new epoch, so stale products are never returned, and entries for
// superseded epochs are evicted when a newer epoch is first inserted.
//
// Metrics: analysis.localization.{hits,misses} counters and an
// analysis.localization.entries gauge.
#pragma once

#include <memory>

#include "obs/local_obs.hpp"

namespace senkf::obs {

/// The localization of `observations` to `rect`, served from the global
/// cache (built on first use).  The returned pointer stays valid after
/// eviction — holders keep their copy alive.
std::shared_ptr<const LocalObservations> localized(
    const ObservationSet& observations, grid::Rect rect);

/// Drops every cached entry (tests; between unrelated experiments).
void clear_localization_cache();

/// Live entry count (what the entries gauge reports).
std::size_t localization_cache_size();

}  // namespace senkf::obs
