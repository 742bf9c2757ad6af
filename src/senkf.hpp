// Umbrella header: the full public API of the S-EnKF library.
//
// Include granular headers in production code; this header is the
// convenient on-ramp for examples and exploration.
#pragma once

// Foundations
#include "support/config.hpp"     // key=value configuration
#include "support/error.hpp"      // exception hierarchy, SENKF_REQUIRE
#include "support/rng.hpp"        // deterministic RNG
#include "support/stopwatch.hpp"  // wall-clock timers
#include "support/table.hpp"      // aligned table printing

// Linear algebra
#include "linalg/banded.hpp"
#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/modified_cholesky.hpp"
#include "linalg/ops.hpp"
#include "linalg/solve.hpp"
#include "linalg/sparse_lower.hpp"

// Geometry, fields and observations
#include "grid/decomposition.hpp"
#include "grid/field.hpp"
#include "grid/grid.hpp"
#include "grid/local_box.hpp"
#include "grid/synthetic.hpp"
#include "obs/local_obs.hpp"
#include "obs/observation.hpp"
#include "obs/perturbed.hpp"
#include "obs/quality_control.hpp"

// Dynamics (forecast model for cycled assimilation)
#include "model/advection.hpp"

// The EnKF core
#include "enkf/cycle.hpp"
#include "enkf/diagnostics.hpp"
#include "enkf/ensemble_store.hpp"
#include "enkf/file_store.hpp"
#include "enkf/lenkf.hpp"
#include "enkf/local_analysis.hpp"
#include "enkf/penkf.hpp"
#include "enkf/senkf.hpp"
#include "enkf/serial_enkf.hpp"
#include "enkf/verification.hpp"

// Message passing (thread-backed MPI-like runtime)
#include "parcomm/communicator.hpp"
#include "parcomm/runtime.hpp"

// Performance plane: simulation, machine models, cost model, auto-tuning
#include "net/net.hpp"
#include "pfs/pfs.hpp"
#include "sim/primitives.hpp"
#include "sim/simulation.hpp"
#include "tuning/auto_tune.hpp"
#include "tuning/cost_model.hpp"
#include "vcluster/machine.hpp"
#include "vcluster/workflows.hpp"
