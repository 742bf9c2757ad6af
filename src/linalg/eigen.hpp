// Symmetric eigendecomposition.
//
// Needed by the deterministic ensemble-transform analysis, whose ensemble
// weight matrix is the symmetric square root of an N×N SPD matrix.  The
// ensembles are small (N ≲ a few hundred); Householder tridiagonalization
// followed by implicit-shift QL (the classic tred2/tql2 pair) is several
// times faster than Jacobi sweeps at these sizes while keeping the same
// unconditional stability for symmetric input.
#pragma once

#include "linalg/matrix.hpp"

namespace senkf::linalg {

struct SymmetricEigen {
  Vector values;   ///< eigenvalues, ascending
  Matrix vectors;  ///< orthonormal eigenvectors, one per column
};

/// Eigendecomposition of a symmetric matrix (tridiagonalize + QL).
/// Throws InvalidArgument if `a` is not symmetric to within `symmetry_tol`,
/// NumericError if the iteration limit is exhausted before convergence.
SymmetricEigen symmetric_eigen(const Matrix& a, double symmetry_tol = 1e-10);

/// Allocation-free eigendecomposition into caller-provided storage (all
/// n-sized for n×n `a`): `values`/`vectors` receive the result, `work_d`
/// and `work_v` are n×n work matrices and `order` an n-length sort
/// scratch.  Every slot is fully overwritten; results are bit-identical
/// to symmetric_eigen.
void symmetric_eigen_into(const Matrix& a, Vector& values, Matrix& vectors,
                          Matrix& work_d, Matrix& work_v,
                          std::span<Index> order,
                          double symmetry_tol = 1e-10);

}  // namespace senkf::linalg
