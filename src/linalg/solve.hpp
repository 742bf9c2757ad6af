// General dense solver (LU with partial pivoting).
//
// The library's SPD systems all go to the band Cholesky (banded.hpp).  LU
// is a different algorithm, which is why it stays: tests use it as the
// independent oracle the Cholesky solves are checked against.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace senkf::linalg {

/// LU factorization with partial pivoting: P A = L U.
class LuFactor {
 public:
  /// Throws NumericError on (numerically) singular input.
  explicit LuFactor(const Matrix& a);

  Index dim() const { return lu_.rows(); }

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Solves A X = B column-wise.
  Matrix solve(const Matrix& b) const;

 private:
  Matrix lu_;                 // packed L (unit diagonal) and U
  std::vector<Index> pivot_;  // row permutation
};

/// Dense inverse via LU (test/diagnostic use only).
Matrix inverse(const Matrix& a);

}  // namespace senkf::linalg
