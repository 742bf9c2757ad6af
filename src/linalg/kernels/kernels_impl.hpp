// Single-source generic implementation of every KernelTable entry,
// templated over a simdvec.hpp vector policy `V` (ScalarOps, Avx2Ops,
// Avx512Ops, NeonOps).  Each per-ISA translation unit includes this
// header and instantiates `make_table<V>()`; no kernel logic exists
// anywhere else, so all ISAs share one algorithm and one FP-ordering
// contract (ascending-k accumulation per output element for the
// broadcast-saxpy products, lane-split sums for the dot-shaped ones).
//
// Padded fast paths: whenever every operand touched along the vectorized
// axis satisfies `ld >= padded_stride(n, V::kWidth)` (pad-zero contract,
// simdvec.hpp), the column loops run in whole vectors with no remainder;
// otherwise a scalar tail handles the last n % kWidth columns.  Both
// paths produce identical logical results — pad lanes only ever combine
// zeros.
//
// This header must be included after simdvec.hpp inside a translation
// unit that enables the target ISA; it is not meant for general use.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "linalg/kernels/kernels.hpp"

namespace senkf::linalg::kernels::impl {

/// Bound for whole-vector column processing: the padded stride when the
/// leading dimension proves the pad exists, else the last full vector.
template <class V>
constexpr Index vec_bound(Index n, Index min_ld) {
  const Index up = padded_stride(n, V::kWidth);
  return min_ld >= up ? up : n - n % V::kWidth;
}

template <class V>
void zero_rows(Index m, Index cols, double* c, Index ldc) {
  for (Index i = 0; i < m; ++i) std::fill_n(c + i * ldc, cols, 0.0);
}

// --------------------------------------------------------------------------
// GEMM, broadcast-saxpy family (nn / tn share a strided-A driver).
// --------------------------------------------------------------------------

// C[r][0..2W) += Σ_kk A(r, kk) · B(kk, 0..2W) for r = 0..3, with A(r, kk)
// at a[r·ars + kk·aks]; b and c are pre-offset to the tile's column.
template <class V>
void tile4x2(Index k0, Index kend, const double* a, Index ars, Index aks,
             const double* b, Index ldb, double* c, Index ldc) {
  constexpr Index W = V::kWidth;
  typename V::vd c00 = V::loadu(c + 0 * ldc);
  typename V::vd c01 = V::loadu(c + 0 * ldc + W);
  typename V::vd c10 = V::loadu(c + 1 * ldc);
  typename V::vd c11 = V::loadu(c + 1 * ldc + W);
  typename V::vd c20 = V::loadu(c + 2 * ldc);
  typename V::vd c21 = V::loadu(c + 2 * ldc + W);
  typename V::vd c30 = V::loadu(c + 3 * ldc);
  typename V::vd c31 = V::loadu(c + 3 * ldc + W);
  for (Index kk = k0; kk < kend; ++kk) {
    const double* bk = b + kk * ldb;
    const typename V::vd b0 = V::loadu(bk);
    const typename V::vd b1 = V::loadu(bk + W);
    const double* ak = a + kk * aks;
    const typename V::vd a0 = V::set1(ak[0 * ars]);
    c00 = V::fmadd(a0, b0, c00);
    c01 = V::fmadd(a0, b1, c01);
    const typename V::vd a1 = V::set1(ak[1 * ars]);
    c10 = V::fmadd(a1, b0, c10);
    c11 = V::fmadd(a1, b1, c11);
    const typename V::vd a2 = V::set1(ak[2 * ars]);
    c20 = V::fmadd(a2, b0, c20);
    c21 = V::fmadd(a2, b1, c21);
    const typename V::vd a3 = V::set1(ak[3 * ars]);
    c30 = V::fmadd(a3, b0, c30);
    c31 = V::fmadd(a3, b1, c31);
  }
  V::storeu(c + 0 * ldc, c00);
  V::storeu(c + 0 * ldc + W, c01);
  V::storeu(c + 1 * ldc, c10);
  V::storeu(c + 1 * ldc + W, c11);
  V::storeu(c + 2 * ldc, c20);
  V::storeu(c + 2 * ldc + W, c21);
  V::storeu(c + 3 * ldc, c30);
  V::storeu(c + 3 * ldc + W, c31);
}

// Single-row, single-vector edition for the row / column remainders.
template <class V>
void tile1x1(Index k0, Index kend, const double* a, Index aks,
             const double* b, Index ldb, double* c) {
  typename V::vd acc = V::loadu(c);
  for (Index kk = k0; kk < kend; ++kk) {
    acc = V::fmadd(V::set1(a[kk * aks]), V::loadu(b + kk * ldb), acc);
  }
  V::storeu(c, acc);
}

// Shared driver for C = op(A)·B: op selected by A's (row, k) strides —
// (lda, 1) for A as given, (1, lda) for Aᵀ of a k×m matrix.
template <class V>
void gemm_driver(Index m, Index n, Index k, const double* a, Index ars,
                 Index aks, const double* b, Index ldb, double* c,
                 Index ldc) {
  constexpr Index W = V::kWidth;
  // Whole-vector columns need both the B loads and the C stores to stay
  // in bounds past n; pad lanes then accumulate a·0 and stay zero.
  const Index nv = vec_bound<V>(n, std::min(ldb, ldc));
  zero_rows<V>(m, std::max(n, nv), c, ldc);
  for (Index j0 = 0; j0 < n; j0 += kBlockN) {
    const Index jend = std::min(n, j0 + kBlockN);
    const Index jvec = std::min(nv, j0 + kBlockN);
    for (Index k0 = 0; k0 < k; k0 += kBlockK) {
      const Index kend = std::min(k, k0 + kBlockK);
      Index i = 0;
      for (; i + 4 <= m; i += 4) {
        const double* ai = a + i * ars;
        Index j = j0;
        for (; j + 2 * W <= jvec; j += 2 * W) {
          tile4x2<V>(k0, kend, ai, ars, aks, b + j, ldb, c + i * ldc + j,
                     ldc);
        }
        for (; j + W <= jvec; j += W) {
          for (Index r = 0; r < 4; ++r) {
            tile1x1<V>(k0, kend, ai + r * ars, aks, b + j, ldb,
                       c + (i + r) * ldc + j);
          }
        }
        for (; j < jend; ++j) {
          for (Index r = 0; r < 4; ++r) {
            double sum = c[(i + r) * ldc + j];
            for (Index kk = k0; kk < kend; ++kk) {
              sum += ai[r * ars + kk * aks] * b[kk * ldb + j];
            }
            c[(i + r) * ldc + j] = sum;
          }
        }
      }
      for (; i < m; ++i) {
        const double* ai = a + i * ars;
        Index j = j0;
        for (; j + W <= jvec; j += W) {
          tile1x1<V>(k0, kend, ai, aks, b + j, ldb, c + i * ldc + j);
        }
        for (; j < jend; ++j) {
          double sum = c[i * ldc + j];
          for (Index kk = k0; kk < kend; ++kk) {
            sum += ai[kk * aks] * b[kk * ldb + j];
          }
          c[i * ldc + j] = sum;
        }
      }
    }
  }
}

template <class V>
void gemm_nn(Index m, Index n, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  gemm_driver<V>(m, n, k, a, lda, 1, b, ldb, c, ldc);
}

template <class V>
void gemm_tn(Index m, Index n, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  gemm_driver<V>(m, n, k, a, 1, lda, b, ldb, c, ldc);
}

// --------------------------------------------------------------------------
// Dot-shaped family (nt products, gemv, dot).
// --------------------------------------------------------------------------

/// Σ x[i]·y[i] with four striped vector accumulators (FMA latency is
/// 4-5 cycles at ~2/cycle throughput, so fewer chains leave the units
/// idle) plus a scalar tail; the lane/stripe-split deviation from a
/// strict ascending sum is the tolerated cross-ISA divergence.
template <class V>
double dot_span(Index n, const double* x, const double* y) {
  constexpr Index W = V::kWidth;
  typename V::vd acc0 = V::zero();
  typename V::vd acc1 = V::zero();
  typename V::vd acc2 = V::zero();
  typename V::vd acc3 = V::zero();
  Index i = 0;
  for (; i + 4 * W <= n; i += 4 * W) {
    acc0 = V::fmadd(V::loadu(x + i), V::loadu(y + i), acc0);
    acc1 = V::fmadd(V::loadu(x + i + W), V::loadu(y + i + W), acc1);
    acc2 = V::fmadd(V::loadu(x + i + 2 * W), V::loadu(y + i + 2 * W), acc2);
    acc3 = V::fmadd(V::loadu(x + i + 3 * W), V::loadu(y + i + 3 * W), acc3);
  }
  for (; i + W <= n; i += W) {
    acc0 = V::fmadd(V::loadu(x + i), V::loadu(y + i), acc0);
  }
  double sum =
      V::hsum(V::add(V::add(acc0, acc1), V::add(acc2, acc3)));
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

// C = A·Bᵀ with B stored n×k: rows of both operands are contiguous, so
// each element is a straight dot product; four B rows at a time reuse
// each A load.
template <class V>
void gemm_nt(Index m, Index n, Index k, const double* a, Index lda,
             const double* b, Index ldb, double* c, Index ldc) {
  constexpr Index W = V::kWidth;
  const Index kv = vec_bound<V>(k, std::min(lda, ldb));
  for (Index i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + (j + 0) * ldb;
      const double* b1 = b + (j + 1) * ldb;
      const double* b2 = b + (j + 2) * ldb;
      const double* b3 = b + (j + 3) * ldb;
      typename V::vd acc0 = V::zero();
      typename V::vd acc1 = V::zero();
      typename V::vd acc2 = V::zero();
      typename V::vd acc3 = V::zero();
      Index kk = 0;
      for (; kk + W <= kv; kk += W) {
        const typename V::vd av = V::loadu(ai + kk);
        acc0 = V::fmadd(av, V::loadu(b0 + kk), acc0);
        acc1 = V::fmadd(av, V::loadu(b1 + kk), acc1);
        acc2 = V::fmadd(av, V::loadu(b2 + kk), acc2);
        acc3 = V::fmadd(av, V::loadu(b3 + kk), acc3);
      }
      double s0 = V::hsum(acc0), s1 = V::hsum(acc1);
      double s2 = V::hsum(acc2), s3 = V::hsum(acc3);
      for (; kk < k; ++kk) {
        const double av = ai[kk];
        s0 += av * b0[kk];
        s1 += av * b1[kk];
        s2 += av * b2[kk];
        s3 += av * b3[kk];
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const double* bj = b + j * ldb;
      typename V::vd acc = V::zero();
      Index kk = 0;
      for (; kk + W <= kv; kk += W) {
        acc = V::fmadd(V::loadu(ai + kk), V::loadu(bj + kk), acc);
      }
      double sum = V::hsum(acc);
      for (; kk < k; ++kk) sum += ai[kk] * bj[kk];
      ci[j] = sum;
    }
  }
}

template <class V>
void gemv_n(Index m, Index n, const double* a, Index lda, const double* x,
            double* y) {
  constexpr Index W = V::kWidth;
  for (Index i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    typename V::vd acc = V::zero();
    Index j = 0;
    for (; j + W <= n; j += W) {
      acc = V::fmadd(V::loadu(ai + j), V::loadu(x + j), acc);
    }
    double sum = V::hsum(acc);
    for (; j < n; ++j) sum += ai[j] * x[j];
    y[i] = sum;
  }
}

template <class V>
void gemv_t(Index m, Index n, const double* a, Index lda, const double* x,
            double* y) {
  constexpr Index W = V::kWidth;
  std::fill_n(y, n, 0.0);
  for (Index i = 0; i < m; ++i) {
    const double* ai = a + i * lda;
    const typename V::vd xi = V::set1(x[i]);
    Index j = 0;
    for (; j + W <= n; j += W) {
      V::storeu(y + j, V::fmadd(xi, V::loadu(ai + j), V::loadu(y + j)));
    }
    for (; j < n; ++j) y[j] += ai[j] * x[i];
  }
}

template <class V>
double dot(Index n, const double* x, const double* y) {
  return dot_span<V>(n, x, y);
}

// --------------------------------------------------------------------------
// Band Cholesky.
// --------------------------------------------------------------------------

// Left-looking, row by row, in lower-band storage (row stride b+1,
// diagonal last): L(i, j) needs the dot of rows i and j of L over their
// shared columns [max(0, i−b), j), and both row segments are contiguous.
// Every reduction is the same dot_span the table's `dot` entry runs.
template <class V>
std::ptrdiff_t pbtrf(Index n, Index b, double* a) {
  const Index ld = b + 1;
  for (Index i = 0; i < n; ++i) {
    const Index first = i > b ? i - b : 0;
    double* row_i = a + i * ld + b - (i - first);  // &L(i, first)
    for (Index j = first; j < i; ++j) {
      const double* row_j = a + j * ld + b - (j - first);  // &L(j, first)
      const double sum = dot_span<V>(j - first, row_i, row_j);
      row_i[j - first] = (row_i[j - first] - sum) / a[j * ld + b];
    }
    const double pivot = a[i * ld + b] - dot_span<V>(i - first, row_i, row_i);
    if (!(pivot > 0.0)) return static_cast<std::ptrdiff_t>(i);
    a[i * ld + b] = std::sqrt(pivot);
  }
  return -1;
}

// --------------------------------------------------------------------------
// Innovation / observation-space ops.
// --------------------------------------------------------------------------

template <class V>
void axpy(Index n, double alpha, const double* x, double* y) {
  constexpr Index W = V::kWidth;
  const typename V::vd av = V::set1(alpha);
  Index i = 0;
  for (; i + W <= n; i += W) {
    V::storeu(y + i, V::fmadd(av, V::loadu(x + i), V::loadu(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

template <class V>
void scale(Index n, double alpha, double* x) {
  constexpr Index W = V::kWidth;
  const typename V::vd av = V::set1(alpha);
  Index i = 0;
  for (; i + W <= n; i += W) {
    V::storeu(x + i, V::mul(av, V::loadu(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

template <class V>
void row_scale(Index m, Index n, const double* d, double* a, Index lda) {
  constexpr Index W = V::kWidth;
  const Index jv = vec_bound<V>(n, lda);
  for (Index r = 0; r < m; ++r) {
    double* row = a + r * lda;
    const typename V::vd dv = V::set1(d[r]);
    Index j = 0;
    for (; j + W <= jv; j += W) {
      V::storeu(row + j, V::mul(dv, V::loadu(row + j)));
    }
    for (; j < n; ++j) row[j] *= d[r];
  }
}

template <class V>
void innovation(Index m, Index n, const double* ys, Index ldy,
                const double* hx, Index ldh, const double* rinv, double* out,
                Index ldo) {
  constexpr Index W = V::kWidth;
  const Index jv = vec_bound<V>(n, std::min(ldo, std::min(ldy, ldh)));
  for (Index r = 0; r < m; ++r) {
    const double* ysr = ys + r * ldy;
    const double* hxr = hx + r * ldh;
    double* outr = out + r * ldo;
    const typename V::vd rv = V::set1(rinv[r]);
    Index j = 0;
    for (; j + W <= jv; j += W) {
      V::storeu(outr + j,
                V::mul(rv, V::sub(V::loadu(ysr + j), V::loadu(hxr + j))));
    }
    for (; j < n; ++j) outr[j] = rinv[r] * (ysr[j] - hxr[j]);
  }
}

/// Fills a KernelTable with this policy's instantiations.
template <class V>
KernelTable make_table(const char* name) {
  return KernelTable{name,
                     V::kWidth,
                     &gemm_nn<V>,
                     &gemm_tn<V>,
                     &gemm_nt<V>,
                     &gemv_n<V>,
                     &gemv_t<V>,
                     &axpy<V>,
                     &scale<V>,
                     &row_scale<V>,
                     &innovation<V>,
                     &dot<V>,
                     &pbtrf<V>};
}

}  // namespace senkf::linalg::kernels::impl
