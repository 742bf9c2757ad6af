// Micro-benchmarks of the linear-algebra kernels behind the local
// analysis (google-benchmark).  The Innovation pair runs both the
// dispatched table and the scalar reference so one JSON capture
// (BENCH_linalg.json) records the SIMD speedup on the host that produced
// it; the SPD factorizations are timed where they run, inside
// BM_ModifiedCholesky here and the stochastic analysis in
// micro_analysis.
#include <benchmark/benchmark.h>

#include <cmath>
#include <span>
#include <vector>

#include "linalg/covariance.hpp"
#include "linalg/kernels/dispatch.hpp"
#include "linalg/kernels/simdvec.hpp"
#include "linalg/modified_cholesky.hpp"
#include "linalg/ops.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace {

using namespace senkf;
using linalg::Index;
using linalg::Matrix;
using linalg::Vector;
using linalg::kernels::KernelTable;

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    for (Index j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

/// Reports the kernel throughput: `flops` is the FLOP count of one
/// iteration (2·m·n·k for a GEMM).
void report_gflops(benchmark::State& state, double flops) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_Gemm(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  const Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  report_gflops(state, 2.0 * static_cast<double>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The LETKF-shaped products are tall and skinny, not square: the
// expansion has thousands of grid points (rows) but only N ≈ 40–120
// ensemble members (columns).  Xᵃ = U·W is (rows × N)·(N × N).
void BM_GemmAnomalyTransform(benchmark::State& state) {
  const Index rows = static_cast<Index>(state.range(0));
  const Index members = static_cast<Index>(state.range(1));
  const Matrix u = random_matrix(rows, members, 1);
  const Matrix w = random_matrix(members, members, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply(u, w));
  }
  report_gflops(state, 2.0 * static_cast<double>(rows * members * members));
}
BENCHMARK(BM_GemmAnomalyTransform)
    ->Args({1024, 40})
    ->Args({4096, 40})
    ->Args({4096, 120})
    ->Args({16384, 40});

void BM_GemmAtB(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix a = random_matrix(n, n, 3);
  const Matrix b = random_matrix(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_at_b(a, b));
  }
  report_gflops(state, 2.0 * static_cast<double>(n * n * n));
}
BENCHMARK(BM_GemmAtB)->Arg(64)->Arg(128);

// ỸᵀR⁻¹Ỹ-shaped reduction: (m̄ × N)ᵀ·(m̄ × N) with many observation rows
// collapsing onto an N×N ensemble-space system.
void BM_GemmAtBTall(benchmark::State& state) {
  const Index rows = static_cast<Index>(state.range(0));
  const Index members = static_cast<Index>(state.range(1));
  const Matrix a = random_matrix(rows, members, 3);
  const Matrix b = random_matrix(rows, members, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_at_b(a, b));
  }
  report_gflops(state,
                2.0 * static_cast<double>(rows * members * members));
}
BENCHMARK(BM_GemmAtBTall)->Args({4096, 40})->Args({4096, 120});

// B = U·Uᵀ-shaped outer product over a short member axis.
void BM_GemmABtTall(benchmark::State& state) {
  const Index rows = static_cast<Index>(state.range(0));
  const Index members = static_cast<Index>(state.range(1));
  const Matrix u = random_matrix(rows, members, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply_a_bt(u, u));
  }
  report_gflops(state, 2.0 * static_cast<double>(rows * rows * members));
}
BENCHMARK(BM_GemmABtTall)->Args({512, 40})->Args({1024, 40});

// R⁻¹(Yˢ − HX̄ᵇ): the fused innovation pass over an observation panel.
void bench_innovation(benchmark::State& state, const KernelTable& table) {
  const Index m = static_cast<Index>(state.range(0));
  const Index n = static_cast<Index>(state.range(1));
  const Index ld = linalg::kernels::padded_stride(n, table.width);
  Rng rng(8);
  std::vector<double> ys(m * ld, 0.0), hx(m * ld, 0.0), out(m * ld, 0.0);
  std::vector<double> rinv(m);
  for (Index i = 0; i < m; ++i) {
    rinv[i] = 1.0 + std::abs(rng.normal());
    for (Index j = 0; j < n; ++j) {
      ys[i * ld + j] = rng.normal();
      hx[i * ld + j] = rng.normal();
    }
  }
  for (auto _ : state) {
    table.innovation(m, n, ys.data(), ld, hx.data(), ld, rinv.data(),
                     out.data(), ld);
    benchmark::DoNotOptimize(out.data());
  }
  report_gflops(state, 2.0 * static_cast<double>(m * n));
  state.SetLabel(table.name);
}

void BM_Innovation(benchmark::State& state) {
  bench_innovation(state, linalg::kernels::active_kernels());
}
void BM_InnovationScalar(benchmark::State& state) {
  bench_innovation(state, linalg::kernels::scalar_kernels());
}
BENCHMARK(BM_Innovation)->Args({512, 40})->Args({2048, 120});
BENCHMARK(BM_InnovationScalar)->Args({512, 40})->Args({2048, 120});

// Banded predecessors: the up-to-`band` immediately preceding variables.
class BandedOracle final : public linalg::PredecessorOracle {
 public:
  explicit BandedOracle(Index band) : band_(band) {}
  std::span<const Index> predecessors(Index i,
                                      support::Arena& scratch) override {
    const Index first = i > band_ ? i - band_ : 0;
    auto out = scratch.allocate_span<Index>(i - first);
    for (Index j = first; j < i; ++j) out[j - first] = j;
    return out;
  }

 private:
  Index band_;
};

void BM_ModifiedCholesky(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Index band = static_cast<Index>(state.range(1));
  const Matrix ensemble = random_matrix(n, 20, 8);
  const Matrix u = linalg::ensemble_anomalies(ensemble);
  BandedOracle oracle(band);
  support::Arena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        linalg::estimate_inverse_covariance_scratch(u, oracle, 1e-6, arena));
    arena.reset();
  }
}
BENCHMARK(BM_ModifiedCholesky)->Args({128, 8})->Args({256, 8})
    ->Args({256, 16});

void BM_EnsembleCovariance(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix ensemble = random_matrix(n, 120, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::sample_covariance(ensemble));
  }
}
BENCHMARK(BM_EnsembleCovariance)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
