#include "linalg/sparse_lower.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "dense_factor.hpp"
#include "linalg/covariance.hpp"
#include "linalg/modified_cholesky.hpp"
#include "support/rng.hpp"

namespace senkf::linalg {
namespace {

Matrix random_anomalies(Index n, Index members, Rng& rng) {
  Matrix ensemble(n, members);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < members; ++k) ensemble(i, k) = rng.normal();
  }
  return ensemble_anomalies(ensemble);
}

std::vector<Index> identity_map(Index n) {
  std::vector<Index> map(n);
  std::iota(map.begin(), map.end(), Index{0});
  return map;
}

// Hands out the banded predecessor sets through the arena interface.
class BandedOracle final : public PredecessorOracle {
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

TEST(SparseUnitLower, ScratchLayoutFollowsRowOffsets) {
  support::Arena arena;
  auto row_start = arena.allocate_span<Index>(4);
  row_start[0] = 0;
  row_start[1] = 0;
  row_start[2] = 1;
  row_start[3] = 3;
  SparseUnitLower l = SparseUnitLower::scratch(row_start, arena);
  EXPECT_EQ(l.dim(), 3u);
  EXPECT_EQ(l.nonzeros(), 3u);
  EXPECT_TRUE(l.columns(0).empty());
  l.columns(1)[0] = 0;
  l.columns(2)[0] = 0;
  l.columns(2)[1] = 1;
  EXPECT_EQ(l.columns(2).size(), 2u);
  EXPECT_EQ(l.bandwidth(identity_map(3)), 2u);  // row 2 reaches column 0
  EXPECT_EQ(SparseUnitLower().bandwidth({}), 0u);
}

TEST(SparseUnitLower, BandwidthIsTheSpreadOfEachRowUnderTheMap) {
  // Row 1 holds column 0 and row 2 column 1.  Row-major both reach one
  // step; putting point 1 last spreads row 1 over band rows {0, 2},
  // putting it first spreads row 2 over {0, 2}, and reversing the order
  // keeps both at one.
  support::Arena arena;
  auto row_start = arena.allocate_span<Index>(4);
  row_start[0] = 0;
  row_start[1] = 0;
  row_start[2] = 1;
  row_start[3] = 2;
  SparseUnitLower l = SparseUnitLower::scratch(row_start, arena);
  l.columns(1)[0] = 0;
  l.columns(2)[0] = 1;
  EXPECT_EQ(l.bandwidth(identity_map(3)), 1u);
  const std::vector<Index> last{0, 2, 1};
  EXPECT_EQ(l.bandwidth(last), 2u);
  const std::vector<Index> swapped{1, 0, 2};
  EXPECT_EQ(l.bandwidth(swapped), 2u);
  const std::vector<Index> reversed{2, 1, 0};
  EXPECT_EQ(l.bandwidth(reversed), 1u);
  EXPECT_THROW(l.bandwidth(identity_map(2)), InvalidArgument);
}

TEST(SparseUnitLower, EstimatorStoresOnlyThePredecessors) {
  Rng rng(1);
  const Index n = 200, band = 5;
  const auto factors = testing::estimate_inverse_covariance(
      random_anomalies(n, 10, rng), testing::banded_predecessors(band), 1e-6);
  EXPECT_EQ(factors.l.dim(), n);
  EXPECT_EQ(factors.l.bandwidth(identity_map(n)), band);
  const auto pred = testing::banded_predecessors(band);
  for (Index i = 0; i < n; ++i) {
    const auto columns = factors.l.columns(i);
    EXPECT_EQ(std::vector<Index>(columns.begin(), columns.end()), pred(i));
  }
  // The point of the compact form: O(n·band) entries, not n².
  EXPECT_EQ(factors.l.nonzeros(), band * (band - 1) / 2 + (n - band) * band);
}

TEST(SparseUnitLower, CopyOutlivesTheArena) {
  Rng rng(2);
  const Matrix u = random_anomalies(30, 8, rng);
  BandedOracle oracle(3);
  support::Arena arena;
  const ModifiedCholesky scratch =
      estimate_inverse_covariance_scratch(u, oracle, 1e-6, arena);
  const ModifiedCholesky copy = scratch;
  const std::vector<double> row9(scratch.l.values(9).begin(),
                                 scratch.l.values(9).end());
  arena.reset();
  // Reuse the arena so the scratch factor's bytes are overwritten.
  auto junk = arena.allocate_span<double>(4096);
  std::fill(junk.begin(), junk.end(), -7.0);
  EXPECT_EQ(std::vector<double>(copy.l.values(9).begin(),
                                copy.l.values(9).end()),
            row9);
  EXPECT_EQ(copy.l.columns(9)[0], 6u);
  EXPECT_EQ(copy.d.size(), 30u);
  EXPECT_FALSE(copy.d.is_scratch());

  // A move carries the owned storage and leaves the source empty.
  SparseUnitLower source = copy.l;
  const SparseUnitLower moved = std::move(source);
  EXPECT_EQ(source.dim(), 0u);
  EXPECT_EQ(source.nonzeros(), 0u);
  EXPECT_EQ(moved.values(9)[0], row9[0]);
}
}  // namespace
}  // namespace senkf::linalg
