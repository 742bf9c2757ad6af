// The rank-0 result gather every parallel engine shares
// (enkf/patch_wire.hpp): payloads from several ranks land in the right
// member fields, unlisted (dropped) members are neither loaded nor
// written, and a record for an unlisted or out-of-range member throws.
#include <gtest/gtest.h>

#include <vector>

#include "enkf/patch_wire.hpp"
#include "parcomm/runtime.hpp"

namespace senkf::enkf {
namespace {

using grid::Index;

constexpr int kTag = 2;
constexpr int kRanks = 3;
const grid::LatLonGrid kGrid{6, 4};

double background_value(Index member) { return 100.0 * member; }
double analysis_value(Index member, int rank) { return 1000.0 * member + rank; }

/// Rank `rank`'s analysis of grid row `rank` for each of `members`, in
/// the framing local_analysis_packed writes.
parcomm::Packer result_payload(int rank, const std::vector<Index>& members) {
  const Index y = static_cast<Index>(rank);
  const grid::Rect row{{0, kGrid.nx()}, {y, y + 1}};
  parcomm::Packer packer;
  packer.put<std::uint64_t>(members.size());
  for (const Index member : members) {
    packer.put<std::uint64_t>(member);
    pack_patch(packer, grid::Patch(row, analysis_value(member, rank)));
  }
  return packer;
}

/// Runs gather_results on kRanks ranks; rank r sends records for
/// `sent[r]`.  Returns rank 0's fields and counts the loader calls.
std::vector<grid::Field> run_gather(const std::vector<Index>& listed,
                                    const std::vector<std::vector<Index>>& sent,
                                    std::vector<Index>* loaded) {
  std::vector<grid::Field> fields;
  parcomm::Runtime::run(kRanks, [&](parcomm::Communicator& world) {
    parcomm::Packer mine = result_payload(world.rank(), sent[world.rank()]);
    if (world.rank() != 0) {
      world.send(0, kTag, mine.take());
      return;
    }
    fields = gather_results(
        world, kTag, world.size(), listed,
        [&](Index member) {
          loaded->push_back(member);
          return grid::Field(kGrid, background_value(member));
        },
        mine.take_shared());
  });
  return fields;
}

TEST(GatherResults, PayloadsFromEveryRankLandInTheirMemberFields) {
  const std::vector<Index> all{0, 1, 2};
  std::vector<Index> loaded;
  const auto fields = run_gather(all, {all, all, all}, &loaded);
  EXPECT_EQ(loaded, all);
  ASSERT_EQ(fields.size(), 3u);
  for (Index member = 0; member < 3; ++member) {
    for (Index x = 0; x < kGrid.nx(); ++x) {
      for (int rank = 0; rank < kRanks; ++rank) {
        EXPECT_EQ(fields[member].at(x, rank), analysis_value(member, rank));
      }
      // Row 3 has no sender: it keeps the loaded background.
      EXPECT_EQ(fields[member].at(x, 3), background_value(member));
    }
  }
}

TEST(GatherResults, DroppedMembersAreSkipped) {
  const std::vector<Index> live{0, 2};
  std::vector<Index> loaded;
  const auto fields = run_gather(live, {live, live, live}, &loaded);
  EXPECT_EQ(loaded, live);  // member 1 is never loaded
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0].at(0, 1), analysis_value(0, 1));
  EXPECT_EQ(fields[1].at(0, 1), analysis_value(2, 1));
  EXPECT_EQ(fields[1].at(0, 3), background_value(2));
}

TEST(GatherResults, RejectsUnlistedAndOutOfRangeMembers) {
  std::vector<Index> loaded;
  // Rank 2 sends a result for member 1, which was dropped.
  EXPECT_THROW(run_gather({0, 2}, {{0, 2}, {0, 2}, {0, 1}}, &loaded),
               InvalidArgument);
  // Rank 1 sends a result for member 7 of a 3-member ensemble.
  EXPECT_THROW(run_gather({0, 1, 2}, {{0}, {7}, {1}}, &loaded),
               InvalidArgument);
}

}  // namespace
}  // namespace senkf::enkf
