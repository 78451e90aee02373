/// Exhaustive equivalence tests for the splittable restricted-growth-string
/// enumerator: over *all* databases with |C| ≤ 6 (every known/unknown split)
/// and assorted explicit uniqueness-axiom sets, the union of the split
/// ranges must visit exactly the canonical representatives of the
/// sequential walk — set-equal and count-equal, with pairwise-disjoint
/// ranges. This is the invariant the parallel exact engine rests on.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/util/rng.h"
#include "tests/testing.h"

namespace lqdb {
namespace {

/// A database with `known` known and `unknown` unknown constants plus a
/// seeded random set of explicit uniqueness axioms (seed 0 = none).
std::unique_ptr<CwDatabase> MakeDb(int known, int unknown, uint64_t seed) {
  auto lb = std::make_unique<CwDatabase>();
  for (int i = 0; i < unknown; ++i) {
    lb->AddUnknownConstant("U" + std::to_string(i));
  }
  for (int i = 0; i < known; ++i) {
    lb->AddKnownConstant("K" + std::to_string(i));
  }
  if (seed != 0) {
    Rng rng(seed);
    const ConstId n = static_cast<ConstId>(lb->num_constants());
    for (ConstId a = 0; a < n; ++a) {
      for (ConstId b = a + 1; b < n; ++b) {
        if (lb->IsKnown(a) && lb->IsKnown(b)) continue;  // already implicit
        if (rng.Chance(0.35)) {
          Status s = lb->AddDistinct(a, b);
          (void)s;
        }
      }
    }
  }
  return lb;
}

std::set<ConstMapping> CollectSequential(const CwDatabase& lb,
                                         uint64_t* count) {
  std::set<ConstMapping> seen;
  *count = ForEachCanonicalMapping(lb, [&](const ConstMapping& h) {
    EXPECT_TRUE(seen.insert(h).second) << "sequential walk repeated a "
                                          "canonical representative";
    return true;
  });
  return seen;
}

/// Core check: for every requested split granularity, the ranges jointly
/// visit the sequential set exactly once.
void CheckSplitsCoverSequential(const CwDatabase& lb) {
  uint64_t sequential_count = 0;
  const std::set<ConstMapping> sequential =
      CollectSequential(lb, &sequential_count);
  EXPECT_EQ(sequential.size(), sequential_count);
  EXPECT_EQ(sequential_count, CountCanonicalMappings(lb));

  for (size_t min_ranges : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                            size_t{8}, size_t{16}, size_t{64}}) {
    const std::vector<MappingRange> ranges =
        SplitCanonicalMappingSpace(lb, min_ranges);
    ASSERT_FALSE(ranges.empty());
    if (min_ranges == 1) EXPECT_EQ(ranges.size(), 1u);

    std::set<ConstMapping> visited;
    uint64_t total = 0;
    for (const MappingRange& range : ranges) {
      total += ForEachCanonicalMappingChunk(
          lb, range, /*budget=*/0,
          [&](const ConstMapping& h) {
            EXPECT_TRUE(RespectsUniqueness(lb, h));
            EXPECT_TRUE(visited.insert(h).second)
                << "ranges overlap (min_ranges=" << min_ranges << ")";
            return true;
          },
          nullptr);
    }
    EXPECT_EQ(total, sequential_count) << "min_ranges=" << min_ranges;
    EXPECT_EQ(visited, sequential) << "min_ranges=" << min_ranges;
  }
}

TEST(MappingEnumeratorTest, SplitsCoverAllDatabasesUpTo6Constants) {
  for (int n = 1; n <= 6; ++n) {
    for (int unknown = 0; unknown <= n; ++unknown) {
      for (uint64_t seed : {uint64_t{0}, uint64_t{7}, uint64_t{41}}) {
        auto lb = MakeDb(n - unknown, unknown, seed);
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " unknown=" + std::to_string(unknown) +
                     " seed=" + std::to_string(seed));
        CheckSplitsCoverSequential(*lb);
      }
    }
  }
}

TEST(MappingEnumeratorTest, AllUnknownCountsAreBellNumbers) {
  // With no uniqueness axioms the NE-avoiding partitions are all set
  // partitions: B(1..6) = 1, 2, 5, 15, 52, 203.
  const uint64_t bell[] = {1, 2, 5, 15, 52, 203};
  for (int n = 1; n <= 6; ++n) {
    auto lb = MakeDb(0, n, /*seed=*/0);
    EXPECT_EQ(CountCanonicalMappings(*lb), bell[n - 1]) << "n=" << n;
  }
}

TEST(MappingEnumeratorTest, FullySpecifiedHasOnlyIdentity) {
  // All-known constants are pairwise distinct: the identity partition is
  // the only NE-avoiding one, and no split can manufacture more ranges
  // than partitions.
  auto lb = MakeDb(5, 0, /*seed=*/0);
  EXPECT_EQ(CountCanonicalMappings(*lb), 1u);
  const std::vector<MappingRange> ranges =
      SplitCanonicalMappingSpace(*lb, 16);
  uint64_t total = 0;
  for (const MappingRange& range : ranges) {
    total += ForEachCanonicalMappingChunk(
        *lb, range, /*budget=*/0,
        [&](const ConstMapping& h) {
          EXPECT_EQ(h, IdentityMapping(lb->num_constants()));
          return true;
        },
        nullptr);
  }
  EXPECT_EQ(total, 1u);
}

TEST(MappingEnumeratorTest, RangeWalkHonorsVisitorStop) {
  auto lb = MakeDb(0, 5, /*seed=*/0);  // 52 partitions
  const std::vector<MappingRange> ranges =
      SplitCanonicalMappingSpace(*lb, 4);
  ASSERT_GE(ranges.size(), 4u);
  // Stop after the first visit of the first range: the returned count is
  // the number visited, not the range size.
  uint64_t visited = ForEachCanonicalMappingChunk(
      *lb, ranges[0], /*budget=*/0,
      [&](const ConstMapping&) { return false; }, nullptr);
  EXPECT_EQ(visited, 1u);
}

TEST(MappingEnumeratorTest, SplitIsDeterministic) {
  auto lb = MakeDb(2, 3, /*seed=*/7);
  const auto a = SplitCanonicalMappingSpace(*lb, 8);
  const auto b = SplitCanonicalMappingSpace(*lb, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].rgs, b[i].rgs);
}

TEST(MappingEnumeratorTest, ChunkedWalkCoversSpaceForAnyBudget) {
  // Repeatedly walking a work-list of ranges with a tiny budget and pushing
  // the donated remainders back must reconstruct the full space exactly
  // once — the invariant the parallel engine's work-stealing queue rests
  // on, for every budget and every database shape.
  for (int n = 1; n <= 6; ++n) {
    for (int unknown : {n / 2, n}) {
      for (uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
        auto lb = MakeDb(n - unknown, unknown, seed);
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " unknown=" + std::to_string(unknown) +
                     " seed=" + std::to_string(seed));
        uint64_t sequential_count = 0;
        const std::set<ConstMapping> sequential =
            CollectSequential(*lb, &sequential_count);
        for (uint64_t budget : {uint64_t{1}, uint64_t{2}, uint64_t{3},
                                uint64_t{7}, uint64_t{1000}}) {
          std::vector<MappingRange> work = {MappingRange{}};
          std::set<ConstMapping> visited;
          uint64_t total = 0;
          while (!work.empty()) {
            MappingRange range = std::move(work.back());
            work.pop_back();
            std::vector<MappingRange> remainder;
            total += ForEachCanonicalMappingChunk(
                *lb, range, budget,
                [&](const ConstMapping& h) {
                  EXPECT_TRUE(visited.insert(h).second)
                      << "chunked walk repeated a representative (budget="
                      << budget << ")";
                  return true;
                },
                &remainder);
            for (MappingRange& r : remainder) work.push_back(std::move(r));
          }
          EXPECT_EQ(total, sequential_count) << "budget=" << budget;
          EXPECT_EQ(visited, sequential) << "budget=" << budget;
        }
      }
    }
  }
}

TEST(MappingEnumeratorTest, ChunkBudgetBoundsTheVisitCount) {
  auto lb = MakeDb(0, 5, /*seed=*/0);  // 52 partitions
  std::vector<MappingRange> remainder;
  uint64_t visited = ForEachCanonicalMappingChunk(
      *lb, MappingRange{}, /*budget=*/10,
      [](const ConstMapping&) { return true; }, &remainder);
  EXPECT_EQ(visited, 10u);
  ASSERT_FALSE(remainder.empty());
  // The donated remainder covers exactly the other 42.
  uint64_t rest = 0;
  for (const MappingRange& range : remainder) {
    rest += ForEachCanonicalMappingChunk(
        *lb, range, /*budget=*/0, [](const ConstMapping&) { return true; },
        nullptr);
  }
  EXPECT_EQ(rest, 42u);
}

TEST(MappingEnumeratorTest, ChunkVisitorStopDiscardsRemainder) {
  // An early exit abandons the whole enumeration: nothing may be donated.
  auto lb = MakeDb(0, 4, /*seed=*/0);
  std::vector<MappingRange> remainder;
  uint64_t visited = ForEachCanonicalMappingChunk(
      *lb, MappingRange{}, /*budget=*/0,
      [](const ConstMapping&) { return false; }, &remainder);
  EXPECT_EQ(visited, 1u);
  EXPECT_TRUE(remainder.empty());
}

TEST(MappingEnumeratorTest, ApplyMappingIntoMatchesApplyMapping) {
  // Scratch reuse must produce byte-identical image databases even when
  // the scratch previously held a *different* mapping's image (stale
  // relations/domain must not leak through).
  auto lb = MakeDb(2, 3, /*seed=*/41);
  PredId p = lb->AddPredicate("P", 1).value();
  PredId r = lb->AddPredicate("R", 2).value();
  ASSERT_OK(lb->AddFact(p, {0}));
  ASSERT_OK(lb->AddFact(r, {1, 3}));
  ASSERT_OK(lb->AddFact(r, {2, 2}));

  PhysicalDatabase scratch(&lb->vocab());
  ForEachCanonicalMapping(*lb, [&](const ConstMapping& h) {
    PhysicalDatabase fresh = ApplyMapping(*lb, h);
    ApplyMappingInto(*lb, h, &scratch);
    EXPECT_EQ(fresh.domain(), scratch.domain());
    for (ConstId c = 0; c < lb->num_constants(); ++c) {
      EXPECT_EQ(fresh.ConstantValue(c), scratch.ConstantValue(c));
    }
    for (PredId pred : {p, r}) {
      EXPECT_EQ(fresh.relation(pred), scratch.relation(pred))
          << "pred " << pred;
    }
    return true;
  });
}

}  // namespace
}  // namespace lqdb
