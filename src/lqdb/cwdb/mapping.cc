#include "lqdb/cwdb/mapping.h"

#include <cassert>
#include <numeric>

namespace lqdb {

ConstMapping IdentityMapping(size_t n) {
  ConstMapping h(n);
  std::iota(h.begin(), h.end(), 0);
  return h;
}

bool RespectsUniqueness(const CwDatabase& lb, const ConstMapping& h) {
  assert(h.size() == lb.num_constants());
  for (const auto& [a, b] : lb.AllDistinctPairs()) {
    if (h[a] == h[b]) return false;
  }
  return true;
}

void ApplyMappingInto(const CwDatabase& lb, const ConstMapping& h,
                      PhysicalDatabase* scratch) {
  assert(h.size() == lb.num_constants());
  assert(&scratch->vocab() == &lb.vocab());
  scratch->Clear();
  for (ConstId c = 0; c < h.size(); ++c) scratch->AddDomainValue(h[c]);
  for (ConstId c = 0; c < h.size(); ++c) {
    Status s = scratch->SetConstant(c, h[c]);
    assert(s.ok());
    (void)s;
  }
  for (PredId p : lb.PredicatesWithFacts()) {
    for (const Tuple& t : lb.facts(p).tuples()) {
      Tuple image(t.size());
      for (size_t i = 0; i < t.size(); ++i) image[i] = h[t[i]];
      Status s = scratch->AddTuple(p, std::move(image));
      assert(s.ok());
      (void)s;
    }
  }
}

PhysicalDatabase ApplyMapping(const CwDatabase& lb, const ConstMapping& h) {
  PhysicalDatabase db(&lb.vocab());
  ApplyMappingInto(lb, h, &db);
  return db;
}

namespace {

/// Backtracking enumeration of NE-avoiding partitions via restricted-growth
/// strings: constant i joins an existing block (when no member conflicts)
/// or opens a new one. A walk may be rooted at an RGS prefix, in which case
/// it visits exactly the partitions extending that prefix — the unit of
/// work behind `SplitCanonicalMappingSpace`. A walk may also carry a
/// *budget*: after visiting that many partitions it stops and reports the
/// untaken branches of its recursion stack as disjoint ranges — the unit of
/// work behind `ForEachCanonicalMappingChunk`.
class PartitionWalker {
 public:
  PartitionWalker(const CwDatabase& lb, const MappingVisitor* visit,
                  uint64_t budget = 0,
                  std::vector<MappingRange>* remainder = nullptr)
      : lb_(lb),
        visit_(visit),
        budget_(budget),
        remainder_(remainder),
        n_(lb.num_constants()),
        h_(n_, 0) {}

  /// Walks the whole space.
  uint64_t Run() {
    if (n_ == 0) return 0;
    Recurse(0);
    return count_;
  }

  /// Walks the completions of `prefix`. The prefix must be a valid
  /// NE-avoiding restricted-growth string over the first
  /// `prefix.size()` constants (as produced by
  /// `SplitCanonicalMappingSpace`).
  uint64_t RunFrom(const std::vector<ConstId>& prefix) {
    if (n_ == 0) return 0;
    assert(prefix.size() <= n_);
    rgs_ = prefix;
    for (ConstId i = 0; i < prefix.size(); ++i) {
      const ConstId block = prefix[i];
      assert(block <= blocks_.size());
      if (block == blocks_.size()) {
        blocks_.push_back({i});
      } else {
        blocks_[block].push_back(i);
      }
      h_[i] = blocks_[block][0];
    }
    Recurse(static_cast<ConstId>(prefix.size()));
    return count_;
  }

 private:
  /// Returns false when the walk should stop (visitor abort or budget).
  bool Recurse(ConstId i) {
    if (i == n_) {
      ++count_;
      if (visit_ != nullptr && !(*visit_)(h_)) {
        visitor_stopped_ = true;
        return false;
      }
      if (budget_ != 0 && count_ >= budget_) return false;
      return true;
    }
    // Index-based iteration: deeper recursion levels push/pop blocks on the
    // same vector, so references and iterators into it do not survive the
    // recursive call. The push/pop pairs are balanced, so `blocks_[bi]` is
    // valid again once the call returns. `bi == num_existing` is the
    // open-a-new-block branch.
    bool cont = true;
    const size_t num_existing = blocks_.size();
    for (size_t bi = 0; bi <= num_existing; ++bi) {
      bool conflict = false;
      if (bi < num_existing) {
        for (ConstId member : blocks_[bi]) {
          if (lb_.AreDistinct(member, i)) {
            conflict = true;
            break;
          }
        }
      }
      if (conflict) continue;
      if (!cont) {
        // The budget ran out somewhere below an earlier sibling: donate
        // this untaken branch as a range instead of walking it.
        if (!visitor_stopped_ && remainder_ != nullptr) {
          MappingRange rest;
          rest.rgs = rgs_;
          rest.rgs.push_back(static_cast<ConstId>(bi));
          remainder_->push_back(std::move(rest));
        }
        continue;
      }
      if (bi < num_existing) {
        blocks_[bi].push_back(i);
        h_[i] = blocks_[bi][0];
      } else {
        blocks_.push_back({i});
        h_[i] = i;
      }
      rgs_.push_back(static_cast<ConstId>(bi));
      cont = Recurse(i + 1);
      rgs_.pop_back();
      if (bi < num_existing) {
        blocks_[bi].pop_back();
      } else {
        blocks_.pop_back();
      }
    }
    return cont;
  }

  const CwDatabase& lb_;
  const MappingVisitor* visit_;
  const uint64_t budget_;
  std::vector<MappingRange>* remainder_;
  const ConstId n_;
  ConstMapping h_;
  std::vector<ConstId> rgs_;
  std::vector<std::vector<ConstId>> blocks_;
  uint64_t count_ = 0;
  bool visitor_stopped_ = false;
};

}  // namespace

std::vector<MappingRange> SplitCanonicalMappingSpace(const CwDatabase& lb,
                                                     size_t min_ranges) {
  const ConstId n = static_cast<ConstId>(lb.num_constants());
  if (n == 0) return {};
  std::vector<MappingRange> ranges = {MappingRange{}};
  // Deepen the shared prefix one constant at a time: each round replaces
  // every prefix of depth d with its valid depth-(d+1) children — the same
  // join-or-open-block step the walker takes, so the children partition
  // the parent exactly.
  for (ConstId depth = 0; depth < n && ranges.size() < min_ranges; ++depth) {
    std::vector<MappingRange> next;
    next.reserve(ranges.size() * 2);
    for (const MappingRange& range : ranges) {
      // Reconstruct the block membership of this prefix.
      std::vector<std::vector<ConstId>> blocks;
      for (ConstId i = 0; i < range.rgs.size(); ++i) {
        if (range.rgs[i] == blocks.size()) blocks.push_back({});
        blocks[range.rgs[i]].push_back(i);
      }
      const ConstId c = depth;  // the constant being assigned this round
      for (ConstId bi = 0; bi <= blocks.size(); ++bi) {
        bool conflict = false;
        if (bi < blocks.size()) {
          for (ConstId member : blocks[bi]) {
            if (lb.AreDistinct(member, c)) {
              conflict = true;
              break;
            }
          }
        }
        if (conflict) continue;
        MappingRange child = range;
        child.rgs.push_back(bi);
        next.push_back(std::move(child));
      }
    }
    ranges = std::move(next);
  }
  return ranges;
}

uint64_t ForEachCanonicalMappingChunk(const CwDatabase& lb,
                                      const MappingRange& range,
                                      uint64_t budget,
                                      const MappingVisitor& visit,
                                      std::vector<MappingRange>* remainder) {
  PartitionWalker walker(lb, &visit, budget, remainder);
  return walker.RunFrom(range.rgs);
}

uint64_t ForEachCanonicalMapping(const CwDatabase& lb,
                                 const MappingVisitor& visit) {
  PartitionWalker walker(lb, &visit);
  return walker.Run();
}

uint64_t CountCanonicalMappings(const CwDatabase& lb) {
  PartitionWalker walker(lb, nullptr);
  return walker.Run();
}

uint64_t ForEachMapping(const CwDatabase& lb, const MappingVisitor& visit) {
  const size_t n = lb.num_constants();
  if (n == 0) return 0;
  // Hoist the uniqueness pairs out of the |C|^|C| loop.
  const std::vector<std::pair<ConstId, ConstId>> pairs =
      lb.AllDistinctPairs();
  ConstMapping h(n, 0);
  uint64_t visited = 0;
  while (true) {
    bool respects = true;
    for (const auto& [a, b] : pairs) {
      if (h[a] == h[b]) {
        respects = false;
        break;
      }
    }
    if (respects) {
      ++visited;
      if (!visit(h)) return visited;
    }
    // Odometer increment over C^C.
    size_t pos = 0;
    while (pos < n && ++h[pos] == n) {
      h[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return visited;
}

}  // namespace lqdb
