#ifndef LQDB_EVAL_KERNEL_MEMO_H_
#define LQDB_EVAL_KERNEL_MEMO_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/relational/tuple.h"
#include "lqdb/util/annotations.h"

namespace lqdb {

/// Kernel-class verdict memoization for the Theorem 1 sweeps.
///
/// Each mapping `h : C → C` determines an image database up to the
/// *partition* of `C` into merge classes (the kernel of `h`); but for a
/// fixed query the verdict of a candidate under `h` depends on even less.
/// Two mappings yield isomorphic images — with the query constants
/// interpreted compatibly — whenever their kernel blocks can be matched so
/// that corresponding blocks (1) contain exactly the same *query-relevant*
/// constants and (2) contain the same number of constants from each
/// *interchangeability class* of the remaining constants, where `a ~ b`
/// iff the transposition `(a b)` maps the fact set onto itself. Isomorphic
/// images give identical verdicts to correspondingly relabeled candidates,
/// so signature-equivalent mappings are evaluated once and their verdicts
/// reused — including across the non-canonical mappings of the brute
/// engine, whose enumeration is exponentially redundant in exactly this
/// sense.
///
/// Note the naive signature — "restriction of the kernel to query constants
/// plus block sizes" — is UNSOUND: with facts `P(c), Q(d)` and a spare
/// constant `e`, the partitions `{c,d},{e}` and `{c,e},{d}` agree on block
/// sizes and on the (empty) query-constant restriction, yet merge different
/// facts. Interchangeability classes are what make block shapes
/// transferable: a block may be summarized by *how many* constants it takes
/// from a class only when any member of the class could stand in for any
/// other. Constants that appear in no fact always form one big class (any
/// permutation of them fixes the facts), which is where the compression
/// comes from on sparse databases.
///
/// The known/unknown split and the explicit distinct pairs are deliberately
/// *not* part of the signature: uniqueness axioms only gate which mappings
/// are enumerated, never the structure of an image, and every memoized
/// verdict is keyed under mappings the enumeration actually visited.

/// Counters of one memoized sweep (monotone per `KernelMemo`).
struct KernelMemoCounters {
  /// Candidate verdicts served from the table / computed fresh.
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;
  /// Mappings whose swept candidates all hit, so the image database was
  /// never even built.
  uint64_t images_skipped = 0;
  /// Distinct signatures interned.
  uint64_t signatures = 0;

  KernelMemoCounters& operator+=(const KernelMemoCounters& o) {
    row_hits += o.row_hits;
    row_misses += o.row_misses;
    images_skipped += o.images_skipped;
    signatures += o.signatures;
    return *this;
  }
};

/// Reusable per-thread buffers for `KernelSignatureContext::SignatureOf`.
struct KernelSignatureScratch {
  /// The encoded signature of the most recent mapping.
  std::string sig;
  /// image value → rank of its block in the signature's canonical block
  /// order; relabeling candidate rows through this makes rows comparable
  /// across signature-equivalent mappings.
  std::vector<Value> relabel;

  // Internal scratch.
  std::vector<int32_t> block_of_value;
  std::vector<Value> value_of_block;
  std::vector<std::vector<int32_t>> blocks;
  std::vector<uint32_t> order;
};

/// Immutable per-(database, query) signature machinery: assigns every
/// constant a code — a unique negative code for each *pinned* constant (the
/// ones the query body mentions, whose identity the verdict may depend on)
/// and a shared class id for every interchangeability class of the rest —
/// and turns a mapping into the canonical multiset-of-blocks encoding
/// described above. Safe to share across threads once constructed.
class KernelSignatureContext {
 public:
  /// Transposition checks are budgeted by fact-tuple visits; on exhaustion
  /// the remaining unclassified constants become singleton classes, which
  /// is sound (signatures just discriminate more, so the memo hits less).
  static constexpr uint64_t kDefaultWorkBudget = 4'000'000;

  KernelSignatureContext(const CwDatabase& lb,
                         const std::vector<ConstId>& pinned,
                         uint64_t work_budget = kDefaultWorkBudget);

  /// Number of interchangeability classes among the unpinned constants.
  size_t num_classes() const { return num_classes_; }

  /// Fills `s->sig` (the signature) and `s->relabel` (image value → block
  /// rank) for `h`, which must map the full constant space `[0, n)`.
  void SignatureOf(const ConstMapping& h, KernelSignatureScratch* s) const;

  /// The code of one constant (negative: pinned; else its class id).
  int32_t code_of(ConstId c) const { return code_of_[c]; }

 private:
  std::vector<int32_t> code_of_;
  size_t num_classes_ = 0;
};

/// A concurrent (signature, relabeled candidate row) → verdict table,
/// shared by every worker of one engine call. Reads are lock-free (the
/// sweep's workers look up rows for every mapping); writes
/// serialize on a mutex and publish append-only nodes with release stores,
/// so the table never moves or frees a node while readers walk it. The
/// table saturates at `max_entries` (stops inserting, never evicts): a
/// degenerate workload cannot balloon memory, only lose hits.
class KernelMemo {
 public:
  static constexpr size_t kDefaultMaxEntries = size_t{1} << 22;

  explicit KernelMemo(bool enabled,
                      size_t max_entries = kDefaultMaxEntries);

  bool enabled() const { return enabled_; }

  /// Interns a signature, returning its dense id.
  uint32_t InternSignature(const std::string& sig);

  /// Verdict of a relabeled row under a signature: 1 (true), 0 (false) or
  /// -1 (unknown). Lock-free.
  int LookupRow(uint32_t sig_id, const Value* row, size_t arity) const;

  /// Records a verdict (first writer wins; duplicates are dropped).
  void InsertRow(uint32_t sig_id, const Value* row, size_t arity,
                 bool verdict);

  void CountLookups(uint64_t hits, uint64_t misses) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    misses_.fetch_add(misses, std::memory_order_relaxed);
  }
  void CountImageSkipped() {
    images_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  KernelMemoCounters counters() const;

 private:
  struct Node {
    Node* next;
    uint64_t hash;
    uint32_t sig_id;
    uint32_t arity;
    bool verdict;
    std::vector<Value> row;
  };

  static uint64_t HashRow(uint32_t sig_id, const Value* row, size_t arity);

  static constexpr size_t kBuckets = size_t{1} << 14;  // power of two

  bool enabled_;
  size_t max_entries_;
  /// Deliberately unguarded: bucket heads are read lock-free with acquire
  /// loads; only the publishing store (under `write_mu_`) writes them.
  std::vector<std::atomic<Node*>> buckets_;

  mutable Mutex write_mu_;
  /// Stable addresses; grows under `write_mu_` only, but published nodes
  /// are read lock-free through `buckets_`.
  std::deque<Node> nodes_ GUARDED_BY(write_mu_);
  std::atomic<size_t> size_{0};

  mutable Mutex sig_mu_;
  std::unordered_map<std::string, uint32_t> sig_ids_ GUARDED_BY(sig_mu_);

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> images_skipped_{0};
};

}  // namespace lqdb

#endif  // LQDB_EVAL_KERNEL_MEMO_H_
