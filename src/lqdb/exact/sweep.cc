#include "lqdb/exact/sweep.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "lqdb/cwdb/ph.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/brute.h"
#include "lqdb/ra/executor.h"
#include "lqdb/util/annotations.h"
#include "lqdb/util/thread_pool.h"

namespace lqdb {

namespace {

/// The work-stealing walk seeds its queue with about this many ranges per
/// worker; more ranges smooth startup at slightly more split cost.
constexpr size_t kRangesPerThread = 8;

Status BudgetExceeded(uint64_t max_mappings) {
  return Status::ResourceExhausted("exceeded max_mappings = " +
                                   std::to_string(max_mappings));
}

/// One sweep's kernel memo: the verdict table and the query's signature
/// context. Every worker shares both — table reads are lock-free and the
/// context is immutable after construction — and brings its own scratch.
/// Unless `ExactOptions::memo` forces it, the memo is on exactly for the
/// Tarskian check, the one whose full hit skips building an image.
struct KernelMemoState {
  explicit KernelMemoState(const SweepSpec& spec)
      : memo(spec.options->memo.value_or(spec.plan == nullptr)) {
    if (memo.enabled()) ctx.emplace(*spec.lb, spec.bound->constants());
  }

  KernelMemo memo;
  std::optional<KernelSignatureContext> ctx;
};

/// One worker's per-image check plus the scratch it reuses for every
/// mapping it examines, so the steady state allocates nothing.
class Checker {
 public:
  /// `ph1` is the shared `Ph₁(LB)` the compiled check reads (null for the
  /// Tarskian check).
  Checker(const SweepSpec& spec, const PhysicalDatabase* ph1,
          KernelMemoState* memo)
      : spec_(spec),
        memo_(memo->memo.enabled() ? memo : nullptr),
        image_(&spec.lb->vocab()),
        eval_(&image_),
        exec_(ph1) {}

  // A worker thread holds the address, and `eval_` points into `image_`.
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Sets `verdicts()[k]` to whether candidate `candidates[subset[k]]`
  /// (`candidates[k]` for a null `subset`) holds in the image of `h`.
  /// Without the kernel memo every candidate is checked in the image
  /// directly. With it, the memo step serves what it can from the memo — a
  /// full hit skips the image entirely — and checks only the misses, whose
  /// verdicts it records. A memo-served verdict is still *this* `h`'s
  /// verdict: its image is isomorphic to the one the verdict came from.
  Status Check(const ConstMapping& h, const std::vector<Tuple>& candidates,
               const uint32_t* subset, size_t count) {
    const size_t arity = spec_.bound->arity();
    auto candidate = [&](size_t k) -> const Tuple& {
      return candidates[subset == nullptr ? k : subset[k]];
    };
    if (memo_ == nullptr) {
      rows_.resize(count * arity);
      for (size_t k = 0; k < count; ++k) {
        const Tuple& c = candidate(k);
        for (size_t i = 0; i < arity; ++i) rows_[k * arity + i] = h[c[i]];
      }
      return CheckImage(h, count, &verdicts_);
    }
    KernelMemo& memo = memo_->memo;
    memo_->ctx->SignatureOf(h, &sig_);
    const uint32_t sig_id = memo.InternSignature(sig_.sig);
    verdicts_.resize(count);
    keys_.resize(count * arity);
    miss_.clear();
    for (size_t k = 0; k < count; ++k) {
      const Tuple& c = candidate(k);
      Value* key = keys_.data() + k * arity;
      for (size_t i = 0; i < arity; ++i) key[i] = sig_.relabel[h[c[i]]];
      const int verdict = memo.LookupRow(sig_id, key, arity);
      if (verdict < 0) {
        miss_.push_back(static_cast<uint32_t>(k));
      } else {
        verdicts_[k] = static_cast<char>(verdict);
      }
    }
    memo.CountLookups(count - miss_.size(), miss_.size());
    if (miss_.empty()) {
      memo.CountImageSkipped();
      return Status::OK();
    }
    rows_.resize(miss_.size() * arity);
    for (size_t j = 0; j < miss_.size(); ++j) {
      const Tuple& c = candidate(miss_[j]);
      for (size_t i = 0; i < arity; ++i) rows_[j * arity + i] = h[c[i]];
    }
    LQDB_RETURN_IF_ERROR(CheckImage(h, miss_.size(), &miss_verdicts_));
    for (size_t j = 0; j < miss_.size(); ++j) {
      const uint32_t k = miss_[j];
      const bool verdict = miss_verdicts_[j] != 0;
      verdicts_[k] = static_cast<char>(verdict);
      memo.InsertRow(sig_id, keys_.data() + k * arity, arity, verdict);
    }
    return Status::OK();
  }

  const std::vector<char>& verdicts() const { return verdicts_; }

  /// The work-stealing walk's per-mapping snapshot of the open candidates.
  std::vector<uint32_t> open;

 private:
  /// The per-image check proper over the `count` mapped rows in `rows_`.
  Status CheckImage(const ConstMapping& h, size_t count,
                    std::vector<char>* verdicts) {
    if (spec_.plan == nullptr) {
      ApplyMappingInto(*spec_.lb, h, &image_);
      return eval_.SatisfiesBatch(*spec_.bound, rows_.data(), count,
                                  verdicts);
    }
    // Binding only the rows to check is sound: the semijoin contract
    // answers membership for exactly the rows in the parameter set.
    exec_.ReadThrough(&h);
    if (spec_.plan->param != nullptr) {
      exec_.BindParam(spec_.plan->param.get(), rows_.data(), count);
    }
    Result<const RaTableView*> table = exec_.ExecuteView(spec_.plan->plan);
    if (!table.ok()) return table.status();
    const size_t arity = spec_.bound->arity();
    verdicts->resize(count);
    for (size_t k = 0; k < count; ++k) {
      (*verdicts)[k] =
          static_cast<char>((*table)->rows.Contains(rows_.data() + k * arity));
    }
    return Status::OK();
  }

  const SweepSpec& spec_;
  KernelMemoState* memo_;  // null with the memo off
  PhysicalDatabase image_;  // Tarskian check: the current mapping's image
  Evaluator eval_;
  RaExecutor exec_;  // compiled check: reads Ph₁(LB) through the mapping
  KernelSignatureScratch sig_;
  std::vector<Value> keys_;     // relabeled memo-key rows, count × arity
  std::vector<Value> rows_;     // mapped rows the image check evaluates
  std::vector<uint32_t> miss_;  // sweep positions the memo could not serve
  std::vector<char> verdicts_;
  std::vector<char> miss_verdicts_;
};

/// The in-order walk — every function (brute), or the canonical mappings
/// in `ForEachCanonicalMapping` order at `threads == 1` — over one checker,
/// compacting the open candidates after every mapping.
Status WalkInOrder(const SweepSpec& spec, Checker* checker,
                   std::vector<Tuple> open, SweepResult* out) {
  const uint64_t max_mappings = spec.options->max_mappings;
  Status error = Status::OK();
  const MappingVisitor visit = [&](const ConstMapping& h) {
    if (++out->mappings > max_mappings) {
      error = BudgetExceeded(max_mappings);
      return false;
    }
    Status s = checker->Check(h, open, nullptr, open.size());
    if (!s.ok()) {
      error = std::move(s);
      return false;
    }
    size_t kept = 0;
    for (size_t k = 0; k < open.size(); ++k) {
      if ((checker->verdicts()[k] != 0) == spec.possible) {  // h decides k
        if (spec.possible) out->answer.Insert(std::move(open[k]));
      } else {
        if (kept != k) open[kept] = std::move(open[k]);
        ++kept;
      }
    }
    open.resize(kept);
    if (!open.empty()) return true;
    out->decisive = h;
    return false;  // nothing left to decide
  };
  if (spec.source == MappingSource::kAllFunctions) {
    ForEachMapping(*spec.lb, visit);
  } else {
    ForEachCanonicalMapping(*spec.lb, visit);
  }
  if (!spec.possible) {
    for (Tuple& t : open) out->answer.Insert(std::move(t));
  }
  return error;
}

/// Shared coordination state of one work-stealing fan-out: the range
/// queue, the cooperative stop flag, the global mapping budget, and the
/// first error.
///
/// Scheduling: `SplitCanonicalMappingSpace` partitions the kernel-partition
/// space by restricted-growth-string prefix into independent ranges that
/// seed the queue; a worker takes the largest remaining range (shallowest
/// RGS prefix — it covers the most partitions), walks at most
/// `steal_chunk` mappings of it with `ForEachCanonicalMappingChunk`, and
/// pushes the unvisited remainder back for idle workers to steal — so a
/// skewed space (one giant kernel class under a single prefix) spreads
/// across the pool instead of serializing on whoever drew the fat range.
/// Idle workers block on the queue's condition variable; the fan-out ends
/// when the queue is empty with no worker mid-chunk, or when the stop flag
/// rises.
class Walk {
 public:
  Walk(const CwDatabase& lb, const ExactOptions& options, ThreadPool* pool)
      : lb_(lb), options_(options), pool_(pool) {
    queue_ = SplitCanonicalMappingSpace(
        lb, static_cast<size_t>(pool->num_threads()) * kRangesPerThread);
    worker_ranges_.assign(pool->num_threads(), 0);
  }

  /// Runs `per_mapping(h, worker)` over every canonical mapping, fanned
  /// across the pool; `per_mapping` returns false to abort the whole walk
  /// (it should call `Stop()` or `RecordError()` first so other workers
  /// stand down). Blocks until all workers finish.
  template <typename PerMapping>
  void Run(const PerMapping& per_mapping) {
    pool_->FanOut([this, &per_mapping](int w) { Worker(w, per_mapping); });
  }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    // Empty critical section: a waiter either sees the flag before
    // sleeping or is woken by the notify below (no lost wakeup).
    { MutexLock lock(queue_mu_); }
    queue_cv_.NotifyAll();
  }
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  void RecordError(Status error) {
    {
      MutexLock lock(mu_);
      if (error_.ok()) error_ = std::move(error);
    }
    Stop();
  }

  /// Valid after Run() returned: the fan-out's join is the happens-before
  /// edge that makes this lock-free read safe, which the static analysis
  /// cannot see — hence the exemption.
  const Status& error() const NO_THREAD_SAFETY_ANALYSIS { return error_; }
  uint64_t examined() const {
    return examined_.load(std::memory_order_relaxed);
  }
  const std::vector<uint64_t>& worker_ranges() const {
    return worker_ranges_;
  }

 private:
  template <typename PerMapping>
  void Worker(int index, const PerMapping& per_mapping) {
    std::vector<MappingRange> remainder;
    const uint64_t chunk = std::max<uint64_t>(1, options_.steal_chunk);

    MutexLock lock(queue_mu_);
    while (true) {
      while (!stopped() && queue_.empty() && walking_ != 0) {
        queue_cv_.Wait(queue_mu_, lock);
      }
      if (stopped() || queue_.empty()) break;  // done or nothing left

      // Steal the largest remaining range: the shallowest RGS prefix
      // covers the most partitions, so the fattest work moves first.
      size_t best = 0;
      for (size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].rgs.size() < queue_[best].rgs.size()) best = i;
      }
      MappingRange range = std::move(queue_[best]);
      queue_[best] = std::move(queue_.back());
      queue_.pop_back();
      ++walking_;
      lock.Unlock();

      remainder.clear();
      ForEachCanonicalMappingChunk(
          lb_, range, chunk,
          [&](const ConstMapping& h) {
            if (stopped()) return false;
            const uint64_t seen =
                examined_.fetch_add(1, std::memory_order_relaxed) + 1;
            if (seen > options_.max_mappings) {
              RecordError(BudgetExceeded(options_.max_mappings));
              return false;
            }
            return per_mapping(h, index);
          },
          &remainder);
      ++worker_ranges_[index];

      lock.Lock();
      --walking_;
      if (stopped()) break;
      if (!remainder.empty()) {
        for (MappingRange& r : remainder) queue_.push_back(std::move(r));
        queue_cv_.NotifyAll();
      } else if (queue_.empty() && walking_ == 0) {
        queue_cv_.NotifyAll();  // wake idlers so they can exit
      }
    }
  }

  const CwDatabase& lb_;
  const ExactOptions& options_;
  ThreadPool* pool_;
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::vector<MappingRange> queue_ GUARDED_BY(queue_mu_);
  size_t walking_ GUARDED_BY(queue_mu_) = 0;  // workers currently mid-chunk
  /// Indexed per worker, each slot written by exactly one worker — no
  /// guard needed (readers wait for the fan-out's join).
  std::vector<uint64_t> worker_ranges_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> examined_{0};
  Mutex mu_;
  Status error_ GUARDED_BY(mu_);
};

/// The work-stealing walk at `threads != 1`: one checker per worker, the
/// open candidates published through atomic per-candidate flags, and a
/// cooperative stop once the last candidate is decided.
Status WalkStolen(const SweepSpec& spec, std::deque<Checker>* checkers,
                  const std::vector<Tuple>& candidates, SweepResult* out) {
  // `open[i]` is 1 while candidate i is undecided; `remaining` counts open
  // candidates so the last decision can stop every worker.
  const size_t n = candidates.size();
  std::unique_ptr<std::atomic<uint8_t>[]> open(new std::atomic<uint8_t>[n]);
  for (size_t i = 0; i < n; ++i) open[i].store(1, std::memory_order_relaxed);
  std::atomic<size_t> remaining{n};
  std::atomic<bool> all_decided{n == 0};
  ConstMapping decisive;  // written once, by the worker deciding the last

  Walk walk(*spec.lb, *spec.options, spec.pool);
  walk.Run([&](const ConstMapping& h, int w) {
    Checker& checker = (*checkers)[w];
    checker.open.clear();
    for (uint32_t i = 0; i < n; ++i) {
      if (open[i].load(std::memory_order_relaxed) != 0) {
        checker.open.push_back(i);
      }
    }
    if (checker.open.empty()) return true;  // raced with the last decision
    Status s = checker.Check(h, candidates, checker.open.data(),
                             checker.open.size());
    if (!s.ok()) {
      walk.RecordError(std::move(s));
      return false;
    }
    for (size_t k = 0; k < checker.open.size(); ++k) {
      if ((checker.verdicts()[k] != 0) != spec.possible) continue;
      const uint32_t i = checker.open[k];
      if (open[i].exchange(0, std::memory_order_relaxed) == 1 &&
          remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
        decisive = h;
        all_decided.store(true, std::memory_order_relaxed);
        walk.Stop();  // every candidate decided — nothing left to learn
        return false;
      }
    }
    return true;
  });
  out->mappings = walk.examined();
  out->worker_ranges = walk.worker_ranges();
  for (size_t i = 0; i < n; ++i) {
    const bool undecided = open[i].load(std::memory_order_relaxed) == 1;
    if (undecided != spec.possible) out->answer.Insert(candidates[i]);
  }
  if (!all_decided.load()) return walk.error();
  out->decisive = std::move(decisive);
  return Status::OK();
}

}  // namespace

Status RunSweep(const SweepSpec& spec, std::vector<Tuple> candidates,
                SweepResult* out) {
  const CwDatabase& lb = *spec.lb;
  out->answer = Relation(static_cast<int>(spec.bound->arity()));
  if (spec.source == MappingSource::kAllFunctions) {
    const uint64_t n = lb.num_constants();
    if (SaturatingPower(n, n) > spec.options->max_mappings) {
      return Status::ResourceExhausted(
          "|C|^|C| exceeds max_mappings; use ExactEvaluator");
    }
  }
  KernelMemoState memo(spec);
  // The compiled check reads one shared Ph₁(LB) through each mapping.
  std::optional<PhysicalDatabase> ph1;
  if (spec.plan != nullptr) ph1.emplace(MakePh1(lb));
  const PhysicalDatabase* ph1_ptr = ph1 ? &*ph1 : nullptr;
  // Checkers are neither copyable nor movable; a deque builds them in
  // place.
  std::deque<Checker> checkers;
  Status status = Status::OK();
  if (spec.pool == nullptr || spec.source == MappingSource::kAllFunctions) {
    checkers.emplace_back(spec, ph1_ptr, &memo);
    status = WalkInOrder(spec, &checkers.front(), std::move(candidates), out);
  } else {
    for (int w = 0; w < spec.pool->num_threads(); ++w) {
      checkers.emplace_back(spec, ph1_ptr, &memo);
    }
    status = WalkStolen(spec, &checkers, candidates, out);
  }
  out->memo = memo.memo.counters();
  return status;
}

}  // namespace lqdb
