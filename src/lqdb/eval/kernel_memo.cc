#include "lqdb/eval/kernel_memo.h"

#include <algorithm>

namespace lqdb {

namespace {

/// Whether the transposition `(a b)` maps the fact set onto itself. Scans
/// every fact once, charging the budget per tuple visited; `*exhausted`
/// rises (and the check conservatively fails) when the budget runs dry.
bool SwapIsAutomorphism(const CwDatabase& lb,
                        const std::vector<PredId>& preds, ConstId a,
                        ConstId b, uint64_t* budget, bool* exhausted) {
  Tuple swapped;
  for (PredId p : preds) {
    const Relation& rel = lb.facts(p);
    for (const Tuple& t : rel.tuples()) {
      if (*budget == 0) {
        *exhausted = true;
        return false;
      }
      --*budget;
      bool touches = false;
      for (Value v : t) {
        if (v == a || v == b) {
          touches = true;
          break;
        }
      }
      if (!touches) continue;
      swapped = t;
      for (Value& v : swapped) {
        if (v == a) {
          v = b;
        } else if (v == b) {
          v = a;
        }
      }
      if (!rel.Contains(swapped)) return false;
    }
  }
  return true;
}

}  // namespace

KernelSignatureContext::KernelSignatureContext(
    const CwDatabase& lb, const std::vector<ConstId>& pinned,
    uint64_t work_budget) {
  const size_t n = lb.num_constants();
  code_of_.assign(n, 0);
  std::vector<bool> is_pinned(n, false);
  for (ConstId c : pinned) {
    if (c < n) is_pinned[c] = true;
  }

  // Cheap per-constant profile: a commutative hash over the facts the
  // constant appears in, with its own occurrences masked. Equal profiles
  // are necessary (not sufficient) for interchangeability, so profiles
  // only bucket the exact pairwise checks below — a hash collision merges
  // buckets, never classes.
  const std::vector<PredId> preds = lb.PredicatesWithFacts();
  std::vector<uint64_t> profile(n, 0);
  std::vector<uint32_t> occurrences(n, 0);
  const Value kSelf = static_cast<Value>(n);
  for (PredId p : preds) {
    for (const Tuple& t : lb.facts(p).tuples()) {
      for (size_t i = 0; i < t.size(); ++i) {
        const Value c = t[i];
        if (c >= n || is_pinned[c]) continue;
        bool seen = false;
        for (size_t j = 0; j < i; ++j) {
          if (t[j] == c) {
            seen = true;
            break;
          }
        }
        if (seen) continue;  // one profile term per (tuple, constant)
        uint64_t h = HashStep(kHashSeed, p);
        for (Value v : t) h = HashStep(h, v == c ? kSelf : v);
        profile[c] += h | 1;  // commutative; |1 keeps zero meaning "no facts"
        ++occurrences[c];
      }
    }
  }

  for (ConstId c = 0; c < n; ++c) {
    if (is_pinned[c]) code_of_[c] = -static_cast<int32_t>(c) - 1;
  }

  // Fast path: constants in no fact are mutually interchangeable (any
  // permutation of them fixes the fact set vacuously) — one class, no
  // pairwise checks. On the sparse generated worlds this is the bulk of C.
  int32_t no_fact_class = -1;
  std::unordered_map<uint64_t, std::vector<ConstId>> buckets;
  for (ConstId c = 0; c < n; ++c) {
    if (is_pinned[c]) continue;
    if (occurrences[c] == 0) {
      if (no_fact_class < 0) {
        no_fact_class = static_cast<int32_t>(num_classes_++);
      }
      code_of_[c] = no_fact_class;
    } else {
      buckets[profile[c]].push_back(c);
    }
  }

  // Within a bucket, join a constant to the first class whose
  // representative it swaps with; interchangeability is transitive (the
  // verified transpositions generate the full symmetric group on each
  // class, and fact automorphisms are closed under composition), so
  // rep-checks suffice.
  uint64_t budget = work_budget;
  bool exhausted = false;
  for (auto& [hash, members] : buckets) {
    (void)hash;
    std::sort(members.begin(), members.end());
    std::vector<std::pair<ConstId, int32_t>> reps;
    for (ConstId c : members) {
      int32_t cls = -1;
      if (!exhausted) {
        for (const auto& [rep, id] : reps) {
          if (SwapIsAutomorphism(lb, preds, c, rep, &budget, &exhausted)) {
            cls = id;
            break;
          }
          if (exhausted) break;
        }
      }
      if (cls < 0) {
        cls = static_cast<int32_t>(num_classes_++);
        reps.push_back({c, cls});
      }
      code_of_[c] = cls;
    }
  }
}

void KernelSignatureContext::SignatureOf(const ConstMapping& h,
                                         KernelSignatureScratch* s) const {
  const size_t n = code_of_.size();
  s->block_of_value.assign(n, -1);
  s->value_of_block.clear();
  size_t num_blocks = 0;
  for (ConstId c = 0; c < n; ++c) {
    const Value v = h[c];
    int32_t b = s->block_of_value[v];
    if (b < 0) {
      b = static_cast<int32_t>(num_blocks++);
      s->block_of_value[v] = b;
      s->value_of_block.push_back(v);
      if (s->blocks.size() < num_blocks) s->blocks.emplace_back();
      s->blocks[b].clear();
    }
    s->blocks[b].push_back(code_of_[c]);
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    std::sort(s->blocks[b].begin(), s->blocks[b].end());
  }
  // Canonical block order: lexicographic on the sorted member codes. Blocks
  // with equal descriptors are symmetric (their members draw from the same
  // classes in the same multiplicities), so ties may break arbitrarily.
  s->order.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    s->order[b] = static_cast<uint32_t>(b);
  }
  std::sort(s->order.begin(), s->order.end(),
            [s](uint32_t a, uint32_t b) { return s->blocks[a] < s->blocks[b]; });

  s->sig.clear();
  s->relabel.assign(n, 0);
  for (size_t rank = 0; rank < num_blocks; ++rank) {
    const uint32_t b = s->order[rank];
    const std::vector<int32_t>& codes = s->blocks[b];
    const uint32_t len = static_cast<uint32_t>(codes.size());
    s->sig.append(reinterpret_cast<const char*>(&len), sizeof(len));
    s->sig.append(reinterpret_cast<const char*>(codes.data()),
                  codes.size() * sizeof(int32_t));
    s->relabel[s->value_of_block[b]] = static_cast<Value>(rank);
  }
}

KernelMemo::KernelMemo(bool enabled, size_t max_entries)
    : enabled_(enabled),
      max_entries_(max_entries),
      buckets_(enabled ? kBuckets : 1) {
  for (auto& head : buckets_) head.store(nullptr, std::memory_order_relaxed);
}

uint32_t KernelMemo::InternSignature(const std::string& sig) {
  MutexLock lock(sig_mu_);
  auto [it, fresh] =
      sig_ids_.emplace(sig, static_cast<uint32_t>(sig_ids_.size()));
  (void)fresh;
  return it->second;
}

uint64_t KernelMemo::HashRow(uint32_t sig_id, const Value* row,
                             size_t arity) {
  uint64_t h = HashStep(kHashSeed, sig_id);
  for (size_t i = 0; i < arity; ++i) h = HashStep(h, row[i]);
  return h;
}

int KernelMemo::LookupRow(uint32_t sig_id, const Value* row,
                          size_t arity) const {
  if (!enabled_) return -1;
  const uint64_t hash = HashRow(sig_id, row, arity);
  const Node* node =
      buckets_[hash & (buckets_.size() - 1)].load(std::memory_order_acquire);
  for (; node != nullptr; node = node->next) {
    if (node->hash == hash && node->sig_id == sig_id &&
        node->arity == arity &&
        std::equal(node->row.begin(), node->row.end(), row)) {
      return node->verdict ? 1 : 0;
    }
  }
  return -1;
}

void KernelMemo::InsertRow(uint32_t sig_id, const Value* row, size_t arity,
                           bool verdict) {
  if (!enabled_) return;
  const uint64_t hash = HashRow(sig_id, row, arity);
  std::atomic<Node*>& head = buckets_[hash & (buckets_.size() - 1)];
  MutexLock lock(write_mu_);
  for (Node* node = head.load(std::memory_order_relaxed); node != nullptr;
       node = node->next) {
    if (node->hash == hash && node->sig_id == sig_id &&
        node->arity == arity &&
        std::equal(node->row.begin(), node->row.end(), row)) {
      return;  // first writer wins
    }
  }
  if (size_.load(std::memory_order_relaxed) >= max_entries_) return;
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.hash = hash;
  node.sig_id = sig_id;
  node.arity = static_cast<uint32_t>(arity);
  node.verdict = verdict;
  node.row.assign(row, row + arity);
  node.next = head.load(std::memory_order_relaxed);
  // Every field above is written before the publish, and `next` never
  // changes afterwards (nodes only prepend), so a reader that acquires the
  // head sees a fully initialized chain.
  head.store(&node, std::memory_order_release);
  size_.fetch_add(1, std::memory_order_relaxed);
}

KernelMemoCounters KernelMemo::counters() const {
  KernelMemoCounters out;
  out.row_hits = hits_.load(std::memory_order_relaxed);
  out.row_misses = misses_.load(std::memory_order_relaxed);
  out.images_skipped = images_skipped_.load(std::memory_order_relaxed);
  {
    MutexLock lock(sig_mu_);
    out.signatures = sig_ids_.size();
  }
  return out;
}

}  // namespace lqdb
