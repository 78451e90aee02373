#ifndef LQDB_RELATIONAL_TUPLE_H_
#define LQDB_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace lqdb {

/// A domain element of a finite interpretation. By convention, values are
/// drawn from the constant-id space of the governing `Vocabulary` (the
/// paper's constructions Ph₁/Ph₂ take the domain to be the set `C` of
/// constant symbols, and quotient images map constants to constants), but
/// any dense uint32 id works.
using Value = uint32_t;

/// A database tuple: a fixed-length vector of domain values.
using Tuple = std::vector<Value>;

/// The one row hash, FNV-1a over the value words: `HashValues` hashes a
/// span from `kHashSeed`, and `HashStep` folds in one value, for callers
/// that hash values in place (a `JoinIndex` row's key columns) and must
/// match `HashValues` over the same values in order.
constexpr uint64_t kHashSeed = 1469598103934665603ull;

inline uint64_t HashStep(uint64_t h, Value v) {
  return (h ^ v) * 1099511628211ull;
}

inline uint64_t HashValues(const Value* v, size_t n) {
  uint64_t h = kHashSeed;
  for (size_t i = 0; i < n; ++i) h = HashStep(h, v[i]);
  return h;
}

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    return HashValues(t.data(), t.size());
  }
};

/// Renders a tuple as `(a, b, c)` using `name(value)` for each component.
std::string TupleToString(const Tuple& t,
                          const std::function<std::string(Value)>& name);

}  // namespace lqdb

#endif  // LQDB_RELATIONAL_TUPLE_H_
