// Seeded inputs of the lqdb benchmark: the world (as `.lqdb` text) and
// each client's fixed operation sequence. Everything here is the
// benchmark's own code, so a library change cannot move the inputs on one
// side of a before/after pair.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a small, fully specified generator, so the inputs of a seed
/// never depend on a standard-library implementation.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// One stored fact, by name.
struct Fact {
  std::string pred;
  std::vector<std::string> args;
};

enum class OpKind { kCertain, kPossible, kAssert, kRetract };

/// One client operation.
struct Op {
  OpKind kind = OpKind::kCertain;
  /// Query text (queries only).
  std::string text;
  /// Template name and whether its head is binary (queries only).
  std::string shape;
  bool binary_head = false;
  /// The query follows this client's own update and reads the updated
  /// relation: its return closes a read-your-write (`fresh`) sample.
  bool after_update = false;
};

/// One world of a workload and the op sequences run against it.
struct Variant {
  /// The world, exactly as the program receives it.
  std::string world_text;
  /// One op sequence per client thread.
  std::vector<std::vector<Op>> clients;
  /// Texts prepared, and executed once, during set-up (service-mix): the
  /// shared pool the clients draw from.
  std::vector<Op> pool;
  /// `owned[c]` is the fact client c toggles; absent from the world text
  /// initially. Empty on workloads without updates.
  std::vector<Fact> owned;
};

/// A workload: several seeded worlds of one shape, each with its own op
/// sequences. A run replays them all, in whole cycles, so that a run's
/// figures average over several worlds rather than hinge on one.
struct Workload {
  std::string name;
  /// `ServiceOptions::threads`.
  int service_threads = 1;
  /// Synchronous `Prepare`+`Execute` (sweeps) or `ExecuteAsync().get()`.
  bool async = false;
  std::vector<Variant> variants;
};

/// A query that ends after one mapping (its answer is empty on every
/// image), run by each session during set-up so that the lazily built
/// engine exists before timing starts.
inline constexpr char kWarmupQuery[] = "(x) . P0(x) & !P0(x)";

/// The workload names.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload for `seed`; nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// `pred(a, b)` — the key the checker and the tracer use for a fact.
std::string FactText(const Fact& fact);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
