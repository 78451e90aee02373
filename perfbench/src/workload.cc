#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string FactText(const Fact& fact) {
  std::string out = fact.pred + "(";
  for (size_t i = 0; i < fact.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += fact.args[i];
  }
  return out + ")";
}

namespace {

/// The world's shape. Fact counts are exact (distinct facts, and how many
/// of them mention an unknown), and so is the number of known constants
/// that occur in any fact, so a seed moves only where facts land — never
/// how many there are, how many constants they touch (which sets how much
/// the kernel memo can compress) or how many canonical mappings the world
/// has.
struct WorldShape {
  int known = 16;
  int unknown = 2;
  /// Known constants that occur in facts; the rest occur in none.
  int active = 16;
  int unary_facts = 8;     // per unary relation P0, P1
  int unary_unknown = 1;   // of which are about an unknown
  int binary_facts = 64;   // per binary relation R0, R1 (≥ 10: the
                           // planted facts below take up to 8 of R0)
  int binary_unknown = 8;  // of which have one unknown argument
};

std::string K(int i) { return "k" + std::to_string(i); }
std::string U(int i) { return "u" + std::to_string(i); }

/// Deals cards from a shuffled deck and reshuffles when it runs out, so
/// every card comes up about equally often. The random facts draw their
/// constants from decks: every constant then has about the same number of
/// facts, and the sizes of joins, which set the cost of each image, vary
/// little from seed to seed.
class Deck {
 public:
  Deck(std::vector<std::string> cards, Rng& rng)
      : cards_(std::move(cards)), next_(cards_.size()), rng_(rng) {}

  const std::string& Deal() {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1], cards_[rng_.Below(i)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<std::string> cards_;
  size_t next_;
  Rng& rng_;
};

/// The world text plus its fact set (for the owned-fact choice).
struct World {
  std::string text;
  std::set<std::string> facts;
};

World MakeWorld(const WorldShape& shape, Rng& rng) {
  using Tuples = std::set<std::vector<std::string>>;
  std::map<std::string, Tuples> rel;
  std::vector<std::string> active;
  for (int i = 0; i < shape.known; ++i) active.push_back(K(i));
  for (size_t i = active.size(); i > 1; --i) {
    std::swap(active[i - 1], active[rng.Below(i)]);
  }
  active.resize(shape.active);
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng.Below(from.size())];
  };
  auto unknown = [&] { return U(static_cast<int>(rng.Below(shape.unknown))); };

  // Two planted copies of a chain (R0, R1, R0, with P0 on the third
  // constant) and of a 3-cycle (P0, R0, R1, P1, R0) on known constants, so
  // every positive template has answers on every seed, even on sparse
  // worlds where random facts alone often leave a chain empty.
  std::set<std::string> r0_sources;
  for (int copy = 0; copy < 2; ++copy) {
    std::vector<std::string> c;
    while (c.size() < 7) {
      std::string k = pick(active);
      if (std::find(c.begin(), c.end(), k) == c.end()) c.push_back(k);
    }
    rel["R0"].insert({c[0], c[1]});
    rel["R1"].insert({c[1], c[2]});
    rel["P0"].insert({c[2]});
    rel["R0"].insert({c[2], c[3]});
    rel["P0"].insert({c[4]});
    rel["R0"].insert({c[4], c[5]});
    rel["R1"].insert({c[5], c[6]});
    rel["P1"].insert({c[6]});
    rel["R0"].insert({c[6], c[4]});
    for (int i : {0, 2, 4, 6}) r0_sources.insert(c[i]);
  }
  // Three R0 sinks: known constants with no outgoing R0 fact. Unknowns
  // occur in R0 only as targets, so no mapping gives a sink an R0
  // successor, and the guarded-universal template keeps the sinks as
  // certain answers on every seed (its two constant filters remove at most
  // two) instead of emptying on some seeds and not on others.
  std::vector<std::string> sinks, sources;
  for (const std::string& k : active) {
    if (r0_sources.count(k) == 0 && sinks.size() < 3) {
      sinks.push_back(k);
    } else {
      sources.push_back(k);
    }
  }
  auto count_unknown = [](const Tuples& s) {
    int n = 0;
    for (const auto& t : s) {
      for (const auto& a : t) n += a[0] == 'u';
    }
    return n;
  };
  for (const char* p : {"P0", "P1"}) {
    Tuples& s = rel[p];
    Deck deck(active, rng);
    while (count_unknown(s) < shape.unary_unknown) s.insert({unknown()});
    while (static_cast<int>(s.size()) < shape.unary_facts) {
      s.insert({deck.Deal()});
    }
  }
  for (const char* r : {"R0", "R1"}) {
    const bool r0 = std::string(r) == "R0";
    Tuples& s = rel[r];
    Deck from(r0 ? sources : active, rng);
    Deck to(active, rng);
    while (count_unknown(s) < shape.binary_unknown) {
      std::vector<std::string> t = {from.Deal(), unknown()};
      if (!r0 && rng.Below(2) == 0) std::swap(t[0], t[1]);
      s.insert(t);
    }
    while (static_cast<int>(s.size()) < shape.binary_facts) {
      std::vector<std::string> t = {from.Deal(), to.Deal()};
      if (t[0] != t[1]) s.insert(t);
    }
  }

  World world;
  std::string& out = world.text;
  out += "# lqdb benchmark world\nknown";
  for (int i = 0; i < shape.known; ++i) out += " " + K(i);
  out += "\nunknown";
  for (int i = 0; i < shape.unknown; ++i) out += " " + U(i);
  out += "\npredicate P0/1\npredicate P1/1\npredicate R0/2\npredicate R1/2\n";
  for (const auto& [pred, tuples] : rel) {
    for (const auto& t : tuples) {
      const std::string fact = FactText({pred, t});
      out += "fact " + fact + "\n";
      world.facts.insert(fact);
    }
  }
  if (shape.unknown >= 2) out += "distinct u0 u1\n";
  return world;
}

/// A query template over the world schema, instantiated with two distinct
/// known constants `a` and `b` so that every instance is a new text.
struct Template {
  const char* shape;
  bool binary_head;
  /// Relations the body reads.
  std::vector<std::string> reads;
  /// Text pieces around the two constants: p0 a p1 b p2.
  const char* p0;
  const char* p1;
  const char* p2;
};

const std::vector<Template>& Templates() {
  static const std::vector<Template> kTemplates = {
      {"guard", false, {"R0", "P0"},
       "(x) . !(x = ", ") & !(x = ", ") & (forall y. R0(x, y) -> P0(y))"},
      {"chain2", false, {"R0", "R1", "P0"},
       "(x) . exists y. exists z. R0(x, y) & R1(y, z) & P0(z) & !(x = ",
       ") & !(z = ", ")"},
      {"chain3", false, {"R0", "R1"},
       "(x) . exists y. exists z. exists w. R0(x, y) & R1(y, z) & R0(z, w) "
       "& !(x = ",
       ") & !(w = ", ")"},
      {"conj5", false, {"P0", "P1", "R0", "R1"},
       "(x) . exists y. exists z. P0(x) & R0(x, y) & R1(y, z) & P1(z) & "
       "R0(z, x) & !(x = ",
       ") & !(y = ", ")"},
      {"bchain2", true, {"R0", "R1"},
       "(x, w) . exists y. R0(x, y) & R1(y, w) & !(x = ", ") & !(w = ", ")"},
      {"bchain3", true, {"R0", "R1"},
       "(x, w) . exists y. exists z. R0(x, y) & R1(y, z) & R0(z, w) & "
       "!(x = ",
       ") & !(w = ", ")"},
  };
  return kTemplates;
}

/// Hands out query instances: per template, unordered constant pairs drawn
/// without replacement, so no text repeats within a workload.
class Instantiator {
 public:
  Instantiator(int known, Rng& rng) : rng_(rng) {
    for (size_t t = 0; t < Templates().size(); ++t) {
      std::vector<std::pair<int, int>> pairs;
      for (int a = 0; a < known; ++a) {
        for (int b = a + 1; b < known; ++b) pairs.emplace_back(a, b);
      }
      bags_.push_back(std::move(pairs));
    }
  }

  Op Make(size_t t, OpKind kind) {
    const Template& tpl = Templates()[t];
    auto& bag = bags_[t];
    const size_t pick = rng_.Below(bag.size());
    auto [a, b] = bag[pick];
    bag[pick] = bag.back();
    bag.pop_back();
    if (rng_.Below(2) == 0) std::swap(a, b);
    Op op;
    op.kind = kind;
    op.text = std::string(tpl.p0) + K(a) + tpl.p1 + K(b) + tpl.p2;
    op.shape = tpl.shape;
    op.binary_head = tpl.binary_head;
    return op;
  }

 private:
  Rng& rng_;
  std::vector<std::vector<std::pair<int, int>>> bags_;
};

/// Query mix weights, in parts per template (`Templates()` order: guard,
/// chain2, chain3, conj5, bchain2, bchain3). Possible-answer queries use
/// unary heads only: a binary-head possible query sweeps all |C|²
/// candidates through every mapping (none is ever settled early), which
/// costs seconds per query on these worlds.
struct Mix {
  std::vector<int> certain;
  std::vector<int> possible;
};

/// Exactly `n` template indices in proportion to `parts` (largest
/// remainder), in seeded order: the class mix is the same on every seed.
std::vector<size_t> TemplateMix(int n, const std::vector<int>& parts,
                                Rng& rng) {
  int total = 0;
  for (int p : parts) total += p;
  std::vector<int> count(parts.size());
  std::vector<std::pair<int, size_t>> remainder;
  int given = 0;
  for (size_t t = 0; t < parts.size(); ++t) {
    count[t] = n * parts[t] / total;
    given += count[t];
    remainder.emplace_back(-(n * parts[t] % total), t);
  }
  std::sort(remainder.begin(), remainder.end());
  for (int i = 0; given < n; ++i, ++given) ++count[remainder[i].second];
  std::vector<size_t> mix;
  for (size_t t = 0; t < parts.size(); ++t) mix.insert(mix.end(), count[t], t);
  for (size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[rng.Below(i)]);
  }
  return mix;
}

/// One template index drawn in proportion to `parts`.
size_t DrawTemplate(const std::vector<int>& parts, Rng& rng) {
  int total = 0;
  for (int p : parts) total += p;
  int x = static_cast<int>(rng.Below(static_cast<uint64_t>(total)));
  for (size_t t = 0; t < parts.size(); ++t) {
    if (x < parts[t]) return t;
    x -= parts[t];
  }
  return parts.size() - 1;
}

/// `n` queries in seeded order, a quarter of them possible-answer queries.
std::vector<Op> QueryBatch(int n, const Mix& mix, Instantiator& inst,
                           Rng& rng) {
  const int n_possible = n / 4;
  std::vector<Op> ops;
  for (size_t t : TemplateMix(n - n_possible, mix.certain, rng)) {
    ops.push_back(inst.Make(t, OpKind::kCertain));
  }
  for (size_t t : TemplateMix(n_possible, mix.possible, rng)) {
    ops.push_back(inst.Make(t, OpKind::kPossible));
  }
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Below(i)]);
  }
  return ops;
}

/// The Theorem 1 sweep workloads: one synchronous client, every text new.
/// The `ops` queries (exact class counts) are dealt over `worlds` worlds.
Workload SweepWorkload(const std::string& name, const WorldShape& shape,
                       const Mix& mix, int ops, int worlds, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  w.service_threads = 1;
  w.async = false;
  for (int v = 0; v < worlds; ++v) {
    Variant variant;
    variant.world_text = MakeWorld(shape, rng).text;
    variant.clients.resize(1);
    w.variants.push_back(std::move(variant));
  }
  Instantiator inst(shape.known, rng);
  const std::vector<Op> all = QueryBatch(ops, mix, inst, rng);
  for (size_t i = 0; i < all.size(); ++i) {
    w.variants[i % w.variants.size()].clients[0].push_back(all[i]);
  }
  return w;
}

// service-mix stream parameters, per client and world. The counts are
// exact, so every seed has the same op mix: 5 toggles (each followed by a
// query that reads the toggled relation), 2 new texts and 36 pool draws,
// 48 ops in all (10% updates, 4% new texts). The stream is short so that a
// run replays it many times (see `RunPasses`).
constexpr int kPool = 40;
constexpr int kToggles = 5;
constexpr int kNewTexts = 2;
constexpr int kPoolDraws = 36;
// A milder skew than s = 1 keeps the top text under a sixth of the pool
// traffic, so no single text's cost decides a run's figures.
constexpr double kZipf = 0.8;

/// One service-mix world with its pool, owned facts and client streams.
Variant ServiceMixVariant(const WorldShape& shape, const Mix& mix, Rng& rng) {
  Variant v;
  const World world = MakeWorld(shape, rng);
  v.world_text = world.text;
  Instantiator inst(shape.known, rng);
  // The pool in Zipf rank order. Ranks go to (template, mode) classes
  // greedily, each to the class furthest below its target share of the
  // Zipf mass, so the class mix of the stream is the same on every seed;
  // only the constants in the texts vary.
  std::vector<std::pair<size_t, OpKind>> classes;
  std::vector<double> target;
  double parts = 0;
  for (int p : mix.certain) parts += p;
  for (size_t t = 0; t < mix.certain.size(); ++t) {
    classes.emplace_back(t, OpKind::kCertain);
    target.push_back(0.75 * mix.certain[t] / parts);
  }
  parts = 0;
  for (int p : mix.possible) parts += p;
  for (size_t t = 0; t < mix.possible.size(); ++t) {
    classes.emplace_back(t, OpKind::kPossible);
    target.push_back(0.25 * mix.possible[t] / parts);
  }
  std::vector<double> mass(classes.size(), 0.0);
  double cum = 0;
  for (int r = 0; r < kPool; ++r) {
    const double z = 1.0 / std::pow(r + 1, kZipf);
    cum += z;
    size_t best = 0;
    for (size_t k = 1; k < classes.size(); ++k) {
      if (target[k] * cum - mass[k] > target[best] * cum - mass[best]) best = k;
    }
    mass[best] += z;
    v.pool.push_back(inst.Make(classes[best].first, classes[best].second));
  }

  // Each client owns one absent fact: client 0 in R0, client 1 in R1. The
  // R0 fact leaves the R0 sinks alone (its source is an R0 source).
  std::set<std::string> r0_sources;
  for (const std::string& f : world.facts) {
    if (f.rfind("R0(", 0) == 0) r0_sources.insert(f.substr(3, f.find(',') - 3));
  }
  for (const char* r : {"R0", "R1"}) {
    Fact f;
    do {
      f = {r, {K(static_cast<int>(rng.Below(shape.known))),
               K(static_cast<int>(rng.Below(shape.known)))}};
    } while (f.args[0] == f.args[1] || world.facts.count(FactText(f)) > 0 ||
             (f.pred == "R0" && r0_sources.count(f.args[0]) == 0));
    v.owned.push_back(f);
  }

  auto weight = [&](size_t rank) { return 1.0 / std::pow(rank + 1, kZipf); };
  // Zipf over the pool's seeded order, restricted to `among`.
  auto zipf = [&](const std::vector<size_t>& among) {
    double sum = 0;
    for (size_t i : among) sum += weight(i);
    double x = rng.Unit() * sum;
    for (size_t i : among) {
      x -= weight(i);
      if (x <= 0) return i;
    }
    return among.back();
  };
  std::vector<size_t> all(kPool);
  for (int i = 0; i < kPool; ++i) all[i] = i;
  for (size_t c = 0; c < v.owned.size(); ++c) {
    std::vector<size_t> readers;
    for (size_t i = 0; i < v.pool.size(); ++i) {
      for (const Template& t : Templates()) {
        if (v.pool[i].shape == t.shape &&
            std::find(t.reads.begin(), t.reads.end(), v.owned[c].pred) !=
                t.reads.end()) {
          readers.push_back(i);
        }
      }
    }
    // One slot per toggle, new text and pool draw, in seeded order.
    enum Slot { kToggle, kNewText, kPoolDraw };
    std::vector<Slot> slots;
    slots.insert(slots.end(), kToggles, kToggle);
    slots.insert(slots.end(), kNewTexts, kNewText);
    slots.insert(slots.end(), kPoolDraws, kPoolDraw);
    for (size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[rng.Below(i)]);
    }
    std::vector<Op> ops;
    bool present = false;
    for (Slot slot : slots) {
      if (slot == kToggle) {
        Op update;
        update.kind = present ? OpKind::kRetract : OpKind::kAssert;
        present = !present;
        ops.push_back(update);
        Op read = v.pool[zipf(readers)];
        read.after_update = true;
        ops.push_back(read);
      } else if (slot == kNewText) {
        const bool possible = rng.Below(4) == 0;
        ops.push_back(
            inst.Make(DrawTemplate(possible ? mix.possible : mix.certain, rng),
                      possible ? OpKind::kPossible : OpKind::kCertain));
      } else {
        ops.push_back(v.pool[zipf(all)]);
      }
    }
    v.clients.push_back(std::move(ops));
  }
  return v;
}

/// service-mix: two clients over a shared, Zipf-skewed pool of prepared
/// texts, a few brand-new texts, and single-fact toggles each followed by a
/// query that reads the toggled relation.
Workload ServiceMix(uint64_t seed) {
  constexpr int kWorlds = 3;
  const Mix mix = {{5, 5, 5, 5, 3, 3}, {1, 1, 1, 1, 0, 0}};

  WorldShape shape;
  shape.known = 32;
  shape.unknown = 2;
  shape.active = 20;
  shape.unary_facts = 8;
  shape.unary_unknown = 1;
  shape.binary_facts = 10;
  shape.binary_unknown = 2;

  Rng rng(seed);
  Workload w;
  w.name = "service-mix";
  w.service_threads = 2;
  w.async = true;
  for (int v = 0; v < kWorlds; ++v) {
    w.variants.push_back(ServiceMixVariant(shape, mix, rng));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"sweep-dense",
                                                  "sweep-unknowns",
                                                  "service-mix"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "sweep-dense") {
    // Relational volume: 64 facts per binary relation over 18 constants,
    // 273 canonical mappings. Each image is expensive; the caches and the
    // kernel memo have nothing to reuse.
    WorldShape shape;
    shape.known = 16;
    shape.unknown = 2;
    shape.active = 16;
    shape.unary_facts = 8;
    shape.unary_unknown = 1;
    shape.binary_facts = 64;
    shape.binary_unknown = 8;
    // Weights put the certain p50 inside chain2 and the p90 inside
    // bchain3, and the possible p50/p90 inside conj5/chain3, away from
    // class boundaries (per-shape medians on this world: guard ≈ 10 ms,
    // conj5 13, chain2 16, bchain2 32, chain3 47, bchain3 64; possible
    // 10–12).
    const Mix mix = {{12, 40, 5, 13, 10, 20}, {20, 20, 25, 35, 0, 0}};
    return SweepWorkload(name, shape, mix, 64, 8, seed);
  }
  if (name == "sweep-unknowns") {
    // Unknowns: three nulls over 21 constants, 12 known constants in
    // about 8 facts per relation (10 in R0 and R1), 6555 canonical
    // mappings. Images are cheap, so the per-mapping cost (enumeration,
    // kernel signature, memo lookup) dominates.
    WorldShape shape;
    shape.known = 18;
    shape.unknown = 3;
    shape.active = 12;
    shape.unary_facts = 8;
    shape.unary_unknown = 1;
    shape.binary_facts = 10;
    shape.binary_unknown = 2;
    // Every certain shape costs about the same here (≈ 47–61 ms), so an
    // even mix keeps the percentiles inside one dense band.
    const Mix mix = {{7, 7, 7, 7, 6, 6}, {1, 1, 1, 1, 0, 0}};
    return SweepWorkload(name, shape, mix, 40, 8, seed);
  }
  if (name == "service-mix") return ServiceMix(seed);
  return std::nullopt;
}

}  // namespace perfbench
