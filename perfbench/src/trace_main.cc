// lqdb_trace: the traced benchmark run. Runs the workload untraced and
// traced in alternating cycles (same seed, same op sequence), decomposes
// each query of the first traced cycle one layer at a time on a private
// copy of its world, and prints the per-layer metrics, each layer's
// self-time share and the tracing overhead; the last line is the JSON
// result object. Spans are kept in memory and written at exit to
// <out-dir>/trace-<workload>-seed<seed>.csv.
//
//   lqdb_trace --workload NAME --seed N --seconds S [--out-dir DIR]
//
// Unlike lqdb_e2e this target calls into the library's internal layer
// headers, so an internal refactor can break only the per-layer numbers.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "driver.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/bound_query.h"
#include "lqdb/eval/kernel_memo.h"
#include "lqdb/exact/exact.h"
#include "lqdb/logic/parser.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/ra/semijoin.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Summed time and calls of one layer function within a decomposition.
struct Acc {
  int64_t ns = 0;
  uint64_t calls = 0;
  int64_t first = -1;
  int64_t last = 0;

  void Add(int64_t start, int64_t end) {
    ns += end - start;
    ++calls;
    if (first < 0) first = start;
    last = end;
  }
};

/// One query re-run one layer at a time.
struct Decomposition {
  bool ok = false;
  std::string error;
  Acc parse, bind, compile, reduce, answer, enumerate;
  /// Per-mapping calls of the replayed sweep.
  Acc signature, memo, image, execute;
  uint64_t plan_nodes = 0;
  uint64_t candidates = 0;
  uint64_t root_rows = 0;
  /// Mappings the engine's own `AnswerBound` examined, and the replay.
  uint64_t engine_mappings = 0;
  uint64_t replay_mappings = 0;
  uint64_t enumerated = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// A private copy of the world in one database state, with its own engine.
/// Every query decomposed on it stays alive as long as the engine: the
/// engine caches each plan's semijoin reduction by the plan's address, so
/// a freed plan whose address a later plan reuses would be served the old
/// reduction (the service never frees prepared plans).
struct PrivateWorld {
  std::unique_ptr<lqdb::CwDatabase> db;
  std::unique_ptr<lqdb::QueryEngine> engine;
  lqdb::RaCardinalities stats;
  double create_ms = 0;
  std::vector<std::unique_ptr<lqdb::Query>> queries;
  std::vector<std::unique_ptr<lqdb::BoundQuery>> bounds;
};

lqdb::Result<PrivateWorld> MakePrivateWorld(const Variant& v,
                                            uint32_t state) {
  PrivateWorld pw;
  LQDB_ASSIGN_OR_RETURN(pw.db, lqdb::ParseCwDatabase(v.world_text));
  for (size_t c = 0; c < v.owned.size(); ++c) {
    if ((state & (1u << c)) == 0) continue;
    std::vector<std::string_view> names(v.owned[c].args.begin(),
                                        v.owned[c].args.end());
    LQDB_RETURN_IF_ERROR(pw.db->AddFact(v.owned[c].pred, names));
  }
  const int64_t t0 = NowNs();
  LQDB_ASSIGN_OR_RETURN(pw.engine, lqdb::EngineRegistry::Global().Create(
                                       "exact", pw.db.get()));
  pw.create_ms = static_cast<double>(NowNs() - t0) / 1e6;
  // Join-order statistics as the service computes them at prepare time.
  pw.stats.domain_size = static_cast<double>(pw.db->num_constants());
  pw.stats.relation_sizes.assign(pw.db->vocab().num_predicates(), 0.0);
  for (lqdb::PredId p : pw.db->PredicatesWithFacts()) {
    pw.stats.relation_sizes[p] = static_cast<double>(pw.db->facts(p).size());
  }
  pw.stats.dp_join_cap = lqdb::ExactOptions{}.ra_dp_join_cap;
  return pw;
}

/// Replays the engine's Theorem 1 loop over the compiled, semijoin-reduced
/// plan with the kernel memo on (the session default), timing each layer
/// call: kernel signature, memo lookups and inserts, image build, plan
/// execution. Pruning is as in the engine, so the replay stops where the
/// engine stopped.
void ReplaySweep(const lqdb::CwDatabase& db, const lqdb::BoundQuery& bound,
                 const lqdb::ReducedPlan& red, bool possible,
                 Decomposition* d) {
  const size_t arity = bound.arity();
  std::vector<lqdb::Tuple> live = lqdb::AllCandidateTuples(
      arity, static_cast<lqdb::ConstId>(db.num_constants()));
  d->candidates = live.size();
  lqdb::KernelMemo memo(/*enabled=*/true);
  const lqdb::KernelSignatureContext ctx(db, bound.constants());
  lqdb::KernelSignatureScratch sig;
  lqdb::PhysicalDatabase image(&db.vocab());
  lqdb::RaExecutor exec(&image);
  std::vector<lqdb::Value> rows, cand;
  std::vector<uint32_t> miss;
  std::vector<char> verdict;
  bool failed = false;
  lqdb::ForEachCanonicalMapping(db, [&](const lqdb::ConstMapping& h) {
    ++d->replay_mappings;
    int64_t s = NowNs();
    ctx.SignatureOf(h, &sig);
    const uint32_t sig_id = memo.InternSignature(sig.sig);
    int64_t e = NowNs();
    d->signature.Add(s, e);
    const size_t count = live.size();
    verdict.assign(count, 0);
    rows.resize(count * arity);
    miss.clear();
    for (size_t k = 0; k < count; ++k) {
      lqdb::Value* row = rows.data() + k * arity;
      for (size_t i = 0; i < arity; ++i) row[i] = sig.relabel[h[live[k][i]]];
      const int v = memo.LookupRow(sig_id, row, arity);
      if (v < 0) {
        miss.push_back(static_cast<uint32_t>(k));
      } else {
        verdict[k] = static_cast<char>(v);
      }
    }
    d->memo.Add(e, NowNs());
    if (!miss.empty()) {
      s = NowNs();
      lqdb::ApplyMappingInto(db, h, &image);
      e = NowNs();
      d->image.Add(s, e);
      cand.resize(miss.size() * arity);
      for (size_t j = 0; j < miss.size(); ++j) {
        for (size_t i = 0; i < arity; ++i) {
          cand[j * arity + i] = h[live[miss[j]][i]];
        }
      }
      if (red.param != nullptr) {
        exec.BindParam(red.param.get(), cand.data(), miss.size());
      }
      s = NowNs();
      lqdb::Result<const lqdb::RaTableView*> table =
          exec.ExecuteView(red.plan);
      e = NowNs();
      d->execute.Add(s, e);
      if (!table.ok()) {
        failed = true;
        return false;
      }
      d->root_rows += (*table)->rows.size();
      s = NowNs();
      for (size_t j = 0; j < miss.size(); ++j) {
        const bool v = (*table)->rows.Contains(cand.data() + j * arity);
        verdict[miss[j]] = static_cast<char>(v);
        memo.InsertRow(sig_id, rows.data() + miss[j] * arity, arity, v);
      }
      d->memo.ns += NowNs() - s;
    }
    // Certain: keep the tuples that hold. Possible: a tuple that holds is
    // settled; keep the rest pending.
    size_t kept = 0;
    for (size_t k = 0; k < count; ++k) {
      if ((verdict[k] != 0) == possible) continue;
      if (kept != k) live[kept] = std::move(live[k]);
      ++kept;
    }
    live.resize(kept);
    return !live.empty();
  });
  if (failed) d->error = "replayed plan execution failed";
}

Decomposition Decompose(PrivateWorld& pw, const std::string& text,
                        bool possible) {
  Decomposition d;
  lqdb::CwDatabase& db = *pw.db;
  d.start = NowNs();
  int64_t t = NowNs();
  lqdb::Result<lqdb::Query> parsed = lqdb::ParseQuery(db.mutable_vocab(), text);
  d.parse.Add(t, NowNs());
  if (!parsed.ok()) {
    d.error = parsed.status().ToString();
    return d;
  }
  pw.queries.push_back(std::make_unique<lqdb::Query>(std::move(*parsed)));
  t = NowNs();
  lqdb::Result<lqdb::BoundQuery> bound_or =
      lqdb::BoundQuery::Bind(*pw.queries.back());
  d.bind.Add(t, NowNs());
  if (!bound_or.ok()) {
    d.error = bound_or.status().ToString();
    return d;
  }
  pw.bounds.push_back(
      std::make_unique<lqdb::BoundQuery>(std::move(*bound_or)));
  lqdb::BoundQuery* bound = pw.bounds.back().get();
  t = NowNs();
  const lqdb::Status compiled = bound->CompileRaPlan(db.vocab(), &pw.stats);
  d.compile.Add(t, NowNs());
  if (!compiled.ok() || bound->ra_plan() == nullptr) {
    d.error = "not compiled: " + compiled.ToString();
    return d;
  }
  d.plan_nodes = bound->ra_plan()->NumUniqueNodes();
  t = NowNs();
  lqdb::Result<lqdb::ReducedPlan> red = lqdb::SemijoinReduce(bound->ra_plan());
  d.reduce.Add(t, NowNs());
  if (!red.ok()) {
    d.error = red.status().ToString();
    return d;
  }
  t = NowNs();
  lqdb::Result<lqdb::Relation> answer =
      possible ? pw.engine->PossibleAnswerBound(*bound)
               : pw.engine->AnswerBound(*bound);
  d.answer.Add(t, NowNs());
  if (!answer.ok()) {
    d.error = answer.status().ToString();
    return d;
  }
  d.engine_mappings = pw.engine->last_mappings_examined();
  t = NowNs();
  d.enumerated = lqdb::ForEachCanonicalMapping(
      db, [](const lqdb::ConstMapping&) { return true; });
  d.enumerate.Add(t, NowNs());
  ReplaySweep(db, *bound, *red, possible, &d);
  d.end = NowNs();
  d.ok = d.error.empty();
  return d;
}

/// Appends a decomposition's spans: a `decompose` root (outside the op's
/// own span) with one child per layer call; per-mapping calls fold into
/// one span each with their count and summed time.
void DecomposeSpans(const Decomposition& d, int64_t op,
                    std::vector<Span>* out) {
  const int64_t root = static_cast<int64_t>(out->size());
  Span r;
  r.name = "decompose";
  r.start_ns = d.start;
  r.end_ns = d.end;
  r.op = op;
  out->push_back(r);
  const std::pair<const char*, const Acc*> children[] = {
      {"logic.parse", &d.parse},         {"eval.bind", &d.bind},
      {"ra.compile", &d.compile},        {"ra.reduce", &d.reduce},
      {"exact.answer", &d.answer},       {"cwdb.enumerate", &d.enumerate},
      {"eval.signature", &d.signature},  {"eval.memo", &d.memo},
      {"cwdb.image", &d.image},          {"ra.execute", &d.execute}};
  for (const auto& [name, acc] : children) {
    if (acc->calls == 0) continue;
    Span s;
    s.name = name;
    s.start_ns = acc->first;
    s.end_ns = acc->last;
    s.parent = root;
    s.op = op;
    s.count = acc->calls;
    s.busy_ns = acc->ns;
    out->push_back(s);
  }
}

double Mean(double sum, double n) { return n > 0 ? sum / n : 0; }

/// Mean time per call of one layer function over all decompositions.
double PerCall(const std::vector<const Decomposition*>& ds,
               Acc Decomposition::*field, double unit_ns) {
  double ns = 0, calls = 0;
  for (const Decomposition* d : ds) {
    ns += static_cast<double>((d->*field).ns);
    calls += static_cast<double>((d->*field).calls);
  }
  return Mean(ns / unit_ns, calls);
}

int Main(int argc, char** argv) {
  Args args;
  const std::optional<Workload> w = ParseArgs(argc, argv, &args);
  if (!w.has_value()) return 2;
  std::printf("traced run: workload %s seed %llu\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed));

  // The same op sequence untraced and traced, in alternating cycles: the
  // difference is the tracing overhead. Decompositions run afterwards.
  lqdb::Result<Run> run = RunPasses(*w, args.seconds, /*alternate=*/true);
  if (!run.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  std::vector<PassResult> plain, traced;
  for (PassResult& p : run->passes) {
    (p.traced ? traced : plain).push_back(std::move(p));
  }

  // Decompose the first traced cycle (one pass per world): one
  // decomposition per distinct (world, database state, mode, text);
  // repeats of a key share it.
  const std::vector<PassResult> first(
      traced.begin(), traced.begin() + static_cast<std::ptrdiff_t>(
                                           w->variants.size()));
  using Key = std::tuple<size_t, uint32_t, bool, std::string>;
  std::map<std::pair<size_t, uint32_t>, PrivateWorld> worlds;
  std::map<Key, Decomposition> decomp;
  std::vector<Span> decompose_spans;
  std::vector<double> create_ms;
  uint64_t decompose_errors = 0;
  std::string first_error;
  for (const PassResult& pass : first) {
    const Variant& v = w->variants[pass.variant];
    for (size_t c = 0; c < pass.ops.size(); ++c) {
      for (size_t i = 0; i < pass.ops[c].size(); ++i) {
        const Op& op = v.clients[c][i];
        if (op.kind != OpKind::kCertain && op.kind != OpKind::kPossible) {
          continue;
        }
        const bool possible = op.kind == OpKind::kPossible;
        const uint32_t state = pass.ops[c][i].state;
        Key key(pass.variant, state, possible, op.text);
        if (decomp.count(key) > 0) continue;
        auto world = worlds.find({pass.variant, state});
        if (world == worlds.end()) {
          lqdb::Result<PrivateWorld> pw = MakePrivateWorld(v, state);
          if (!pw.ok()) {
            std::fprintf(stderr, "private world: %s\n",
                         pw.status().ToString().c_str());
            return 1;
          }
          create_ms.push_back(pw->create_ms);
          world = worlds.emplace(std::make_pair(pass.variant, state),
                                 std::move(*pw))
                      .first;
        }
        Decomposition d = Decompose(world->second, op.text, possible);
        if (!d.ok || d.replay_mappings != d.engine_mappings) {
          ++decompose_errors;
          if (first_error.empty()) {
            first_error = (d.ok ? "replay examined " +
                                      std::to_string(d.replay_mappings) +
                                      " mappings, engine " +
                                      std::to_string(d.engine_mappings)
                                : d.error) +
                          " on " + op.text;
          }
        }
        DecomposeSpans(d, OpId(pass.variant, c, i), &decompose_spans);
        decomp.emplace(std::move(key), std::move(d));
      }
    }
  }
  const uint64_t canonical =
      lqdb::CountCanonicalMappings(*worlds.begin()->second.db);

  std::vector<PassResult> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  const CheckReport check = CheckAnswers(*w, all);
  const EndToEnd e_plain =
      ComputeEndToEnd(*w, plain, run->setup_s, peak_rss_mb, check.failed);
  const EndToEnd e_traced =
      ComputeEndToEnd(*w, traced, run->setup_s, peak_rss_mb, check.failed);

  // Per-layer figures from the decompositions and the traced cycle.
  std::vector<const Decomposition*> ds;
  for (const auto& [key, d] : decomp) ds.push_back(&d);
  double plan_nodes = 0, candidates = 0, root_rows = 0, engine_mappings = 0;
  double exec_calls = 0, certain_n = 0, certain_exit = 0;
  for (const auto& [key, d] : decomp) {
    plan_nodes += static_cast<double>(d.plan_nodes);
    candidates += static_cast<double>(d.candidates);
    root_rows += static_cast<double>(d.root_rows);
    exec_calls += static_cast<double>(d.execute.calls);
    engine_mappings += static_cast<double>(d.engine_mappings);
    if (!std::get<2>(key)) {
      ++certain_n;
      certain_exit += d.engine_mappings < canonical;
    }
  }
  const double n_ds = static_cast<double>(ds.size());

  // Service-side counts and self-time attribution over the first traced
  // cycle. A query op's self time goes to parse/bind/compile when its
  // prepare missed, to the engine's layers when its execution missed the
  // result cache (the replayed calls, scaled down to the engine's own run
  // if they add up to more), and the rest of the op's span to the service.
  double queries = 0, prepare_hits = 0, result_hits = 0;
  double prepare_hit_ns = 0, prepare_miss_ns = 0, hit_exec_ns = 0,
         miss_exec_ns = 0, overhead_ns = 0, update_ns = 0, updates = 0,
         invalidations = 0;
  double row_hits = 0, row_total = 0, skipped = 0, examined = 0;
  std::map<std::string, double> self;
  auto attribute = [&](const Op& op, const OpResult& r, size_t variant) {
    const double span = static_cast<double>(r.end_ns - r.start_ns);
    if (op.kind == OpKind::kAssert || op.kind == OpKind::kRetract) {
      ++updates;
      update_ns += static_cast<double>(r.execute_ns);
      self["service"] += span;
      return;
    }
    ++queries;
    const Decomposition& d = decomp.at(
        Key(variant, r.state, op.kind == OpKind::kPossible, op.text));
    double attributed = 0;
    if (r.prepare_hit) {
      ++prepare_hits;
      prepare_hit_ns += static_cast<double>(r.prepare_ns);
    } else {
      prepare_miss_ns += static_cast<double>(r.prepare_ns);
      self["logic"] += static_cast<double>(d.parse.ns);
      self["eval"] += static_cast<double>(d.bind.ns);
      self["ra"] += static_cast<double>(d.compile.ns);
      attributed += static_cast<double>(d.parse.ns + d.bind.ns + d.compile.ns);
    }
    if (r.result_hit) {
      ++result_hits;
      hit_exec_ns += static_cast<double>(r.execute_ns);
    } else {
      const double answer = static_cast<double>(d.answer.ns);
      miss_exec_ns += static_cast<double>(r.execute_ns);
      overhead_ns += static_cast<double>(r.execute_ns) - answer;
      // Enumeration measured over the whole space, charged for the
      // mappings the engine examined.
      const double enumerate =
          static_cast<double>(d.enumerate.ns) *
          static_cast<double>(d.engine_mappings) /
          static_cast<double>(std::max<uint64_t>(1, d.enumerated));
      const double ra = static_cast<double>(d.reduce.ns + d.execute.ns);
      const double eval = static_cast<double>(d.signature.ns + d.memo.ns);
      const double cwdb = static_cast<double>(d.image.ns) + enumerate;
      const double parts = ra + eval + cwdb;
      const double scale = parts > answer ? answer / parts : 1.0;
      self["ra"] += scale * ra;
      self["eval"] += scale * eval;
      self["cwdb"] += scale * cwdb;
      self["exact"] += answer - scale * parts;
      attributed += answer;
      row_hits += static_cast<double>(r.memo.row_hits);
      row_total += static_cast<double>(r.memo.row_hits + r.memo.row_misses);
      skipped += static_cast<double>(r.memo.images_skipped);
      examined += static_cast<double>(r.mappings);
    }
    self["service"] += std::max(0.0, span - attributed);
  };
  for (const PassResult& pass : first) {
    for (size_t c = 0; c < pass.ops.size(); ++c) {
      for (size_t i = 0; i < pass.ops[c].size(); ++i) {
        attribute(w->variants[pass.variant].clients[c][i], pass.ops[c][i],
                  pass.variant);
      }
    }
    // Stale entries the pass's lookups dropped; the set-up's warm pass
    // only fills the cache.
    invalidations += static_cast<double>(pass.stats.result_invalidations);
  }

  std::vector<double> load_ms;
  for (const PassResult& p : run->passes) load_ms.push_back(p.load_ms);

  std::vector<Metric> layer = {
      {"cwdb.image_us", PerCall(ds, &Decomposition::image, 1e3), "us", 0},
      {"cwdb.enumerate_ns",
       PerCall(ds, &Decomposition::enumerate, 1.0) /
           static_cast<double>(std::max<uint64_t>(1, canonical)),
       "ns", 0},
      {"cwdb.canonical_mappings", static_cast<double>(canonical), "count", 0},
      {"ra.compile_us", PerCall(ds, &Decomposition::compile, 1e3), "us", 0},
      {"ra.plan_nodes", Mean(plan_nodes, n_ds), "count", 0},
      {"ra.reduce_us", PerCall(ds, &Decomposition::reduce, 1e3), "us", 0},
      {"ra.execute_us", PerCall(ds, &Decomposition::execute, 1e3), "us", 0},
      {"ra.root_rows", Mean(root_rows, exec_calls), "count", 0},
      {"eval.bind_us", PerCall(ds, &Decomposition::bind, 1e3), "us", 0},
      {"eval.signature_ns", PerCall(ds, &Decomposition::signature, 1.0), "ns",
       0},
      {"eval.memo_row_hit_ratio", Mean(row_hits, row_total), "ratio", 0},
      {"eval.memo_images_skipped_ratio", Mean(skipped, examined), "ratio", 0},
      {"exact.answer_ms", PerCall(ds, &Decomposition::answer, 1e6), "ms", 0},
      {"exact.mappings_examined", Mean(engine_mappings, n_ds), "count", 0},
      {"exact.early_exit_ratio", Mean(certain_exit, certain_n), "ratio", 0},
      {"exact.candidates", Mean(candidates, n_ds), "count", 0},
      {"service.prepare_miss_us",
       Mean(prepare_miss_ns / 1e3, queries - prepare_hits), "us", 0},
      {"service.prepare_hit_us", Mean(prepare_hit_ns / 1e3, prepare_hits),
       "us", 0},
      {"service.prepared_hit_ratio", Mean(prepare_hits, queries), "ratio", 0},
      {"service.result_hit_ratio", Mean(result_hits, queries), "ratio", 0},
      {"service.result_hit_us", Mean(hit_exec_ns / 1e3, result_hits), "us",
       0},
      {"service.execute_miss_ms",
       Mean(miss_exec_ns / 1e6, queries - result_hits), "ms", 0},
      {"service.overhead_us", Mean(overhead_ns / 1e3, queries - result_hits),
       "us", 0},
      {"service.update_us", Mean(update_ns / 1e3, updates), "us", 0},
      {"service.invalidations_per_update", Mean(invalidations, updates),
       "count", 0},
      {"logic.parse_us", PerCall(ds, &Decomposition::parse, 1e3), "us", 0},
      {"io.load_ms", Median(load_ms), "ms", 0},
      {"engine.create_ms", Median(create_ms), "ms", 0},
  };
  // Shares of the attributed self time, so they add up to one.
  double self_total = 0;
  for (const auto& [name, ns] : self) self_total += ns;
  for (const char* l : {"service", "exact", "cwdb", "ra", "eval", "logic"}) {
    layer.push_back({std::string("share.") + l, Mean(self[l], self_total),
                     "ratio", 0});
  }

  std::printf("%zu decompositions of the first traced cycle's %llu query "
              "ops (%llu canonical mappings per sweep)\n",
              ds.size(), static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(canonical));
  PrintMetrics("per-layer:", layer);
  std::printf("tracing overhead (traced minus untraced):\n");
  for (size_t m = 0; m < e_plain.gated.size(); ++m) {
    const Metric& a = e_plain.gated[m];
    const Metric& b = e_traced.gated[m];
    std::printf("  %-34s %+14.6f %-6s (%+.1f%%)\n", a.name.c_str(),
                b.value - a.value, a.unit.c_str(),
                a.value != 0 ? 100.0 * (b.value - a.value) / a.value : 0.0);
  }
  PrintMetrics("untraced end-to-end:", e_plain.gated);
  PrintMetrics("also reported (untraced):", e_plain.extra);
  PrintCycles(e_plain);

  // Spans, written at exit.
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/trace-" + w->name + "-seed" +
                           std::to_string(args.seed) + ".csv";
  std::ofstream out(path);
  out << "list,index,parent,op,name,start_ns,end_ns,count,busy_ns\n";
  auto write = [&out](const std::string& list, const std::vector<Span>& v) {
    for (size_t i = 0; i < v.size(); ++i) {
      const Span& s = v[i];
      out << list << ',' << i << ',' << s.parent << ',' << s.op << ','
          << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.count
          << ',' << (s.busy_ns != 0 ? s.busy_ns : s.end_ns - s.start_ns)
          << '\n';
    }
  };
  for (const PassResult& pass : first) {
    for (size_t c = 0; c < pass.spans.size(); ++c) {
      write("world" + std::to_string(pass.variant) + ".client" +
                std::to_string(c),
            pass.spans[c]);
    }
  }
  write("decompose", decompose_spans);
  out.close();
  std::printf("spans: %s%s\n", path.c_str(), out ? "" : " (write failed)");

  std::printf("check: %llu ops, %llu failed, %llu mismatches, %llu certain "
              "not within possible; decomposition errors %llu%s%s\n",
              static_cast<unsigned long long>(check.ops),
              static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.mismatches),
              static_cast<unsigned long long>(check.subset_violations),
              static_cast<unsigned long long>(decompose_errors),
              first_error.empty() ? "" : ": ", first_error.c_str());
  for (const std::string& e : check.examples) {
    std::printf("  check: %s\n", e.c_str());
  }
  const bool correct = check.failed == 0 && check.subset_violations == 0 &&
                       check.examples.empty() && decompose_errors == 0;
  PrintResultJson(correct, check.ops, check.failed, layer);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
