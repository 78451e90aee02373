#ifndef LQDB_LQDB_H_
#define LQDB_LQDB_H_

/// Umbrella header: the public API of lqdb, the implementation of
/// "Querying Logical Databases" (Vardi, PODS'85 / JCSS'86).
///
/// Typical usage:
///
///   #include "lqdb/lqdb.h"
///
///   lqdb::CwDatabase lb;                      // §2.2 model
///   lb.AddUnknownConstant("Jack");            // a null
///   lb.AddFact("MURDERER", {"Jack"});
///   lb.AddDistinct("Jack", "Victoria");
///
///   auto q = lqdb::ParseQuery(lb.mutable_vocab(), "(x) . !MURDERER(x)");
///
///   lqdb::ExactEvaluator exact(&lb);          // Theorem 1 (co-NP)
///   auto certain = exact.Answer(*q);
///
///   auto approx = lqdb::ApproxEvaluator::Make(&lb);  // §5 (polynomial)
///   auto sound = (*approx)->Answer(*q);

#include "lqdb/approx/alpha.h"
#include "lqdb/approx/approx.h"
#include "lqdb/approx/transform.h"
#include "lqdb/cwdb/cw_database.h"
#include "lqdb/cwdb/mapping.h"
#include "lqdb/cwdb/ph.h"
#include "lqdb/cwdb/simulation.h"
#include "lqdb/cwdb/theory.h"
#include "lqdb/engine/engine.h"
#include "lqdb/eval/answer.h"
#include "lqdb/eval/evaluator.h"
#include "lqdb/exact/brute.h"
#include "lqdb/exact/exact.h"
#include "lqdb/exact/ra_exact.h"
#include "lqdb/io/text_format.h"
#include "lqdb/logic/builder.h"
#include "lqdb/logic/classify.h"
#include "lqdb/logic/formula.h"
#include "lqdb/logic/nnf.h"
#include "lqdb/logic/parser.h"
#include "lqdb/logic/prenex.h"
#include "lqdb/logic/printer.h"
#include "lqdb/logic/query.h"
#include "lqdb/logic/substitute.h"
#include "lqdb/logic/term.h"
#include "lqdb/logic/vocabulary.h"
#include "lqdb/ra/compiler.h"
#include "lqdb/ra/executor.h"
#include "lqdb/ra/plan.h"
#include "lqdb/reductions/coloring.h"
#include "lqdb/reductions/graph.h"
#include "lqdb/reductions/qbf.h"
#include "lqdb/reductions/qbf_reduction.h"
#include "lqdb/reductions/so_reduction.h"
#include "lqdb/relational/database.h"
#include "lqdb/relational/relation.h"
#include "lqdb/relational/tuple.h"
#include "lqdb/util/result.h"
#include "lqdb/util/status.h"

#endif  // LQDB_LQDB_H_
