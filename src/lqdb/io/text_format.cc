#include "lqdb/io/text_format.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "lqdb/util/parse.h"

namespace lqdb {

namespace {

/// Splits a line into whitespace-separated words, dropping `#` comments.
std::vector<std::string> Words(std::string_view line) {
  std::vector<std::string> out;
  std::string current;
  for (char c : line) {
    if (c == '#') break;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

Status Err(int line_no, const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                 what);
}

/// Parses `NAME(arg, arg, ...)` (spaces already stripped by joining).
Status ParseFactTerm(const std::string& term, std::string* pred,
                     std::vector<std::string>* args, int line_no) {
  size_t open = term.find('(');
  if (open == std::string::npos || term.back() != ')') {
    return Err(line_no, "expected fact of the form PRED(c1, c2, ...)");
  }
  *pred = term.substr(0, open);
  if (!IsIdentifier(*pred)) return Err(line_no, "bad predicate name");
  std::string inner = term.substr(open + 1, term.size() - open - 2);
  std::string current;
  for (char c : inner) {
    if (c == ',') {
      if (current.empty()) return Err(line_no, "empty fact argument");
      args->push_back(std::move(current));
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current += c;
    }
  }
  if (!current.empty()) args->push_back(std::move(current));
  for (const std::string& a : *args) {
    if (!IsIdentifier(a)) return Err(line_no, "bad constant name '" + a + "'");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<CwDatabase>> ParseCwDatabase(std::string_view text) {
  auto lb = std::make_unique<CwDatabase>();
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::vector<std::string> words = Words(line);
    if (words.empty()) continue;
    const std::string& keyword = words[0];

    if (keyword == "known" || keyword == "unknown") {
      if (words.size() < 2) {
        return Err(line_no, "'" + keyword + "' needs constant names");
      }
      for (size_t i = 1; i < words.size(); ++i) {
        if (!IsIdentifier(words[i])) {
          return Err(line_no, "bad constant name '" + words[i] + "'");
        }
        if (keyword == "known") {
          lb->AddKnownConstant(words[i]);
        } else {
          if (lb->vocab().FindConstant(words[i]) != Vocabulary::kNotFound &&
              lb->IsKnown(lb->vocab().FindConstant(words[i]))) {
            return Err(line_no, "constant '" + words[i] +
                                    "' was already declared known");
          }
          lb->AddUnknownConstant(words[i]);
        }
      }
      continue;
    }

    if (keyword == "predicate") {
      if (words.size() != 2) {
        return Err(line_no, "'predicate' needs exactly NAME/ARITY");
      }
      size_t slash = words[1].find('/');
      if (slash == std::string::npos) {
        return Err(line_no, "'predicate' needs NAME/ARITY");
      }
      std::string name = words[1].substr(0, slash);
      // Strict parse: std::stoi's prefix parsing read "P/2x" as arity 2
      // and threw (rather than erred) on out-of-range arities.
      int arity = 0;
      if (!ParseStrictInt(std::string_view(words[1]).substr(slash + 1),
                          &arity)) {
        return Err(line_no, "bad arity in '" + words[1] + "'");
      }
      if (!IsIdentifier(name)) return Err(line_no, "bad predicate name");
      auto p = lb->AddPredicate(name, arity);
      if (!p.ok()) return Err(line_no, p.status().message());
      continue;
    }

    if (keyword == "fact") {
      if (words.size() < 2) return Err(line_no, "'fact' needs an atom");
      // Re-join so `fact P(a, b)` survives the whitespace split.
      std::string joined;
      for (size_t i = 1; i < words.size(); ++i) joined += words[i];
      std::string pred;
      std::vector<std::string> args;
      LQDB_RETURN_IF_ERROR(ParseFactTerm(joined, &pred, &args, line_no));
      std::vector<std::string_view> views(args.begin(), args.end());
      Status s = lb->AddFact(pred, views);
      if (!s.ok()) return Err(line_no, s.message());
      continue;
    }

    if (keyword == "distinct") {
      if (words.size() != 3) {
        return Err(line_no, "'distinct' needs exactly two constants");
      }
      // Constants may appear here before any fact mentions them; intern
      // missing ones as unknown (a known constant would not need an
      // explicit axiom).
      for (int i = 1; i <= 2; ++i) {
        if (!IsIdentifier(words[i])) {
          return Err(line_no, "bad constant name '" + words[i] + "'");
        }
        if (lb->vocab().FindConstant(words[i]) == Vocabulary::kNotFound) {
          lb->AddUnknownConstant(words[i]);
        }
      }
      Status s = lb->AddDistinct(words[1], words[2]);
      if (!s.ok()) return Err(line_no, s.message());
      continue;
    }

    return Err(line_no, "unknown directive '" + keyword + "'");
  }
  return lb;
}

Result<std::unique_ptr<CwDatabase>> LoadCwDatabase(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCwDatabase(buffer.str());
}

std::string SerializeCwDatabase(const CwDatabase& lb) {
  const Vocabulary& vocab = lb.vocab();
  std::string out = "# CW logical database (lqdb text format)\n";

  std::string known_line, unknown_line;
  for (ConstId c = 0; c < vocab.num_constants(); ++c) {
    std::string& line = lb.IsKnown(c) ? known_line : unknown_line;
    line += " ";
    line += vocab.ConstantName(c);
  }
  if (!unknown_line.empty()) out += "unknown" + unknown_line + "\n";
  if (!known_line.empty()) out += "known" + known_line + "\n";

  for (PredId p : vocab.SchemaPredicates()) {
    out += "predicate " + vocab.PredicateName(p) + "/" +
           std::to_string(vocab.PredicateArity(p)) + "\n";
  }
  // Order facts and axioms by *names*, not ids, so that serialization is
  // canonical: re-parsing permutes constant ids (declarations come first),
  // but Serialize(Parse(Serialize(lb))) == Serialize(lb).
  std::vector<std::string> fact_lines;
  for (PredId p : lb.PredicatesWithFacts()) {
    for (const Tuple& t : lb.facts(p).tuples()) {
      std::string line = "fact " + vocab.PredicateName(p) + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) line += ", ";
        line += vocab.ConstantName(t[i]);
      }
      line += ")\n";
      fact_lines.push_back(std::move(line));
    }
  }
  std::sort(fact_lines.begin(), fact_lines.end());
  for (const std::string& line : fact_lines) out += line;

  std::vector<std::string> axiom_lines;
  for (const auto& [a, b] : lb.explicit_distinct()) {
    std::string na = vocab.ConstantName(a);
    std::string nb = vocab.ConstantName(b);
    if (nb < na) std::swap(na, nb);
    axiom_lines.push_back("distinct " + na + " " + nb + "\n");
  }
  std::sort(axiom_lines.begin(), axiom_lines.end());
  for (const std::string& line : axiom_lines) out += line;
  return out;
}

Status SaveCwDatabase(const CwDatabase& lb, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write '" + path + "'");
  out << SerializeCwDatabase(lb);
  return out.good() ? Status::OK()
                    : Status::Internal("write to '" + path + "' failed");
}

}  // namespace lqdb
