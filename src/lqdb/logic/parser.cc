#include "lqdb/logic/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "lqdb/util/parse.h"

namespace lqdb {

namespace {

enum class TokKind {
  kEnd,
  kIdent,
  kLParen,
  kRParen,
  kComma,
  kDot,
  kSlash,
  kEq,
  kNeq,
  kNot,
  kAnd,
  kOr,
  kImplies,
  kIff,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t pos;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < input_.size()) {
      char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      size_t start = i;
      if (IsIdentifierStart(c)) {
        size_t j = i;
        while (j < input_.size() && IsIdentifierChar(input_[j])) ++j;
        out.push_back({TokKind::kIdent,
                       std::string(input_.substr(i, j - i)), start});
        i = j;
        continue;
      }
      switch (c) {
        case '(': out.push_back({TokKind::kLParen, "(", start}); ++i; break;
        case ')': out.push_back({TokKind::kRParen, ")", start}); ++i; break;
        case ',': out.push_back({TokKind::kComma, ",", start}); ++i; break;
        case '.': out.push_back({TokKind::kDot, ".", start}); ++i; break;
        case '/': out.push_back({TokKind::kSlash, "/", start}); ++i; break;
        case '=': out.push_back({TokKind::kEq, "=", start}); ++i; break;
        case '&': out.push_back({TokKind::kAnd, "&", start}); ++i; break;
        case '|': out.push_back({TokKind::kOr, "|", start}); ++i; break;
        case '!':
          if (i + 1 < input_.size() && input_[i + 1] == '=') {
            out.push_back({TokKind::kNeq, "!=", start});
            i += 2;
          } else {
            out.push_back({TokKind::kNot, "!", start});
            ++i;
          }
          break;
        case '-':
          if (i + 1 < input_.size() && input_[i + 1] == '>') {
            out.push_back({TokKind::kImplies, "->", start});
            i += 2;
            break;
          }
          return Err(start, "unexpected '-'");
        case '<':
          if (i + 2 < input_.size() && input_[i + 1] == '-' &&
              input_[i + 2] == '>') {
            out.push_back({TokKind::kIff, "<->", start});
            i += 3;
            break;
          }
          return Err(start, "unexpected '<'");
        default:
          return Err(start, std::string("unexpected character '") + c + "'");
      }
    }
    out.push_back({TokKind::kEnd, "", input_.size()});
    return out;
  }

 private:
  Status Err(size_t pos, const std::string& what) {
    return Status::InvalidArgument(what + " at offset " + std::to_string(pos));
  }

  std::string_view input_;
};

class Parser {
 public:
  Parser(Vocabulary* vocab, std::vector<Token> tokens)
      : vocab_(vocab), tokens_(std::move(tokens)) {}

  Result<FormulaPtr> ParseFormulaTop() {
    LQDB_ASSIGN_OR_RETURN(FormulaPtr f, ParseIff());
    LQDB_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
    return f;
  }

  Result<Query> ParseQueryTop() {
    // Heads look like `( ident* ) .`: distinguish from a parenthesized
    // formula by scanning ahead for the closing paren followed by a dot.
    if (Peek().kind == TokKind::kLParen && LooksLikeHead()) {
      Advance();  // '('
      std::vector<VarId> head;
      if (Peek().kind != TokKind::kRParen) {
        while (true) {
          if (Peek().kind != TokKind::kIdent) {
            return Status::InvalidArgument(
                "expected variable name in query head at offset " +
                std::to_string(Peek().pos));
          }
          if (vocab_->FindConstant(Peek().text) != Vocabulary::kNotFound) {
            return Status::InvalidArgument(
                "query head variable '" + Peek().text +
                "' shadows a constant symbol");
          }
          head.push_back(vocab_->AddVariable(Peek().text));
          Advance();
          if (Peek().kind == TokKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.'"));
      LQDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
      return Query::Make(std::move(head), std::move(body));
    }
    LQDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
    LQDB_RETURN_IF_ERROR(Expect(TokKind::kEnd, "end of input"));
    return Query::Boolean(std::move(body));
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() { ++pos_; }

  Status Expect(TokKind kind, const std::string& what) {
    if (Peek().kind != kind) {
      return Status::InvalidArgument("expected " + what + " at offset " +
                                     std::to_string(Peek().pos) + ", found '" +
                                     Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  /// True when the token stream starts `( [ident [, ident]*] ) .`
  bool LooksLikeHead() const {
    size_t i = pos_ + 1;
    if (i < tokens_.size() && tokens_[i].kind == TokKind::kRParen) {
      return i + 1 < tokens_.size() && tokens_[i + 1].kind == TokKind::kDot;
    }
    while (i + 1 < tokens_.size() && tokens_[i].kind == TokKind::kIdent) {
      if (tokens_[i + 1].kind == TokKind::kComma) {
        i += 2;
        continue;
      }
      if (tokens_[i + 1].kind == TokKind::kRParen) {
        return i + 2 < tokens_.size() && tokens_[i + 2].kind == TokKind::kDot;
      }
      return false;
    }
    return false;
  }

  Result<FormulaPtr> ParseIff() {
    LQDB_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseImplies());
    while (Peek().kind == TokKind::kIff) {
      Advance();
      LQDB_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseImplies());
      lhs = Formula::Iff(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<FormulaPtr> ParseImplies() {
    LQDB_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseOr());
    if (Peek().kind == TokKind::kImplies) {
      Advance();
      LQDB_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseImplies());
      return Formula::Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<FormulaPtr> ParseOr() {
    LQDB_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseAnd());
    std::vector<FormulaPtr> parts;
    parts.push_back(std::move(lhs));
    while (Peek().kind == TokKind::kOr) {
      Advance();
      LQDB_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseAnd());
      parts.push_back(std::move(rhs));
    }
    return parts.size() == 1 ? parts[0] : Formula::Or(std::move(parts));
  }

  Result<FormulaPtr> ParseAnd() {
    LQDB_ASSIGN_OR_RETURN(FormulaPtr lhs, ParseUnary());
    std::vector<FormulaPtr> parts;
    parts.push_back(std::move(lhs));
    while (Peek().kind == TokKind::kAnd) {
      Advance();
      LQDB_ASSIGN_OR_RETURN(FormulaPtr rhs, ParseUnary());
      parts.push_back(std::move(rhs));
    }
    return parts.size() == 1 ? parts[0] : Formula::And(std::move(parts));
  }

  Result<FormulaPtr> ParseUnary() {
    if (Peek().kind == TokKind::kNot) {
      Advance();
      LQDB_ASSIGN_OR_RETURN(FormulaPtr inner, ParseUnary());
      return Formula::Not(std::move(inner));
    }
    const std::string& word = Peek().text;
    if (Peek().kind == TokKind::kIdent &&
        (word == "exists" || word == "forall")) {
      bool is_exists = word == "exists";
      Advance();
      std::vector<VarId> vars;
      while (Peek().kind == TokKind::kIdent) {
        if (vocab_->FindConstant(Peek().text) != Vocabulary::kNotFound) {
          return Status::InvalidArgument(
              "quantified variable '" + Peek().text +
              "' shadows a constant symbol");
        }
        vars.push_back(vocab_->AddVariable(Peek().text));
        Advance();
      }
      if (vars.empty()) {
        return Status::InvalidArgument(
            "quantifier with no variables at offset " +
            std::to_string(Peek().pos));
      }
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' after quantifier"));
      LQDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
      return is_exists ? Formula::Exists(vars, std::move(body))
                       : Formula::Forall(vars, std::move(body));
    }
    if (Peek().kind == TokKind::kIdent &&
        (word == "exists2" || word == "forall2")) {
      bool is_exists = word == "exists2";
      Advance();
      std::vector<PredId> preds;
      while (Peek().kind == TokKind::kIdent) {
        std::string name = Peek().text;
        Advance();
        LQDB_RETURN_IF_ERROR(
            Expect(TokKind::kSlash, "'/' and arity after predicate variable"));
        if (Peek().kind != TokKind::kIdent || !IsNumber(Peek().text)) {
          return Status::InvalidArgument(
              "expected arity after '/' at offset " +
              std::to_string(Peek().pos));
        }
        // Strict parse: std::stoi would throw (the library is
        // exception-free) on an arity beyond int range.
        int arity = 0;
        if (!ParseStrictInt(Peek().text, &arity)) {
          return Status::InvalidArgument(
              "arity out of range at offset " + std::to_string(Peek().pos));
        }
        Advance();
        LQDB_ASSIGN_OR_RETURN(PredId p,
                              vocab_->AddAuxiliaryPredicate(name, arity));
        preds.push_back(p);
      }
      if (preds.empty()) {
        return Status::InvalidArgument(
            "second-order quantifier with no predicate variables at offset " +
            std::to_string(Peek().pos));
      }
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kDot, "'.' after quantifier"));
      LQDB_ASSIGN_OR_RETURN(FormulaPtr body, ParseIff());
      return is_exists ? Formula::ExistsPred(preds, std::move(body))
                       : Formula::ForallPred(preds, std::move(body));
    }
    return ParsePrimary();
  }

  Result<FormulaPtr> ParsePrimary() {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kLParen) {
      Advance();
      LQDB_ASSIGN_OR_RETURN(FormulaPtr inner, ParseIff());
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      // A parenthesized formula may still be an equality's left side only
      // when it was a term — terms are never parenthesized in this grammar,
      // so we are done.
      return inner;
    }
    if (tok.kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected formula at offset " +
                                     std::to_string(tok.pos) + ", found '" +
                                     tok.text + "'");
    }
    if (tok.text == "true") {
      Advance();
      return Formula::True();
    }
    if (tok.text == "false") {
      Advance();
      return Formula::False();
    }
    // Atom `P(t, ...)` or equality `t = t` / `t != t`.
    std::string name = tok.text;
    Advance();
    if (Peek().kind == TokKind::kLParen) {
      Advance();
      TermList args;
      if (Peek().kind != TokKind::kRParen) {
        while (true) {
          LQDB_ASSIGN_OR_RETURN(Term t, ParseTerm());
          args.push_back(t);
          if (Peek().kind == TokKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      LQDB_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      LQDB_ASSIGN_OR_RETURN(
          PredId p, vocab_->AddAuxiliaryPredicate(
                        name, static_cast<int>(args.size())));
      return Formula::Atom(p, std::move(args));
    }
    Term lhs = ResolveTerm(name);
    if (Peek().kind == TokKind::kEq || Peek().kind == TokKind::kNeq) {
      bool negated = Peek().kind == TokKind::kNeq;
      Advance();
      LQDB_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      FormulaPtr eq = Formula::Equals(lhs, rhs);
      return negated ? Formula::Not(std::move(eq)) : eq;
    }
    return Status::InvalidArgument(
        "expected '(' (atom) or '='/'!=' (equality) after '" + name +
        "' at offset " + std::to_string(Peek().pos));
  }

  Result<Term> ParseTerm() {
    if (Peek().kind != TokKind::kIdent) {
      return Status::InvalidArgument("expected term at offset " +
                                     std::to_string(Peek().pos) + ", found '" +
                                     Peek().text + "'");
    }
    Term t = ResolveTerm(Peek().text);
    Advance();
    return t;
  }

  /// Resolution order: known constant, known variable, case heuristic.
  Term ResolveTerm(const std::string& name) {
    ConstId c = vocab_->FindConstant(name);
    if (c != Vocabulary::kNotFound) return Term::Constant(c);
    VarId v = vocab_->FindVariable(name);
    if (v != Vocabulary::kNotFound) return Term::Variable(v);
    char first = name[0];
    if (std::islower(static_cast<unsigned char>(first))) {
      return Term::Variable(vocab_->AddVariable(name));
    }
    return Term::Constant(vocab_->AddConstant(name));
  }

  static bool IsNumber(const std::string& s) {
    for (char c : s) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return false;
    }
    return !s.empty();
  }

  Vocabulary* vocab_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<FormulaPtr> ParseFormula(Vocabulary* vocab, std::string_view text) {
  LQDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  return Parser(vocab, std::move(tokens)).ParseFormulaTop();
}

Result<Query> ParseQuery(Vocabulary* vocab, std::string_view text) {
  LQDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer(text).Tokenize());
  return Parser(vocab, std::move(tokens)).ParseQueryTop();
}

}  // namespace lqdb
