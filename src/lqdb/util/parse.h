#ifndef LQDB_UTIL_PARSE_H_
#define LQDB_UTIL_PARSE_H_

#include <climits>
#include <string_view>

namespace lqdb {

/// Strict nonnegative-decimal parse: every character of `token` must be a
/// digit, so "4x" is rejected instead of silently parsing as 4 the way
/// std::stoi's prefix parsing would (a past shell regression — see
/// tools/lint_invariants.py, rule prefix-parse), and overflow returns
/// false instead of throwing the way std::stoi does (a past parser
/// regression on absurd arities). Returns false on an empty token, a
/// non-digit, or uint64 overflow.
inline bool ParseStrictUint(std::string_view token, unsigned long long* out) {
  if (token.empty()) return false;
  unsigned long long value = 0;
  for (char ch : token) {
    if (ch < '0' || ch > '9') return false;
    const unsigned digit = static_cast<unsigned>(ch - '0');
    if (value > (ULLONG_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// `ParseStrictUint` for values that must fit a nonnegative `int`
/// (predicate arities, small counts). Returns false when the token is not
/// a pure decimal or exceeds `max` (default `INT_MAX`).
inline bool ParseStrictInt(std::string_view token, int* out,
                           int max = INT_MAX) {
  unsigned long long value = 0;
  if (!ParseStrictUint(token, &value)) return false;
  if (value > static_cast<unsigned long long>(max)) return false;
  *out = static_cast<int>(value);
  return true;
}

/// The one rule for names of constants and predicates, shared by the
/// query lexer, the `.lqdb` text format and `CwDatabase::AddFact`, so every
/// name a query or an update can intern is one `save` can write and `load`
/// read back: a letter, digit or `_`, then letters, digits, `_` or primes
/// (`x'`). ASCII only, independent of the locale.
inline bool IsIdentifierStart(char ch) {
  return (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
         (ch >= '0' && ch <= '9') || ch == '_';
}

inline bool IsIdentifierChar(char ch) {
  return IsIdentifierStart(ch) || ch == '\'';
}

inline bool IsIdentifier(std::string_view name) {
  if (name.empty() || !IsIdentifierStart(name.front())) return false;
  for (char ch : name) {
    if (!IsIdentifierChar(ch)) return false;
  }
  return true;
}

}  // namespace lqdb

#endif  // LQDB_UTIL_PARSE_H_
