// Query fingerprinting (pg_stat_statements-style): renders a statement's
// *shape* — the AST with every literal (and LIMIT/OFFSET constant)
// normalized to `?` — and hashes it to a stable 64-bit digest. Two
// statements that differ only in constants share a fingerprint; any
// structural difference (tables, columns, operators, clause order)
// produces a distinct one.
//
// Multi-row INSERTs are collapsed to a single `(?, ...)` values row so a
// bulk load does not fan out into one shape per batch size.
//
// The digest keys the per-statement record (obs/statement_record.h)
// exposed through `sys$statements`. The same pass also yields an exact
// digest that additionally keys the literal values: the materialized-view
// store matches on it, since one binding's stored answer must never serve
// another's.

#ifndef XNFDB_PARSER_FINGERPRINT_H_
#define XNFDB_PARSER_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "parser/ast.h"

namespace xnfdb {

struct Fingerprint {
  std::string text;     // normalized statement text
  uint64_t digest = 0;  // FNV-1a of `text`
  // `digest` extended over the literal values `text` replaced with `?`
  // (equal to `digest` when there are none). Multi-row INSERT values are
  // not visited.
  uint64_t exact_digest = 0;
};

// FNV-1a over `s`; exposed for tests and external digest comparisons.
uint64_t FingerprintHash(const std::string& s);

Fingerprint FingerprintSelect(const ast::SelectStmt& select);
Fingerprint FingerprintXnf(const ast::XnfQuery& query);
// Any statement kind (queries, DML, DDL).
Fingerprint FingerprintStatement(const ast::Statement& stmt);

}  // namespace xnfdb

#endif  // XNFDB_PARSER_FINGERPRINT_H_
