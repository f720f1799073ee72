// The runtime value model: a dynamically-typed SQL value.
//
// xnfdb supports four materialized types (INTEGER, DOUBLE, VARCHAR, BOOLEAN)
// plus SQL NULL. Values use three-valued logic for comparisons: any
// comparison involving NULL yields NULL (represented as a null Value of
// kBool type domain), and predicates treat non-TRUE as filtered out.

#ifndef XNFDB_COMMON_VALUE_H_
#define XNFDB_COMMON_VALUE_H_

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace xnfdb {

enum class DataType {
  kNull = 0,  // Only for untyped NULL literals.
  kInt,
  kDouble,
  kString,
  kBool,
};

const char* DataTypeName(DataType type);

// A comparison operator resolved once (at plan/parse time) so per-row
// evaluation dispatches on an enum instead of string-matching the SQL
// spelling on every call.
enum class CompareOp {
  kEq,  // =
  kNe,  // <>
  kLt,  // <
  kLe,  // <=
  kGt,  // >
  kGe,  // >=
};

// Maps the SQL spelling ("=", "<>", "<", "<=", ">", ">=") to its enum.
// Returns false (leaving *out untouched) for any other string.
bool ParseCompareOp(const std::string& op, CompareOp* out);

const char* CompareOpName(CompareOp op);

// A single SQL value. Copyable; strings are owned.
class Value {
 public:
  Value() : rep_(std::monostate{}) {}  // SQL NULL
  explicit Value(int64_t v) : rep_(v) {}
  explicit Value(double v) : rep_(v) {}
  explicit Value(std::string v) : rep_(std::move(v)) {}
  explicit Value(const char* v) : rep_(std::string(v)) {}
  explicit Value(bool v) : rep_(v) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }
  DataType type() const;

  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const;  // Promotes ints.
  const std::string& AsString() const { return std::get<std::string>(rep_); }
  bool AsBool() const { return std::get<bool>(rep_); }

  // SQL equality (NULL-safe variants below): requires comparable types
  // (numeric with numeric, string with string, bool with bool). Comparing
  // incompatible non-null types returns false/ordering by type tag.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order usable for sorting/dedup: NULL sorts first, then by type.
  bool operator<(const Value& other) const;

  // Three-valued comparison: returns NULL Value when either side is NULL,
  // otherwise a bool Value.
  static Value Compare(const Value& a, const Value& b, CompareOp op);

  // Arithmetic with numeric promotion; NULL-propagating.
  static Result<Value> Add(const Value& a, const Value& b);
  static Result<Value> Sub(const Value& a, const Value& b);
  static Result<Value> Mul(const Value& a, const Value& b);
  static Result<Value> Div(const Value& a, const Value& b);

  // Hash consistent with operator== for same-type values.
  size_t Hash() const;

  // SQL-literal-ish rendering: NULL, 42, 3.5, 'text', TRUE.
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> rep_;
};

// A row of values. Kept as a plain vector for cheap moves and splicing,
// which the executor relies on.
using Tuple = std::vector<Value>;

// A read-only view of one row's values (a Tuple, or a row of a flat row
// store).
using RowView = std::span<const Value>;

// Hash of a whole row (for hash joins / distinct); consistent with
// RowsEqual, so 2 and 2.0 hash alike.
size_t HashRow(RowView row);

// Row equality for grouping and dedup: NULL-safe (NULLs form one class)
// and numeric across types (2 = 2.0).
bool RowsEqual(RowView a, RowView b);

std::string TupleToString(const Tuple& t);

// Lossless line-oriented text encoding used by the persistence layers
// (cache files, database files): "N", "I <v>", "D <v>", "B 0|1",
// "S <len> <bytes>", each followed by a newline.
void WriteValueText(std::ostream& out, const Value& v);
Result<Value> ReadValueText(std::istream& in);

}  // namespace xnfdb

#endif  // XNFDB_COMMON_VALUE_H_
