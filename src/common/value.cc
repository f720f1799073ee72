#include "common/value.h"

#include <cmath>
#include <functional>
#include <sstream>

#include "common/env.h"

namespace xnfdb {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return "INTEGER";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
    case DataType::kBool:
      return "BOOLEAN";
  }
  return "?";
}

DataType Value::type() const {
  switch (rep_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kInt;
    case 2:
      return DataType::kDouble;
    case 3:
      return DataType::kString;
    case 4:
      return DataType::kBool;
  }
  return DataType::kNull;
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(rep_)) {
    return static_cast<double>(std::get<int64_t>(rep_));
  }
  return std::get<double>(rep_);
}

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == DataType::kInt || v.type() == DataType::kDouble;
}

// -1 / 0 / +1 comparison for two non-null values of comparable type.
// Falls back to type-tag ordering for incomparable types.
int CompareNonNull(const Value& a, const Value& b) {
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a.type() == DataType::kInt && b.type() == DataType::kInt) {
      int64_t x = a.AsInt(), y = b.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.AsDouble(), y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.type() != b.type()) {
    return static_cast<int>(a.type()) < static_cast<int>(b.type()) ? -1 : 1;
  }
  switch (a.type()) {
    case DataType::kString: {
      int c = a.AsString().compare(b.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kBool: {
      int x = a.AsBool() ? 1 : 0, y = b.AsBool() ? 1 : 0;
      return x - y;
    }
    default:
      return 0;
  }
}

}  // namespace

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (IsNumeric(*this) != IsNumeric(other)) return false;
  if (!IsNumeric(*this) && type() != other.type()) return false;
  return CompareNonNull(*this, other) == 0;
}

bool Value::operator<(const Value& other) const {
  if (is_null()) return !other.is_null();
  if (other.is_null()) return false;
  return CompareNonNull(*this, other) < 0;
}

bool ParseCompareOp(const std::string& op, CompareOp* out) {
  if (op == "=") {
    *out = CompareOp::kEq;
  } else if (op == "<>") {
    *out = CompareOp::kNe;
  } else if (op == "<") {
    *out = CompareOp::kLt;
  } else if (op == "<=") {
    *out = CompareOp::kLe;
  } else if (op == ">") {
    *out = CompareOp::kGt;
  } else if (op == ">=") {
    *out = CompareOp::kGe;
  } else {
    return false;
  }
  return true;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Value Value::Compare(const Value& a, const Value& b, CompareOp op) {
  if (a.is_null() || b.is_null()) return Value::Null();
  int c = CompareNonNull(a, b);
  switch (op) {
    case CompareOp::kEq:
      return Value(c == 0);
    case CompareOp::kNe:
      return Value(c != 0);
    case CompareOp::kLt:
      return Value(c < 0);
    case CompareOp::kLe:
      return Value(c <= 0);
    case CompareOp::kGt:
      return Value(c > 0);
    case CompareOp::kGe:
      return Value(c >= 0);
  }
  return Value::Null();
}

namespace {

Result<Value> Arith(const Value& a, const Value& b, char op) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!IsNumeric(a) || !IsNumeric(b)) {
    return Status::ExecutionError(std::string("arithmetic '") + op +
                                  "' on non-numeric operands " + a.ToString() +
                                  ", " + b.ToString());
  }
  if (a.type() == DataType::kInt && b.type() == DataType::kInt && op != '/') {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case '+':
        return Value(x + y);
      case '-':
        return Value(x - y);
      case '*':
        return Value(x * y);
    }
  }
  double x = a.AsDouble(), y = b.AsDouble();
  switch (op) {
    case '+':
      return Value(x + y);
    case '-':
      return Value(x - y);
    case '*':
      return Value(x * y);
    case '/':
      if (y == 0.0) return Status::ExecutionError("division by zero");
      // Integer division stays integral when it divides evenly, matching
      // the catalog's INTEGER columns through FK arithmetic.
      if (a.type() == DataType::kInt && b.type() == DataType::kInt &&
          a.AsInt() % b.AsInt() == 0) {
        return Value(a.AsInt() / b.AsInt());
      }
      return Value(x / y);
  }
  return Status::Internal("unknown arithmetic operator");
}

}  // namespace

Result<Value> Value::Add(const Value& a, const Value& b) {
  return Arith(a, b, '+');
}
Result<Value> Value::Sub(const Value& a, const Value& b) {
  return Arith(a, b, '-');
}
Result<Value> Value::Mul(const Value& a, const Value& b) {
  return Arith(a, b, '*');
}
Result<Value> Value::Div(const Value& a, const Value& b) {
  return Arith(a, b, '/');
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case DataType::kInt:
      return std::hash<int64_t>()(AsInt());
    case DataType::kDouble: {
      double d = AsDouble();
      // Make 2.0 hash like the integer 2 so mixed-type joins work.
      if (d == std::floor(d) && std::abs(d) < 1e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case DataType::kString:
      return std::hash<std::string>()(AsString());
    case DataType::kBool:
      return std::hash<bool>()(AsBool());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInt:
      return std::to_string(AsInt());
    case DataType::kDouble: {
      std::ostringstream os;
      os << std::get<double>(rep_);
      return os.str();
    }
    case DataType::kString:
      return "'" + AsString() + "'";
    case DataType::kBool:
      return AsBool() ? "TRUE" : "FALSE";
  }
  return "?";
}

size_t HashRow(RowView row) {
  size_t h = 14695981039346656037ULL;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

bool RowsEqual(RowView a, RowView b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return false;
    if (!a[i].is_null() && !(a[i] == b[i])) return false;
  }
  return true;
}

void WriteValueText(std::ostream& out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      out << "N";
      break;
    case DataType::kInt:
      out << "I " << v.AsInt();
      break;
    case DataType::kDouble: {
      std::ostringstream os;
      os.precision(17);
      os << v.AsDouble();
      out << "D " << os.str();
      break;
    }
    case DataType::kString:
      out << "S " << v.AsString().size() << " " << v.AsString();
      break;
    case DataType::kBool:
      out << "B " << (v.AsBool() ? 1 : 0);
      break;
  }
  out << "\n";
}

Result<Value> ReadValueText(std::istream& in) {
  std::string tag;
  if (!(in >> tag)) return Status::IoError("unexpected end of value stream");
  if (tag == "N") return Value::Null();
  if (tag == "I") {
    int64_t v;
    if (!(in >> v)) return Status::IoError("bad integer value");
    return Value(v);
  }
  if (tag == "D") {
    double v;
    if (!(in >> v)) return Status::IoError("bad double value");
    return Value(v);
  }
  if (tag == "B") {
    int v;
    if (!(in >> v)) return Status::IoError("bad boolean value");
    return Value(v != 0);
  }
  if (tag == "S") {
    size_t len;
    if (!(in >> len)) return Status::IoError("bad string length");
    in.get();  // the separating space
    int64_t remaining = StreamRemainingBytes(in);
    if (remaining >= 0 && static_cast<int64_t>(len) > remaining) {
      return Status::IoError("string length " + std::to_string(len) +
                             " exceeds remaining input");
    }
    std::string s(len, '\0');
    in.read(s.data(), static_cast<std::streamsize>(len));
    if (static_cast<size_t>(in.gcount()) != len) {
      return Status::IoError("truncated string value");
    }
    return Value(std::move(s));
  }
  return Status::IoError("bad value tag '" + tag + "'");
}

std::string TupleToString(const Tuple& t) {
  std::string s = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) s += ", ";
    s += t[i].ToString();
  }
  s += ")";
  return s;
}

}  // namespace xnfdb
