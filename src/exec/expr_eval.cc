#include "exec/expr_eval.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/str_util.h"

namespace xnfdb {

void Layout::Add(int quant_id, size_t offset, size_t arity) {
  for (Slot& s : slots_) {
    if (s.id == quant_id) {
      s.offset = offset;
      s.arity = arity;
      return;
    }
  }
  Slot slot{quant_id, offset, arity};
  auto it = std::lower_bound(
      slots_.begin(), slots_.end(), quant_id,
      [](const Slot& s, int id) { return s.id < id; });
  slots_.insert(it, slot);
}

size_t Layout::TotalWidth() const {
  size_t width = 0;
  for (const Slot& s : slots_) {
    width = std::max(width, s.offset + s.arity);
  }
  return width;
}

void Layout::Append(const Layout& other, size_t shift) {
  for (const Slot& s : other.slots_) {
    Add(s.id, s.offset + shift, s.arity);
  }
}

Result<Value> EvalExpr(const qgm::Expr& e, const Layout& layout,
                       RowView row) {
  using Kind = qgm::Expr::Kind;
  switch (e.kind) {
    case Kind::kLiteral:
      return e.literal;
    case Kind::kColRef: {
      if (!layout.Has(e.quant_id)) {
        return Status::Internal("no slot for quantifier q" +
                                std::to_string(e.quant_id));
      }
      size_t idx = layout.Offset(e.quant_id) + e.column;
      if (idx >= row.size()) {
        return Status::Internal("column reference beyond combined row");
      }
      return row[idx];
    }
    case Kind::kBinary: {
      using BinOp = qgm::Expr::BinOp;
      XNFDB_ASSIGN_OR_RETURN(Value l, EvalExpr(*e.lhs, layout, row));
      XNFDB_ASSIGN_OR_RETURN(Value r, EvalExpr(*e.rhs, layout, row));
      switch (e.bin_op) {
        case BinOp::kAnd:
        case BinOp::kOr: {
          // Three-valued logic.
          bool lnull = l.is_null(), rnull = r.is_null();
          bool lv = !lnull && l.type() == DataType::kBool && l.AsBool();
          bool rv = !rnull && r.type() == DataType::kBool && r.AsBool();
          if (e.bin_op == BinOp::kAnd) {
            if (!lnull && !lv) return Value(false);
            if (!rnull && !rv) return Value(false);
            if (lnull || rnull) return Value::Null();
            return Value(true);
          }
          if (!lnull && lv) return Value(true);
          if (!rnull && rv) return Value(true);
          if (lnull || rnull) return Value::Null();
          return Value(false);
        }
        case BinOp::kAdd:
          return Value::Add(l, r);
        case BinOp::kSub:
          return Value::Sub(l, r);
        case BinOp::kMul:
          return Value::Mul(l, r);
        case BinOp::kDiv:
          return Value::Div(l, r);
        case BinOp::kCmp:
          return Value::Compare(l, r, e.cmp_op);
        case BinOp::kNone:
          break;
      }
      return Status::Internal("unresolved binary operator " + e.op);
    }
    case Kind::kUnary: {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.lhs, layout, row));
      if (e.op == "NOT") {
        if (v.is_null()) return Value::Null();
        if (v.type() != DataType::kBool) {
          return Status::ExecutionError("NOT applied to non-boolean");
        }
        return Value(!v.AsBool());
      }
      if (e.op == "-") {
        if (v.is_null()) return Value::Null();
        if (v.type() == DataType::kInt) return Value(-v.AsInt());
        if (v.type() == DataType::kDouble) return Value(-v.AsDouble());
        return Status::ExecutionError("unary minus on non-numeric");
      }
      return Status::Internal("unknown unary operator " + e.op);
    }
    case Kind::kLike: {
      XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e.lhs, layout, row));
      if (v.is_null()) return Value::Null();
      if (v.type() != DataType::kString) {
        return Status::ExecutionError("LIKE applied to non-string");
      }
      bool m = LikeMatch(v.AsString(), e.pattern);
      return Value(e.negated ? !m : m);
    }
    case Kind::kAgg:
      return Status::Internal(
          "aggregate expression evaluated outside aggregation");
    case Kind::kFunc: {
      XNFDB_ASSIGN_OR_RETURN(Value a, EvalExpr(*e.lhs, layout, row));
      Value b;
      if (e.rhs != nullptr) {
        XNFDB_ASSIGN_OR_RETURN(b, EvalExpr(*e.rhs, layout, row));
      }
      if (a.is_null() || (e.rhs != nullptr && b.is_null())) {
        return Value::Null();
      }
      if (e.op == "UPPER" || e.op == "LOWER") {
        if (a.type() != DataType::kString) {
          return Status::ExecutionError(e.op + " applied to non-string");
        }
        std::string s = a.AsString();
        for (char& c : s) {
          c = e.op == "UPPER" ? std::toupper(static_cast<unsigned char>(c))
                              : std::tolower(static_cast<unsigned char>(c));
        }
        return Value(std::move(s));
      }
      if (e.op == "LENGTH") {
        if (a.type() != DataType::kString) {
          return Status::ExecutionError("LENGTH applied to non-string");
        }
        return Value(static_cast<int64_t>(a.AsString().size()));
      }
      if (e.op == "ABS") {
        if (a.type() == DataType::kInt) {
          return Value(a.AsInt() < 0 ? -a.AsInt() : a.AsInt());
        }
        if (a.type() == DataType::kDouble) {
          return Value(std::fabs(a.AsDouble()));
        }
        return Status::ExecutionError("ABS applied to non-numeric");
      }
      if (e.op == "ROUND") {
        if (a.type() == DataType::kInt) return a;
        if (a.type() == DataType::kDouble) {
          return Value(static_cast<int64_t>(std::llround(a.AsDouble())));
        }
        return Status::ExecutionError("ROUND applied to non-numeric");
      }
      if (e.op == "MOD") {
        if (a.type() != DataType::kInt || b.type() != DataType::kInt) {
          return Status::ExecutionError("MOD requires integer arguments");
        }
        if (b.AsInt() == 0) {
          return Status::ExecutionError("MOD by zero");
        }
        return Value(a.AsInt() % b.AsInt());
      }
      if (e.op == "CONCAT") {
        if (a.type() != DataType::kString || b.type() != DataType::kString) {
          return Status::ExecutionError("CONCAT requires string arguments");
        }
        return Value(a.AsString() + b.AsString());
      }
      return Status::Internal("unknown scalar function " + e.op);
    }
  }
  return Status::Internal("unknown expression kind");
}

Result<bool> EvalPredicate(const qgm::Expr& e, const Layout& layout,
                           RowView row) {
  XNFDB_ASSIGN_OR_RETURN(Value v, EvalExpr(e, layout, row));
  if (v.is_null()) return false;
  if (v.type() != DataType::kBool) {
    return Status::ExecutionError("predicate did not evaluate to boolean");
  }
  return v.AsBool();
}

}  // namespace xnfdb
