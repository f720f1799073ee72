#include "parser/fingerprint.h"

#include <cstdio>

#include "common/str_util.h"

namespace xnfdb {

namespace {

using ast::Expr;
using ast::SelectStmt;
using ast::TableRef;

// One normalization pass over a statement: renders its shape text (every
// literal as `?`) and, alongside, the literal values it replaced, in visit
// order — so the literal-keeping digest costs no second walk.
class Normalizer {
 public:
  std::string NormExpr(const Expr& e);
  std::string NormSelect(const SelectStmt& s);
  std::string NormTableRef(const TableRef& t);
  std::string NormXnf(const ast::XnfQuery& q);
  std::string NormStatement(const ast::Statement& stmt);

  // Length-prefixed renderings of the replaced literals.
  std::string literals;

 private:
  // Records one replaced literal and returns its placeholder.
  std::string Literal(const std::string& rendered) {
    literals += std::to_string(rendered.size()) + ":" + rendered;
    return "?";
  }
  std::string Literal(const Value& v) {
    if (v.type() != DataType::kDouble) return Literal(v.ToString());
    // Full precision: Value::ToString rounds doubles to 6 digits.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "d%.17g", v.AsDouble());
    return Literal(std::string(buf));
  }
};

std::string Normalizer::NormTableRef(const TableRef& t) {
  std::string p = t.subquery ? "(" + NormSelect(*t.subquery) + ")" : t.table;
  if (!t.alias.empty()) p += " " + t.alias;
  return p;
}

std::string Normalizer::NormExpr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return Literal(static_cast<const ast::Literal&>(e).value);
    case Expr::Kind::kColumnRef: {
      const auto& c = static_cast<const ast::ColumnRef&>(e);
      return c.qualifier.empty() ? c.column : c.qualifier + "." + c.column;
    }
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const ast::Binary&>(e);
      // Operands are rendered in separate statements: literal visit order
      // must be defined, not left to operator+ evaluation order.
      std::string lhs = NormExpr(*b.lhs);
      std::string rhs = NormExpr(*b.rhs);
      return "(" + lhs + " " + b.op + " " + rhs + ")";
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const ast::Unary&>(e);
      return u.op + " (" + NormExpr(*u.operand) + ")";
    }
    case Expr::Kind::kExists: {
      const auto& x = static_cast<const ast::Exists&>(e);
      return "EXISTS (" + NormSelect(*x.subquery) + ")";
    }
    case Expr::Kind::kInSubquery: {
      const auto& in = static_cast<const ast::InSubquery&>(e);
      std::string operand = NormExpr(*in.operand);
      return operand + (in.negated ? " NOT IN (" : " IN (") +
             NormSelect(*in.subquery) + ")";
    }
    case Expr::Kind::kLike: {
      const auto& l = static_cast<const ast::Like&>(e);
      // The pattern is a constant: normalize like any other literal.
      std::string operand = NormExpr(*l.operand);
      return operand + (l.negated ? " NOT LIKE " : " LIKE ") +
             Literal("'" + l.pattern + "'");
    }
    case Expr::Kind::kFuncCall: {
      const auto& f = static_cast<const ast::FuncCall&>(e);
      if (f.args.empty()) return f.name + "(*)";
      std::string s = f.name + "(";
      for (size_t i = 0; i < f.args.size(); ++i) {
        if (i > 0) s += ", ";
        s += NormExpr(*f.args[i]);
      }
      return s + ")";
    }
  }
  return "?";
}

std::string Normalizer::NormSelect(const SelectStmt& s) {
  std::string out = "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  std::vector<std::string> parts;
  for (const ast::SelectItem& item : s.items) {
    if (item.is_star) {
      parts.push_back(item.star_qualifier.empty()
                          ? "*"
                          : item.star_qualifier + ".*");
    } else {
      std::string p = NormExpr(*item.expr);
      if (!item.alias.empty()) p += " AS " + item.alias;
      parts.push_back(std::move(p));
    }
  }
  out += Join(parts, ", ");
  if (!s.from.empty()) {
    parts.clear();
    for (const TableRef& t : s.from) parts.push_back(NormTableRef(t));
    out += " FROM " + Join(parts, ", ");
  }
  if (s.where) out += " WHERE " + NormExpr(*s.where);
  if (!s.group_by.empty()) {
    parts.clear();
    for (const ast::ExprPtr& g : s.group_by) parts.push_back(NormExpr(*g));
    out += " GROUP BY " + Join(parts, ", ");
  }
  if (s.having) out += " HAVING " + NormExpr(*s.having);
  if (!s.order_by.empty()) {
    parts.clear();
    for (const ast::OrderItem& o : s.order_by) {
      parts.push_back(NormExpr(*o.expr) + (o.descending ? " DESC" : ""));
    }
    out += " ORDER BY " + Join(parts, ", ");
  }
  // LIMIT/OFFSET constants are normalized like literals: paging through a
  // result set is one shape, not one per page.
  if (s.limit >= 0) out += " LIMIT " + Literal(std::to_string(s.limit));
  if (s.offset > 0) out += " OFFSET " + Literal(std::to_string(s.offset));
  if (s.union_next) {
    out += s.union_all ? " UNION ALL " : " UNION ";
    out += NormSelect(*s.union_next);
  }
  return out;
}

std::string Normalizer::NormXnf(const ast::XnfQuery& q) {
  std::string out = "OUT OF ";
  std::vector<std::string> parts;
  for (const ast::XnfDef& def : q.defs) {
    std::string p = def.name + " AS ";
    if (def.free_reachability) p += "FREE ";
    if (def.kind == ast::XnfDef::Kind::kTable) {
      if (def.select) {
        p += "(" + NormSelect(*def.select) + ")";
      } else if (!def.view_ref.empty()) {
        p += def.view_ref + "." + def.view_component;
      } else {
        p += def.base_table;
      }
    } else {
      p += "(RELATE " + def.relate.parent + " VIA " + def.relate.role;
      for (const std::string& child : def.relate.children) p += ", " + child;
      if (!def.relate.using_tables.empty()) {
        std::vector<std::string> using_parts;
        for (const TableRef& t : def.relate.using_tables) {
          using_parts.push_back(NormTableRef(t));
        }
        p += " USING " + Join(using_parts, ", ");
      }
      if (def.relate.where) p += " WHERE " + NormExpr(*def.relate.where);
      p += ")";
    }
    parts.push_back(std::move(p));
  }
  out += Join(parts, ", ");
  out += " TAKE ";
  if (q.take_all) {
    out += "*";
  } else {
    parts.clear();
    for (const ast::TakeItem& item : q.take) {
      std::string p = item.name;
      if (!item.columns.empty()) p += "(" + Join(item.columns, ", ") + ")";
      parts.push_back(std::move(p));
    }
    out += Join(parts, ", ");
  }
  return out;
}

std::string Normalizer::NormStatement(const ast::Statement& stmt) {
  using Kind = ast::Statement::Kind;
  switch (stmt.kind) {
    case Kind::kSelect:
      return NormSelect(*static_cast<const ast::SelectStatement&>(stmt).select);
    case Kind::kXnfQuery:
      return NormXnf(*static_cast<const ast::XnfStatement&>(stmt).query);
    case Kind::kCreateTable: {
      const auto& s = static_cast<const ast::CreateTableStatement&>(stmt);
      std::string out = "CREATE TABLE " + s.name + " (";
      std::vector<std::string> parts;
      for (const Column& col : s.columns) {
        parts.push_back(col.name + " " + DataTypeName(col.type));
      }
      out += Join(parts, ", ") + ")";
      return out;
    }
    case Kind::kCreateView: {
      const auto& s = static_cast<const ast::CreateViewStatement&>(stmt);
      std::string body = s.is_xnf ? NormXnf(*s.xnf) : NormSelect(*s.select);
      return "CREATE VIEW " + s.name + " AS " + body;
    }
    case Kind::kCreateIndex: {
      const auto& s = static_cast<const ast::CreateIndexStatement&>(stmt);
      return std::string("CREATE ") + (s.ordered ? "ORDERED " : "") +
             "INDEX ON " + s.table + "(" + s.column + ")";
    }
    case Kind::kInsert: {
      const auto& s = static_cast<const ast::InsertStatement&>(stmt);
      // One `?` per column of the first row; the row count is elided so a
      // bulk INSERT keeps one shape regardless of batch size.
      size_t arity = s.rows.empty() ? 0 : s.rows.front().size();
      std::string out = "INSERT INTO " + s.table + " VALUES (";
      for (size_t i = 0; i < arity; ++i) {
        if (i > 0) out += ", ";
        out += "?";
      }
      return out + ")";
    }
    case Kind::kUpdate: {
      const auto& s = static_cast<const ast::UpdateStatement&>(stmt);
      std::string out = "UPDATE " + s.table + " SET ";
      std::vector<std::string> parts;
      for (const auto& [col, expr] : s.assignments) {
        parts.push_back(col + " = " + NormExpr(*expr));
      }
      out += Join(parts, ", ");
      if (s.where) out += " WHERE " + NormExpr(*s.where);
      return out;
    }
    case Kind::kDelete: {
      const auto& s = static_cast<const ast::DeleteStatement&>(stmt);
      std::string out = "DELETE FROM " + s.table;
      if (s.where) out += " WHERE " + NormExpr(*s.where);
      return out;
    }
    case Kind::kDropTable:
      return "DROP TABLE " + static_cast<const ast::DropStatement&>(stmt).name;
    case Kind::kDropView:
      return "DROP VIEW " + static_cast<const ast::DropStatement&>(stmt).name;
    case Kind::kMaterialize:
      return "MATERIALIZE " +
             static_cast<const ast::MaterializeStatement&>(stmt).name;
    case Kind::kDematerialize:
      return "DEMATERIALIZE " +
             static_cast<const ast::MaterializeStatement&>(stmt).name;
  }
  return "?";
}

uint64_t FnvExtend(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Fingerprint Finish(std::string text, const Normalizer& norm) {
  Fingerprint fp;
  fp.digest = FingerprintHash(text);
  // The exact digest continues the same hash over a separator and the
  // literals, so a literal-free statement has exact_digest == digest.
  fp.exact_digest = norm.literals.empty()
                        ? fp.digest
                        : FnvExtend(fp.digest, "\x1e" + norm.literals);
  fp.text = std::move(text);
  return fp;
}

}  // namespace

uint64_t FingerprintHash(const std::string& s) {
  return FnvExtend(14695981039346656037ull, s);  // FNV-1a 64-bit basis
}

Fingerprint FingerprintSelect(const ast::SelectStmt& select) {
  Normalizer norm;
  std::string text = norm.NormSelect(select);
  return Finish(std::move(text), norm);
}

Fingerprint FingerprintXnf(const ast::XnfQuery& query) {
  Normalizer norm;
  std::string text = norm.NormXnf(query);
  return Finish(std::move(text), norm);
}

Fingerprint FingerprintStatement(const ast::Statement& stmt) {
  Normalizer norm;
  std::string text = norm.NormStatement(stmt);
  return Finish(std::move(text), norm);
}

}  // namespace xnfdb
