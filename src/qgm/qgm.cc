#include "qgm/qgm.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

#include "common/str_util.h"

namespace xnfdb {
namespace qgm {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

ExprPtr Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::MakeColRef(int quant_id, int column) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColRef;
  e->quant_id = quant_id;
  e->column = column;
  return e;
}

ExprPtr Expr::MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  if (op == "AND") {
    e->bin_op = BinOp::kAnd;
  } else if (op == "OR") {
    e->bin_op = BinOp::kOr;
  } else if (op == "+") {
    e->bin_op = BinOp::kAdd;
  } else if (op == "-") {
    e->bin_op = BinOp::kSub;
  } else if (op == "*") {
    e->bin_op = BinOp::kMul;
  } else if (op == "/") {
    e->bin_op = BinOp::kDiv;
  } else if (ParseCompareOp(op, &e->cmp_op)) {
    e->bin_op = BinOp::kCmp;
  }
  e->op = std::move(op);
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr Expr::MakeUnary(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->op = std::move(op);
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::MakeLike(ExprPtr operand, std::string pattern, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLike;
  e->lhs = std::move(operand);
  e->pattern = std::move(pattern);
  e->negated = negated;
  return e;
}

ExprPtr Expr::MakeAgg(std::string func, ExprPtr arg) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAgg;
  e->op = std::move(func);
  e->lhs = std::move(arg);
  return e;
}

ExprPtr Expr::MakeFunc(std::string func, ExprPtr a, ExprPtr b) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kFunc;
  e->op = std::move(func);
  e->lhs = std::move(a);
  e->rhs = std::move(b);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->quant_id = quant_id;
  e->column = column;
  e->op = op;
  e->bin_op = bin_op;
  e->cmp_op = cmp_op;
  e->pattern = pattern;
  e->negated = negated;
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  return e;
}

void Expr::CollectQuants(std::vector<int>* out) const {
  if (kind == Kind::kColRef) {
    if (std::find(out->begin(), out->end(), quant_id) == out->end()) {
      out->push_back(quant_id);
    }
    return;
  }
  if (lhs) lhs->CollectQuants(out);
  if (rhs) rhs->CollectQuants(out);
}

std::string Expr::ToString(const QueryGraph* graph) const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kColRef: {
      std::string qname = "q" + std::to_string(quant_id);
      std::string cname = "#" + std::to_string(column);
      if (graph != nullptr) {
        const Quantifier* q = graph->FindQuant(quant_id);
        if (q != nullptr && !q->name.empty()) qname = q->name;
        const Box* ranged = graph->RangedBox(quant_id);
        if (ranged != nullptr &&
            static_cast<size_t>(column) < ranged->HeadArity()) {
          cname = ranged->HeadName(column);
        }
      }
      return qname + "." + cname;
    }
    case Kind::kBinary:
      return "(" + lhs->ToString(graph) + " " + op + " " +
             rhs->ToString(graph) + ")";
    case Kind::kUnary:
      return op + "(" + lhs->ToString(graph) + ")";
    case Kind::kLike:
      return lhs->ToString(graph) + (negated ? " NOT LIKE '" : " LIKE '") +
             pattern + "'";
    case Kind::kAgg:
      return op + "(" + (lhs ? lhs->ToString(graph) : "*") + ")";
    case Kind::kFunc:
      return op + "(" + (lhs ? lhs->ToString(graph) : "") +
             (rhs ? ", " + rhs->ToString(graph) : "") + ")";
  }
  return "?";
}

Status RemapQuant(Expr* e, int from, int to,
                  const std::vector<int>& column_map) {
  if (e->kind == Expr::Kind::kColRef && e->quant_id == from) {
    if (e->column < 0 || static_cast<size_t>(e->column) >= column_map.size() ||
        column_map[e->column] < 0) {
      return Status::Internal("RemapQuant: column " +
                              std::to_string(e->column) +
                              " has no mapping");
    }
    e->quant_id = to;
    e->column = column_map[e->column];
    return Status::Ok();
  }
  if (e->lhs) XNFDB_RETURN_IF_ERROR(RemapQuant(e->lhs.get(), from, to, column_map));
  if (e->rhs) XNFDB_RETURN_IF_ERROR(RemapQuant(e->rhs.get(), from, to, column_map));
  return Status::Ok();
}

bool RefersToQuant(const Expr& e, int quant_id) {
  if (e.kind == Expr::Kind::kColRef) return e.quant_id == quant_id;
  if (e.lhs && RefersToQuant(*e.lhs, quant_id)) return true;
  if (e.rhs && RefersToQuant(*e.rhs, quant_id)) return true;
  return false;
}

bool ContainsAgg(const Expr& e) {
  if (e.kind == Expr::Kind::kAgg) return true;
  return (e.lhs && ContainsAgg(*e.lhs)) || (e.rhs && ContainsAgg(*e.rhs));
}

void SplitConjuncts(ExprPtr e, std::vector<ExprPtr>* out) {
  if (e->kind == Expr::Kind::kBinary && e->op == "AND") {
    SplitConjuncts(std::move(e->lhs), out);
    SplitConjuncts(std::move(e->rhs), out);
    return;
  }
  out->push_back(std::move(e));
}

// ---------------------------------------------------------------------------
// Box
// ---------------------------------------------------------------------------

const char* BoxKindName(BoxKind kind) {
  switch (kind) {
    case BoxKind::kBaseTable:
      return "BaseTable";
    case BoxKind::kSelect:
      return "Select";
    case BoxKind::kUnion:
      return "Union";
    case BoxKind::kXnf:
      return "XNF";
    case BoxKind::kTop:
      return "Top";
  }
  return "?";
}

std::string Box::HeadName(size_t i) const {
  if (kind == BoxKind::kBaseTable) {
    return i < base_schema.size() ? base_schema.column(i).name : "?";
  }
  return i < head.size() ? head[i].name : "?";
}

const Quantifier* Box::FindQuant(int qid) const {
  for (const Quantifier& q : quants) {
    if (q.id == qid) return &q;
  }
  return nullptr;
}

Quantifier* Box::FindQuant(int qid) {
  return const_cast<Quantifier*>(
      static_cast<const Box*>(this)->FindQuant(qid));
}

std::vector<const Quantifier*> Box::ForeachQuants() const {
  std::vector<const Quantifier*> out;
  for (const Quantifier& q : quants) {
    if (q.kind == QuantKind::kForeach) out.push_back(&q);
  }
  return out;
}

XnfComponent* Box::FindComponent(const std::string& name) {
  for (XnfComponent& c : components) {
    if (IdentEquals(c.name, name)) return &c;
  }
  return nullptr;
}

const XnfComponent* Box::FindComponent(const std::string& name) const {
  return const_cast<Box*>(this)->FindComponent(name);
}

// ---------------------------------------------------------------------------
// QueryGraph
// ---------------------------------------------------------------------------

Box* QueryGraph::NewBox(BoxKind kind, std::string label) {
  auto box = std::make_unique<Box>();
  box->id = static_cast<int>(boxes_.size());
  box->kind = kind;
  box->label = std::move(label);
  Box* raw = box.get();
  boxes_.push_back(std::move(box));
  dead_.push_back(false);
  return raw;
}

void QueryGraph::RegisterQuant(int quant_id, int owner_box_id) {
  if (static_cast<size_t>(quant_id) >= quant_owner_.size()) {
    quant_owner_.resize(quant_id + 1, -1);
  }
  quant_owner_[quant_id] = owner_box_id;
}

int QuantOwnerBoxImplUnused();  // silence -Wunused in some toolchains

int QueryGraph::QuantOwnerBox(int quant_id) const {
  if (quant_id < 0 || static_cast<size_t>(quant_id) >= quant_owner_.size()) {
    return -1;
  }
  return quant_owner_[quant_id];
}

const Quantifier* QueryGraph::FindQuant(int quant_id) const {
  int owner = QuantOwnerBox(quant_id);
  if (owner < 0) return nullptr;
  return box(owner)->FindQuant(quant_id);
}

const Box* QueryGraph::RangedBox(int quant_id) const {
  const Quantifier* q = FindQuant(quant_id);
  if (q == nullptr || q->box_id < 0) return nullptr;
  return box(q->box_id);
}

std::vector<int> QueryGraph::Consumers(int box_id) const {
  std::vector<int> out;
  for (const auto& b : boxes_) {
    if (dead_[b->id]) continue;
    bool consumes = false;
    for (const Quantifier& q : b->quants) {
      if (q.box_id == box_id) consumes = true;
    }
    for (int in : b->union_inputs) {
      if (in == box_id) consumes = true;
    }
    if (b->kind == BoxKind::kTop) {
      for (const TopOutput& o : b->outputs) {
        if (o.box_id == box_id) consumes = true;
      }
    }
    if (b->kind == BoxKind::kXnf) {
      for (const XnfComponent& c : b->components) {
        if (c.box_id == box_id) consumes = true;
      }
    }
    if (consumes) out.push_back(b->id);
  }
  return out;
}

int QueryGraph::ConsumerRefCount(int box_id) const {
  int refs = 0;
  for (const auto& b : boxes_) {
    if (dead_[b->id]) continue;
    for (const Quantifier& q : b->quants) {
      if (q.box_id == box_id) ++refs;
    }
    for (int in : b->union_inputs) {
      if (in == box_id) ++refs;
    }
    for (const TopOutput& o : b->outputs) {
      if (o.box_id == box_id) ++refs;
    }
    for (const XnfComponent& c : b->components) {
      if (c.box_id == box_id) ++refs;
    }
  }
  return refs;
}

Result<DataType> QueryGraph::HeadType(int box_id, size_t i) const {
  const Box* b = box(box_id);
  if (b->kind == BoxKind::kBaseTable) {
    if (i >= b->base_schema.size()) {
      return Status::Internal("head column out of range");
    }
    return b->base_schema.column(i).type;
  }
  if (b->kind == BoxKind::kUnion) {
    if (b->union_inputs.empty()) {
      return Status::Internal("union box without inputs");
    }
    return HeadType(b->union_inputs[0], i);
  }
  if (i >= b->head.size()) {
    return Status::Internal("head column out of range");
  }
  if (b->head[i].expr == nullptr) {
    return Status::Internal("head column without expression");
  }
  return InferType(*b->head[i].expr);
}

Result<DataType> QueryGraph::InferType(const Expr& e) const {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal.type();
    case Expr::Kind::kColRef: {
      const Quantifier* q = FindQuant(e.quant_id);
      if (q == nullptr) {
        return Status::Internal("unresolvable quantifier q" +
                                std::to_string(e.quant_id));
      }
      return HeadType(q->box_id, e.column);
    }
    case Expr::Kind::kBinary: {
      if (e.op == "AND" || e.op == "OR" || e.op == "=" || e.op == "<>" ||
          e.op == "<" || e.op == "<=" || e.op == ">" || e.op == ">=") {
        return DataType::kBool;
      }
      XNFDB_ASSIGN_OR_RETURN(DataType lt, InferType(*e.lhs));
      XNFDB_ASSIGN_OR_RETURN(DataType rt, InferType(*e.rhs));
      if (e.op == "/") return DataType::kDouble;
      if (lt == DataType::kDouble || rt == DataType::kDouble) {
        return DataType::kDouble;
      }
      return lt == DataType::kNull ? rt : lt;
    }
    case Expr::Kind::kUnary:
      if (e.op == "NOT") return DataType::kBool;
      return InferType(*e.lhs);
    case Expr::Kind::kLike:
      return DataType::kBool;
    case Expr::Kind::kAgg: {
      if (e.op == "COUNT") return DataType::kInt;
      if (e.op == "AVG") return DataType::kDouble;
      if (e.lhs == nullptr) return DataType::kInt;
      return InferType(*e.lhs);
    }
    case Expr::Kind::kFunc: {
      if (e.op == "LENGTH") return DataType::kInt;
      if (e.op == "ABS" || e.op == "ROUND" || e.op == "MOD") {
        return e.lhs ? InferType(*e.lhs) : DataType::kInt;
      }
      return DataType::kString;  // UPPER/LOWER/CONCAT
    }
  }
  return Status::Internal("unknown expression kind");
}

namespace {

Status ValidateExpr(const QueryGraph& g, const Box& b, const Expr& e,
                    const std::vector<int>& visible_quants) {
  if (e.kind == Expr::Kind::kColRef) {
    if (std::find(visible_quants.begin(), visible_quants.end(), e.quant_id) ==
        visible_quants.end()) {
      return Status::Internal("box " + std::to_string(b.id) + " (" + b.label +
                              "): expression references q" +
                              std::to_string(e.quant_id) +
                              " which is not declared in its body");
    }
    const Quantifier* q = g.FindQuant(e.quant_id);
    if (q == nullptr) {
      return Status::Internal("unregistered quantifier q" +
                              std::to_string(e.quant_id));
    }
    const Box* ranged = g.box(q->box_id);
    if (e.column < 0 ||
        static_cast<size_t>(e.column) >= ranged->HeadArity()) {
      return Status::Internal(
          "column #" + std::to_string(e.column) + " out of range for box " +
          std::to_string(ranged->id) + " (" + ranged->label + ")");
    }
  }
  if (e.lhs) XNFDB_RETURN_IF_ERROR(ValidateExpr(g, b, *e.lhs, visible_quants));
  if (e.rhs) XNFDB_RETURN_IF_ERROR(ValidateExpr(g, b, *e.rhs, visible_quants));
  return Status::Ok();
}

}  // namespace

Status QueryGraph::Validate() const {
  for (const auto& bptr : boxes_) {
    const Box& b = *bptr;
    if (dead_[b.id]) continue;
    std::vector<int> visible;
    for (const Quantifier& q : b.quants) {
      visible.push_back(q.id);
      if (QuantOwnerBox(q.id) != b.id) {
        return Status::Internal("quantifier q" + std::to_string(q.id) +
                                " owner registry mismatch in box " +
                                std::to_string(b.id));
      }
      if (q.box_id < 0 || static_cast<size_t>(q.box_id) >= boxes_.size()) {
        return Status::Internal("quantifier over unknown box");
      }
      if (dead_[q.box_id]) {
        return Status::Internal("box " + std::to_string(b.id) + " (" +
                                b.label + ") ranges over dead box " +
                                std::to_string(q.box_id));
      }
    }
    for (const HeadColumn& h : b.head) {
      if (h.expr) XNFDB_RETURN_IF_ERROR(ValidateExpr(*this, b, *h.expr, visible));
    }
    for (const ExprPtr& p : b.preds) {
      XNFDB_RETURN_IF_ERROR(ValidateExpr(*this, b, *p, visible));
    }
    for (const ExistsGroup& grp : b.exists_groups) {
      for (int qid : grp.quant_ids) {
        if (b.FindQuant(qid) == nullptr) {
          return Status::Internal("exists-group quantifier q" +
                                  std::to_string(qid) +
                                  " not declared in box body");
        }
      }
      for (const ExprPtr& p : grp.preds) {
        XNFDB_RETURN_IF_ERROR(ValidateExpr(*this, b, *p, visible));
      }
    }
    for (const ExprPtr& gexpr : b.group_by) {
      XNFDB_RETURN_IF_ERROR(ValidateExpr(*this, b, *gexpr, visible));
    }
    if (b.kind == BoxKind::kUnion) {
      if (b.union_inputs.empty()) {
        return Status::Internal("union box without inputs");
      }
      size_t arity = box(b.union_inputs[0])->HeadArity();
      for (int in : b.union_inputs) {
        if (dead_[in]) return Status::Internal("union over dead box");
        if (box(in)->HeadArity() != arity) {
          return Status::Internal("union input arity mismatch");
        }
      }
    }
  }
  return Status::Ok();
}

std::string QueryGraph::ToString() const {
  std::ostringstream os;
  for (const auto& bptr : boxes_) {
    const Box& b = *bptr;
    if (dead_[b.id]) continue;
    os << "Box " << b.id << " [" << BoxKindName(b.kind) << "]";
    if (!b.label.empty()) os << " '" << b.label << "'";
    if (b.distinct) os << " DISTINCT";
    os << "\n";
    if (b.kind == BoxKind::kBaseTable) {
      os << "  table: " << b.table_name << " (" << b.base_schema.ToString()
         << ")\n";
      continue;
    }
    if (!b.head.empty()) {
      os << "  head:";
      for (const HeadColumn& h : b.head) {
        os << " " << h.name << "="
           << (h.expr ? h.expr->ToString(this) : "?");
      }
      os << "\n";
    }
    for (const Quantifier& q : b.quants) {
      bool in_group = false;
      for (const ExistsGroup& grp : b.exists_groups) {
        for (int qid : grp.quant_ids) {
          if (qid == q.id) in_group = true;
        }
      }
      os << "  quant q" << q.id << " '" << q.name << "' ["
         << (q.kind == QuantKind::kForeach ? "F" : "E")
         << (in_group ? ", grouped" : "") << "] over box " << q.box_id
         << "\n";
    }
    for (const ExprPtr& p : b.preds) {
      os << "  pred: " << p->ToString(this) << "\n";
    }
    for (size_t gi = 0; gi < b.exists_groups.size(); ++gi) {
      os << "  exists-group " << gi << ":";
      for (int qid : b.exists_groups[gi].quant_ids) os << " q" << qid;
      for (const ExprPtr& p : b.exists_groups[gi].preds) {
        os << " | " << p->ToString(this);
      }
      os << "\n";
    }
    for (const ExprPtr& gexpr : b.group_by) {
      os << "  group-by: " << gexpr->ToString(this) << "\n";
    }
    if (b.kind == BoxKind::kUnion) {
      os << "  union of boxes:";
      for (int in : b.union_inputs) os << " " << in;
      os << "\n";
    }
    for (const XnfComponent& c : b.components) {
      os << "  component '" << c.name << "'"
         << (c.is_relationship ? " [relationship]" : " [table]")
         << (c.reachable ? " R" : "") << (c.is_root ? " root" : "")
         << " box " << c.box_id;
      if (c.is_relationship) {
        os << " parent=" << c.parent << " children=" << Join(c.children, ",");
        if (!c.role.empty()) os << " via " << c.role;
      }
      os << "\n";
    }
    for (const TopOutput& o : b.outputs) {
      os << "  output '" << o.name << "' box " << o.box_id
         << (o.is_connection ? " [connection]" : "") << "\n";
    }
  }
  if (top_box_id_ >= 0) os << "Top box: " << top_box_id_ << "\n";
  return os.str();
}

int AddQuant(QueryGraph* graph, Box* box, QuantKind kind, int ranged_box,
             std::string name) {
  Quantifier q;
  q.id = graph->AllocQuantId();
  q.kind = kind;
  q.name = std::move(name);
  q.box_id = ranged_box;
  box->quants.push_back(std::move(q));
  graph->RegisterQuant(box->quants.back().id, box->id);
  return box->quants.back().id;
}

}  // namespace qgm
}  // namespace xnfdb
