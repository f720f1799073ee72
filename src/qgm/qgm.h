// The Query Graph Model (QGM) — xnfdb's internal query representation,
// modelled after Starburst's QGM (paper Sect. 3.2, Fig. 3/4).
//
// A query is a graph of *boxes*. Each box has a *head* (the output columns it
// produces) and a *body* (how the output is derived): quantifiers ranging
// over other boxes plus predicates. Quantifier kinds follow Starburst:
//   F (ForEach)  — contributes rows (join semantics),
//   E (Exists)   — existential check (subquery semantics).
//
// Extensions for XNF (paper Sect. 4.1):
//  * a kXnf box whose body holds the component/relationship boxes of a
//    composite object together with reachability marks ('R' in Fig. 4), and
//  * a kTop box able to output several heterogeneous streams (component rows
//    and connection tuples) instead of a single table.
//
// Disjunctive reachability (a component reachable through *any* of several
// relationships, like xskills in Fig. 1) is modelled by `ExistsGroup`s: a row
// qualifies if all ordinary predicates hold AND at least one exists-group
// matches.

#ifndef XNFDB_QGM_QGM_H_
#define XNFDB_QGM_QGM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace xnfdb {
namespace qgm {

class QueryGraph;

// ---------------------------------------------------------------------------
// Scalar expressions over quantifier columns
// ---------------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kLiteral,
    kColRef,    // column `column` of quantifier `quant_id`
    kBinary,    // op in {AND OR = <> < <= > >= + - * /}
    kUnary,     // op in {NOT, -}
    kLike,
    kAgg,       // COUNT/SUM/MIN/MAX/AVG over lhs (lhs null => COUNT(*))
    kFunc,      // scalar function `op` over lhs [, rhs]
  };

  // Dispatch tag for kBinary, resolved from `op` once in MakeBinary so the
  // evaluator never string-matches the operator per row.
  enum class BinOp {
    kNone,  // non-binary node, or unrecognized `op` (evaluation error)
    kAnd,
    kOr,
    kCmp,  // cmp_op holds which comparison
    kAdd,
    kSub,
    kMul,
    kDiv,
  };

  Kind kind = Kind::kLiteral;

  Value literal;          // kLiteral
  int quant_id = -1;      // kColRef
  int column = -1;        // kColRef
  std::string op;         // kBinary / kUnary / kAgg (function name)
  BinOp bin_op = BinOp::kNone;          // kBinary
  CompareOp cmp_op = CompareOp::kEq;    // kBinary when bin_op == kCmp
  ExprPtr lhs;            // kBinary lhs, kUnary operand, kLike operand, kAgg arg
  ExprPtr rhs;            // kBinary rhs
  std::string pattern;    // kLike
  bool negated = false;   // kLike

  static ExprPtr MakeLiteral(Value v);
  static ExprPtr MakeColRef(int quant_id, int column);
  static ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeUnary(std::string op, ExprPtr operand);
  static ExprPtr MakeLike(ExprPtr operand, std::string pattern, bool negated);
  static ExprPtr MakeAgg(std::string func, ExprPtr arg);
  static ExprPtr MakeFunc(std::string func, ExprPtr a, ExprPtr b = nullptr);

  ExprPtr Clone() const;

  // Collects the quantifier ids referenced anywhere in this expression.
  void CollectQuants(std::vector<int>* out) const;

  // Rendering like "q0.DNO = q1.EDNO" (uses quantifier names from `graph`).
  std::string ToString(const QueryGraph* graph) const;
};

// Replaces every reference to quantifier `from` by quantifier `to`,
// translating column indexes through `column_map` (column_map[i] is the
// column index in `to` corresponding to column i of `from`; -1 = invalid).
Status RemapQuant(Expr* e, int from, int to, const std::vector<int>& column_map);

// True if the expression references `quant_id`.
bool RefersToQuant(const Expr& e, int quant_id);

// True if the expression contains an aggregate.
bool ContainsAgg(const Expr& e);

// ---------------------------------------------------------------------------
// Boxes and quantifiers
// ---------------------------------------------------------------------------

enum class QuantKind {
  kForeach,  // F — join semantics
  kExists,   // E — existential semantics (within an ExistsGroup)
};

struct Quantifier {
  int id = -1;
  QuantKind kind = QuantKind::kForeach;
  std::string name;  // range-variable name, for display
  int box_id = -1;   // the box this quantifier ranges over
};

// One alternative of a disjunctive existential predicate: the row qualifies
// if the E-quantifiers in `quant_ids` admit a binding satisfying `preds`.
// A negated group (NOT EXISTS / NOT IN) qualifies when NO binding exists.
struct ExistsGroup {
  std::vector<int> quant_ids;
  std::vector<ExprPtr> preds;
  bool negated = false;
};

struct HeadColumn {
  std::string name;
  ExprPtr expr;  // over the body's F-quantifiers
};

enum class BoxKind {
  kBaseTable,
  kSelect,
  kUnion,
  kXnf,
  kTop,
};

const char* BoxKindName(BoxKind kind);

// Metadata for one component of an XNF box (paper Fig. 4): either a
// component table (node) or a relationship (edge).
struct XnfComponent {
  std::string name;
  bool is_relationship = false;
  bool reachable = false;  // the 'R' mark: must be reachable from a parent
  bool is_root = false;    // anchor component
  bool taken = false;      // appears in TAKE (is an output)
  int box_id = -1;         // the box deriving this component

  // Set by the XNF semantic rewrite: the reachability-filtered derivation.
  int final_box_id = -1;

  // CO composition (closure): this component's candidates are the extent
  // of component `import_component` of the XNF box `import_xnf_box`
  // (an imported sub-view compiled into the same graph). `box_id` is then
  // an identity wrapper that the rewrite re-points at the import's final
  // derivation.
  int import_xnf_box = -1;
  std::string import_component;

  // Relationship-only fields.
  std::string parent;
  std::string role;
  std::vector<std::string> children;
  std::vector<std::string> take_columns;  // TAKE projection, empty = all
};

// One output stream of the TOP box (heterogeneous answer set, Sect. 4.1).
struct TopOutput {
  std::string name;       // component / relationship name
  int box_id = -1;        // box producing the stream
  bool is_connection = false;
  // True for XNF component-table streams: rows get system-generated tuple
  // ids and are deduplicated (object sharing, Sect. 2). False for plain SQL
  // results, which keep multiset semantics.
  bool xnf_component = false;

  // Component streams: projection (TAKE columns) as head indexes of box_id.
  std::vector<int> cols;

  // Connection streams: the head of `box_id` is the concatenation of the
  // partner components' columns. partner_names[i] identifies the component;
  // partner_cols[i] are the head indexes carrying that partner's (projected)
  // columns; partner_arity[i] == partner_cols[i].size().
  std::vector<std::string> partner_names;
  std::vector<int> partner_arity;
  std::vector<std::vector<int>> partner_cols;
};

struct Box {
  int id = -1;
  BoxKind kind = BoxKind::kSelect;
  std::string label;

  // kBaseTable.
  std::string table_name;
  Schema base_schema;

  // Head (kSelect, kUnion; base tables derive theirs from base_schema).
  std::vector<HeadColumn> head;
  bool distinct = false;

  // Body (kSelect, kTop).
  std::vector<Quantifier> quants;
  std::vector<ExprPtr> preds;  // conjunctive
  // Existential groups. With groups_disjunctive a row qualifies when ANY
  // group matches (OR — the shape of disjunctive XNF reachability and of
  // `EXISTS(..) OR EXISTS(..)`); otherwise ALL groups must match
  // (ordinary conjunctive EXISTS predicates).
  std::vector<ExistsGroup> exists_groups;
  bool groups_disjunctive = false;
  std::vector<ExprPtr> group_by;

  // Top-level ordering: pairs of (head column index, descending).
  std::vector<std::pair<int, bool>> order_by;

  // Row limiting, applied after ordering: emit at most `limit` rows
  // (-1 = unlimited) after skipping `offset`.
  int64_t limit = -1;
  int64_t offset = 0;

  // kUnion: input box ids; all heads must have equal arity.
  std::vector<int> union_inputs;

  // kXnf.
  std::vector<XnfComponent> components;

  // kTop.
  std::vector<TopOutput> outputs;

  // Number of output columns.
  size_t HeadArity() const {
    return kind == BoxKind::kBaseTable ? base_schema.size() : head.size();
  }
  // Output column name.
  std::string HeadName(size_t i) const;

  // The quantifier with `id` declared in this box's body (incl. exists
  // groups), or nullptr.
  const Quantifier* FindQuant(int id) const;
  Quantifier* FindQuant(int id);

  // F-quantifiers only (not part of any exists group).
  std::vector<const Quantifier*> ForeachQuants() const;

  // Finds the XNF component by name (kXnf boxes), or nullptr.
  XnfComponent* FindComponent(const std::string& name);
  const XnfComponent* FindComponent(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// The graph
// ---------------------------------------------------------------------------

class QueryGraph {
 public:
  QueryGraph() = default;
  QueryGraph(const QueryGraph&) = delete;
  QueryGraph& operator=(const QueryGraph&) = delete;

  Box* NewBox(BoxKind kind, std::string label = "");
  Box* box(int id) { return boxes_[id].get(); }
  const Box* box(int id) const { return boxes_[id].get(); }
  size_t box_count() const { return boxes_.size(); }

  // Boxes are never physically deleted (ids stay stable); dead boxes are
  // flagged and skipped by consumers/printers.
  void MarkDead(int id) { dead_[id] = true; }
  bool IsDead(int id) const { return dead_[id]; }

  int AllocQuantId() { return next_quant_id_++; }

  int top_box_id() const { return top_box_id_; }
  void set_top_box_id(int id) { top_box_id_ = id; }

  // Declares quantifier ownership so colrefs can be resolved globally.
  // Called by builders after adding a quantifier to a box body.
  void RegisterQuant(int quant_id, int owner_box_id);

  // The box that declares `quant_id` in its body, or -1.
  int QuantOwnerBox(int quant_id) const;
  // The box a quantifier ranges over, or nullptr.
  const Box* RangedBox(int quant_id) const;
  // The quantifier record, or nullptr.
  const Quantifier* FindQuant(int quant_id) const;

  // All live boxes having a quantifier (or union input) over `box_id`.
  std::vector<int> Consumers(int box_id) const;

  // Total number of live references to `box_id` (quantifiers, union
  // inputs, top outputs, XNF components). A self-join over one box counts
  // twice — the planner uses this to decide spooling.
  int ConsumerRefCount(int box_id) const;

  // Output type of head column `i` of `box_id` (resolving through colrefs).
  Result<DataType> HeadType(int box_id, size_t i) const;
  // Type of an expression evaluated in the context of any box.
  Result<DataType> InferType(const Expr& e) const;

  // Structural sanity checks: colrefs resolve, quantifier registry matches,
  // union arities agree, no dangling box references.
  Status Validate() const;

  // Multi-line rendering of the whole graph (Fig. 4-style, textual).
  std::string ToString() const;

 private:
  std::vector<std::unique_ptr<Box>> boxes_;
  std::vector<bool> dead_;
  std::vector<int> quant_owner_;  // quant id -> box id
  int next_quant_id_ = 0;
  int top_box_id_ = -1;
};

// Convenience: appends a fresh F/E quantifier over `ranged_box` to `box`'s
// body (not to an exists group) and registers it. Returns its id.
int AddQuant(QueryGraph* graph, Box* box, QuantKind kind, int ranged_box,
             std::string name);

// Splits a boolean expression into its top-level conjuncts.
void SplitConjuncts(ExprPtr e, std::vector<ExprPtr>* out);

}  // namespace qgm
}  // namespace xnfdb

#endif  // XNFDB_QGM_QGM_H_
