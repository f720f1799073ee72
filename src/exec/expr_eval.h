// Runtime evaluation of QGM scalar expressions.
//
// During box evaluation, the rows of the box's quantifiers are concatenated
// into one combined tuple; a `Layout` records at which offset each
// quantifier's columns live. Column references are resolved through it.

#ifndef XNFDB_EXEC_EXPR_EVAL_H_
#define XNFDB_EXEC_EXPR_EVAL_H_

#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "qgm/qgm.h"

namespace xnfdb {

// Maps quantifier ids to column offsets within a combined tuple. Backed by
// a small id-sorted vector: layouts hold a handful of quantifiers and are
// probed on every column reference, so a linear scan over contiguous slots
// beats tree lookups on the hot path.
class Layout {
 public:
  void Add(int quant_id, size_t offset, size_t arity);
  bool Has(int quant_id) const { return Find(quant_id) != nullptr; }
  size_t Offset(int quant_id) const { return Find(quant_id)->offset; }
  size_t TotalWidth() const;

  // Merges `other`, shifting its offsets by `shift`.
  void Append(const Layout& other, size_t shift);

 private:
  struct Slot {
    int id;
    size_t offset;
    size_t arity;
  };

  // Null when absent; Offset requires a present id (as the old
  // map::at did, minus the exception).
  const Slot* Find(int quant_id) const {
    for (const Slot& s : slots_) {
      if (s.id == quant_id) return &s;
    }
    return nullptr;
  }

  std::vector<Slot> slots_;  // sorted by id
};

// Evaluates `e` against `row` (combined tuple described by `layout`).
// Aggregate expressions are rejected here; the aggregation operator handles
// them separately.
Result<Value> EvalExpr(const qgm::Expr& e, const Layout& layout,
                       RowView row);

// SQL three-valued predicate check: true only when `e` evaluates to TRUE.
Result<bool> EvalPredicate(const qgm::Expr& e, const Layout& layout,
                           RowView row);

// Hash/equality functors for Tuple keys in hash joins and distinct.
struct TupleHash {
  size_t operator()(const Tuple& t) const { return HashRow(t); }
};
struct TupleEq {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return RowsEqual(a, b);
  }
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_EXPR_EVAL_H_
