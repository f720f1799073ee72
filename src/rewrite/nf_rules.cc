#include "rewrite/nf_rules.h"

#include <algorithm>
#include <set>

namespace xnfdb {

namespace {

using qgm::Box;
using qgm::BoxKind;
using qgm::Expr;
using qgm::ExprPtr;
using qgm::HeadColumn;
using qgm::QuantKind;
using qgm::Quantifier;
using qgm::QueryGraph;

// Replaces colrefs to quantifier `q` by clones of the head expressions of
// the box `q` ranged over. Used when inlining that box.
void SubstituteQuant(ExprPtr* e, int q, const std::vector<HeadColumn>& head) {
  Expr* raw = e->get();
  if (raw->kind == Expr::Kind::kColRef && raw->quant_id == q) {
    *e = head[raw->column].expr->Clone();
    return;
  }
  if (raw->lhs) SubstituteQuant(&raw->lhs, q, head);
  if (raw->rhs) SubstituteQuant(&raw->rhs, q, head);
}

// --- E to F quantifier conversion -----------------------------------------

class ExistsToJoinRule : public RewriteRule {
 public:
  const char* name() const override { return "ExistsToJoin"; }

  Result<bool> Apply(QueryGraph* graph) override {
    for (size_t i = 0; i < graph->box_count(); ++i) {
      Box* b = graph->box(static_cast<int>(i));
      if (graph->IsDead(b->id) || b->kind != BoxKind::kSelect) continue;
      // Conjunctive groups convert one at a time (each is an independent
      // existential predicate); a disjunctive set converts only when it has
      // a single alternative. Negated (anti-join) groups stay existential.
      // Aggregating boxes are excluded: the join would change group
      // cardinalities.
      if (b->exists_groups.empty()) continue;
      if (b->groups_disjunctive && b->exists_groups.size() != 1) {
        CountRejected();
        continue;
      }
      if (!b->group_by.empty()) {
        CountRejected();
        continue;
      }
      size_t gi = 0;
      while (gi < b->exists_groups.size() && b->exists_groups[gi].negated) {
        ++gi;
      }
      if (gi == b->exists_groups.size()) {
        CountRejected();
        continue;
      }
      bool has_agg = false;
      for (const HeadColumn& h : b->head) {
        if (h.expr && ContainsAgg(*h.expr)) has_agg = true;
      }
      if (has_agg) {
        CountRejected();
        continue;
      }

      qgm::ExistsGroup group = std::move(b->exists_groups[gi]);
      b->exists_groups.erase(b->exists_groups.begin() + gi);
      for (int qid : group.quant_ids) {
        Quantifier* q = b->FindQuant(qid);
        q->kind = QuantKind::kForeach;
      }
      for (ExprPtr& p : group.preds) b->preds.push_back(std::move(p));
      // The conversion can introduce duplicates (several witnesses per
      // outer row); duplicate elimination over the head restores set
      // semantics, as in [39].
      b->distinct = true;
      return true;
    }
    return false;
  }
};

// --- SELECT merge -----------------------------------------------------------

class SelectMergeRule : public RewriteRule {
 public:
  const char* name() const override { return "SelectMerge"; }

  Result<bool> Apply(QueryGraph* graph) override {
    for (size_t i = 0; i < graph->box_count(); ++i) {
      Box* b = graph->box(static_cast<int>(i));
      if (graph->IsDead(b->id) || b->kind != BoxKind::kSelect) continue;
      for (size_t qi = 0; qi < b->quants.size(); ++qi) {
        if (b->quants[qi].kind != QuantKind::kForeach) continue;
        Box* child = graph->box(b->quants[qi].box_id);
        if (child->kind != BoxKind::kSelect) continue;
        if (!Mergeable(*graph, *b, *child)) {
          // A kSelect child the conditions decline is a real candidate the
          // rule saw and skipped — worth counting in the trace.
          CountRejected();
          continue;
        }
        XNFDB_RETURN_IF_ERROR(Merge(graph, b, qi));
        return true;
      }
    }
    return false;
  }

 private:
  static bool Mergeable(const QueryGraph& graph, const Box& consumer,
                        const Box& child) {
    if (child.kind != BoxKind::kSelect) return false;
    if (child.distinct || !child.group_by.empty() ||
        !child.exists_groups.empty() || !child.order_by.empty()) {
      return false;
    }
    for (const HeadColumn& h : child.head) {
      if (h.expr == nullptr) return false;
      if (ContainsAgg(*h.expr)) return false;
    }
    // Merging a multi-consumer box would duplicate its computation —
    // exactly the common subexpression the XNF rewrite works to share.
    std::vector<int> consumers = graph.Consumers(child.id);
    if (consumers.size() != 1 || consumers[0] != consumer.id) return false;
    // A self-join over the child (two quantifiers of the consumer ranging
    // over it) keeps the box alive after merging one side; skip.
    int quants_over_child = 0;
    for (const Quantifier& q : consumer.quants) {
      if (q.box_id == child.id) ++quants_over_child;
    }
    if (quants_over_child != 1) return false;
    // A consumer whose DISTINCT head would collapse differently is fine:
    // merge preserves the head expressions.
    return true;
  }

  static Status Merge(QueryGraph* graph, Box* b, size_t qi) {
    int merged_quant = b->quants[qi].id;
    Box* child = graph->box(b->quants[qi].box_id);

    // Substitute the merged quantifier's column references by the child's
    // head expressions throughout the consumer.
    for (HeadColumn& h : b->head) {
      if (h.expr) SubstituteQuant(&h.expr, merged_quant, child->head);
    }
    for (ExprPtr& p : b->preds) {
      SubstituteQuant(&p, merged_quant, child->head);
    }
    for (qgm::ExistsGroup& g : b->exists_groups) {
      for (ExprPtr& p : g.preds) {
        SubstituteQuant(&p, merged_quant, child->head);
      }
    }
    for (ExprPtr& g : b->group_by) {
      SubstituteQuant(&g, merged_quant, child->head);
    }

    // Adopt the child's quantifiers and predicates.
    b->quants.erase(b->quants.begin() + qi);
    for (Quantifier& q : child->quants) {
      b->quants.push_back(q);
      graph->RegisterQuant(q.id, b->id);
    }
    for (ExprPtr& p : child->preds) b->preds.push_back(std::move(p));

    child->quants.clear();
    child->preds.clear();
    graph->MarkDead(child->id);
    return Status::Ok();
  }
};

// --- clean-up ---------------------------------------------------------------

class RemoveUnusedBoxesRule : public RewriteRule {
 public:
  const char* name() const override { return "RemoveUnusedBoxes"; }

  Result<bool> Apply(QueryGraph* graph) override {
    if (graph->top_box_id() < 0) return false;
    std::set<int> live;
    std::vector<int> work{graph->top_box_id()};
    while (!work.empty()) {
      int id = work.back();
      work.pop_back();
      if (!live.insert(id).second) continue;
      const Box* b = graph->box(id);
      for (const Quantifier& q : b->quants) work.push_back(q.box_id);
      for (int in : b->union_inputs) work.push_back(in);
      for (const qgm::TopOutput& o : b->outputs) work.push_back(o.box_id);
      for (const qgm::XnfComponent& c : b->components) {
        work.push_back(c.box_id);
      }
    }
    bool changed = false;
    for (size_t i = 0; i < graph->box_count(); ++i) {
      int id = static_cast<int>(i);
      if (!graph->IsDead(id) && live.count(id) == 0) {
        graph->MarkDead(id);
        changed = true;
      }
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<RewriteRule> MakeExistsToJoinRule() {
  return std::make_unique<ExistsToJoinRule>();
}
std::unique_ptr<RewriteRule> MakeSelectMergeRule() {
  return std::make_unique<SelectMergeRule>();
}
std::unique_ptr<RewriteRule> MakeRemoveUnusedBoxesRule() {
  return std::make_unique<RemoveUnusedBoxesRule>();
}

std::vector<std::unique_ptr<RewriteRule>> MakeDefaultNfRules() {
  return MakeNfRules(NfRewriteOptions{});
}

std::vector<std::unique_ptr<RewriteRule>> MakeNfRules(
    const NfRewriteOptions& options) {
  std::vector<std::unique_ptr<RewriteRule>> rules;
  if (options.exists_to_join) rules.push_back(MakeExistsToJoinRule());
  if (options.select_merge) rules.push_back(MakeSelectMergeRule());
  if (options.remove_unused) rules.push_back(MakeRemoveUnusedBoxesRule());
  return rules;
}

}  // namespace xnfdb
