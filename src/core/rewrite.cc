#include "core/rewrite.h"

#include <map>
#include <optional>
#include <set>

namespace expdb {

std::string RewriteReport::ToString() const {
  std::string out;
  for (const auto& [rule, count] : rule_applications) {
    if (!out.empty()) out += ", ";
    out += rule + " x" + std::to_string(count);
  }
  return out.empty() ? "(no rewrites)" : out;
}

namespace {

class Rewriter {
 public:
  Rewriter(const Database& db, RewriteReport* report)
      : db_(db), report_(report) {}

  Result<ExpressionPtr> Rewrite(const ExpressionPtr& e) {
    // Bottom-up: rewrite children first, then apply root rules to a
    // fixpoint (each rule strictly shrinks or restructures, so a small
    // bound suffices; the bound guards against rule cycles).
    ExpressionPtr node = e;
    EXPDB_ASSIGN_OR_RETURN(node, RewriteChildren(node));
    for (int round = 0; round < 8; ++round) {
      EXPDB_ASSIGN_OR_RETURN(ExpressionPtr next, ApplyRootRules(node));
      if (next == node) break;
      // A root rule may have created new rewrite opportunities below.
      EXPDB_ASSIGN_OR_RETURN(node, RewriteChildren(next));
    }
    return node;
  }

 private:
  void Count(const std::string& rule) {
    if (report_ != nullptr) ++report_->rule_applications[rule];
  }

  Result<ExpressionPtr> RewriteChildren(const ExpressionPtr& e) {
    ExpressionPtr left = e->left();
    ExpressionPtr right = e->right();
    bool changed = false;
    if (left != nullptr) {
      EXPDB_ASSIGN_OR_RETURN(ExpressionPtr nl, Rewrite(left));
      changed |= nl != left;
      left = nl;
    }
    if (right != nullptr) {
      EXPDB_ASSIGN_OR_RETURN(ExpressionPtr nr, Rewrite(right));
      changed |= nr != right;
      right = nr;
    }
    if (!changed) return e;
    return Rebuild(e, std::move(left), std::move(right));
  }

  static ExpressionPtr Rebuild(const ExpressionPtr& e, ExpressionPtr left,
                               ExpressionPtr right) {
    switch (e->kind()) {
      case ExprKind::kBase:
        return e;
      case ExprKind::kSelect:
        return Expression::MakeSelect(std::move(left), e->predicate());
      case ExprKind::kProject:
        return Expression::MakeProject(std::move(left), e->projection());
      case ExprKind::kProduct:
        return Expression::MakeProduct(std::move(left), std::move(right));
      case ExprKind::kUnion:
        return Expression::MakeUnion(std::move(left), std::move(right));
      case ExprKind::kJoin:
        return Expression::MakeJoin(std::move(left), std::move(right),
                                    e->predicate());
      case ExprKind::kIntersect:
        return Expression::MakeIntersect(std::move(left), std::move(right));
      case ExprKind::kDifference:
        return Expression::MakeDifference(std::move(left),
                                          std::move(right));
      case ExprKind::kAggregate:
        return Expression::MakeAggregate(std::move(left), e->group_by(),
                                         e->aggregate());
      case ExprKind::kSemiJoin:
        return Expression::MakeSemiJoin(std::move(left), std::move(right),
                                        e->predicate());
      case ExprKind::kAntiJoin:
        return Expression::MakeAntiJoin(std::move(left), std::move(right),
                                        e->predicate());
    }
    return e;
  }

  Result<ExpressionPtr> ApplyRootRules(const ExpressionPtr& e) {
    if (e->kind() == ExprKind::kSelect) return RewriteSelect(e);
    if (e->kind() == ExprKind::kProject) return RewriteProject(e);
    return e;
  }

  Result<ExpressionPtr> RewriteSelect(const ExpressionPtr& e) {
    const ExpressionPtr& child = e->left();
    const Predicate& p = e->predicate();
    switch (child->kind()) {
      case ExprKind::kSelect: {
        Count("merge-selects");
        return Expression::MakeSelect(child->left(),
                                      child->predicate().And(p));
      }
      case ExprKind::kJoin: {
        Count("select-into-join");
        return Expression::MakeJoin(child->left(), child->right(),
                                    child->predicate().And(p));
      }
      case ExprKind::kUnion:
      case ExprKind::kIntersect:
      case ExprKind::kDifference: {
        // σp(l op r) = σp(l) op σp(r); through −exp this shrinks the
        // critical set {t ∈ R ∩ S : texp_R > texp_S} to its p-satisfying
        // subset (the paper's Sec. 3.1 objective).
        Count(child->kind() == ExprKind::kDifference
                  ? "select-through-difference"
                  : "select-through-set-op");
        ExpressionPtr l = Expression::MakeSelect(child->left(), p);
        ExpressionPtr r = Expression::MakeSelect(child->right(), p);
        return Rebuild(child, std::move(l), std::move(r));
      }
      case ExprKind::kProject: {
        // σp(π_A(e')) = π_A(σ_{p∘A}(e')).
        std::map<size_t, size_t> mapping;
        for (size_t out = 0; out < child->projection().size(); ++out) {
          // If two output columns map from the same input column, either
          // remapping is equivalent; the first wins.
          mapping.emplace(out, child->projection()[out]);
        }
        auto remapped = p.RemapColumns(mapping);
        if (!remapped.ok()) return ExpressionPtr(e);  // references unmapped
        Count("select-through-project");
        return Expression::MakeProject(
            Expression::MakeSelect(child->left(), remapped.MoveValue()),
            child->projection());
      }
      case ExprKind::kAggregate: {
        // Valid only when p references grouping attributes exclusively:
        // then it removes whole partitions and commutes with aggexp.
        EXPDB_ASSIGN_OR_RETURN(Schema child_schema,
                               child->left()->InferSchema(db_));
        const size_t appended = child_schema.arity();
        std::set<size_t> group(child->group_by().begin(),
                               child->group_by().end());
        bool pushable = true;
        for (size_t col : p.ReferencedColumns()) {
          if (col >= appended || group.count(col) == 0) {
            pushable = false;
            break;
          }
        }
        if (!pushable) return ExpressionPtr(e);
        Count("select-through-aggregate");
        return Expression::MakeAggregate(
            Expression::MakeSelect(child->left(), p), child->group_by(),
            child->aggregate());
      }
      case ExprKind::kProduct: {
        // σp(l × r) -> σ-pushed l ⋈_cross r. With nothing pushable it
        // still forms a join, so equality conjuncts take the hash path.
        EXPDB_ASSIGN_OR_RETURN(Schema lschema,
                               child->left()->InferSchema(db_));
        bool pushed = false;
        ExpressionPtr join = JoinWithPushedConjuncts(
            child->left(), child->right(), p, lschema.arity(), &pushed);
        Count(pushed ? "select-through-product" : "product-to-join");
        return join;
      }
      default:
        return ExpressionPtr(e);
    }
  }

  Result<ExpressionPtr> RewriteProject(const ExpressionPtr& e) {
    const ExpressionPtr& child = e->left();
    if (child->kind() != ExprKind::kProject) return ExpressionPtr(e);
    Count("merge-projects");
    std::vector<size_t> composed;
    composed.reserve(e->projection().size());
    for (size_t out : e->projection()) {
      composed.push_back(child->projection()[out]);
    }
    return Expression::MakeProject(child->left(), std::move(composed));
  }

  const Database& db_;
  RewriteReport* report_;
};

}  // namespace

ExpressionPtr JoinWithPushedConjuncts(ExpressionPtr left, ExpressionPtr right,
                                      const Predicate& p, size_t n_left,
                                      bool* pushed) {
  std::optional<Predicate> left_pred, right_pred, cross_pred;
  auto add = [](std::optional<Predicate>* acc, const Predicate& conjunct) {
    *acc = acc->has_value() ? (*acc)->And(conjunct) : conjunct;
  };
  for (const Predicate& conjunct : p.TopLevelConjuncts()) {
    const std::set<size_t> cols = conjunct.ReferencedColumns();
    const bool touches_left = !cols.empty() && *cols.begin() < n_left;
    const bool touches_right = !cols.empty() && *cols.rbegin() >= n_left;
    if (touches_left && !touches_right) {
      add(&left_pred, conjunct);
      continue;
    }
    if (touches_right && !touches_left) {
      // Shift right-side conjuncts into the right child's frame.
      std::map<size_t, size_t> mapping;
      for (size_t c : cols) mapping.emplace(c, c - n_left);
      Result<Predicate> shifted = conjunct.RemapColumns(mapping);
      if (shifted.ok()) {
        add(&right_pred, shifted.value());
        continue;
      }
    }
    add(&cross_pred, conjunct);
  }
  const bool any = left_pred.has_value() || right_pred.has_value();
  if (pushed != nullptr) *pushed = any;
  if (!any) return Expression::MakeJoin(std::move(left), std::move(right), p);
  if (left_pred.has_value()) {
    left = Expression::MakeSelect(std::move(left), *left_pred);
  }
  if (right_pred.has_value()) {
    right = Expression::MakeSelect(std::move(right), *right_pred);
  }
  return Expression::MakeJoin(std::move(left), std::move(right),
                              cross_pred.value_or(Predicate::Literal(true)));
}

Result<ExpressionPtr> RewriteForIndependence(const ExpressionPtr& expr,
                                             const Database& db,
                                             RewriteReport* report) {
  if (expr == nullptr) return Status::InvalidArgument("null expression");
  // Validate once up front; rules assume a well-typed plan.
  EXPDB_RETURN_NOT_OK(expr->InferSchema(db).status());
  return Rewriter(db, report).Rewrite(expr);
}

}  // namespace expdb
