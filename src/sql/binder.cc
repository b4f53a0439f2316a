#include "sql/binder.h"

#include <algorithm>
#include <optional>

#include "core/rewrite.h"

namespace expdb {
namespace sql {

namespace {

/// Name-resolution scope: the concatenated attributes of the FROM clause.
class Scope {
 public:
  static Result<Scope> Build(const std::vector<TableRef>& from,
                             const Database& db) {
    Scope scope;
    if (from.empty()) {
      return Status::InvalidArgument("FROM clause must name a table");
    }
    for (const TableRef& ref : from) {
      EXPDB_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(ref.name));
      for (size_t i = 0; i < rel->schema().arity(); ++i) {
        scope.entries_.push_back({ref.EffectiveName(),
                                  rel->schema().attribute(i).name,
                                  scope.entries_.size()});
      }
    }
    return scope;
  }

  Result<size_t> Resolve(const ColumnRef& col) const {
    std::optional<size_t> found;
    for (const Entry& e : entries_) {
      if (e.column != col.column) continue;
      if (!col.table.empty() && e.table != col.table) continue;
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" +
                                       col.ToString() + "'");
      }
      found = e.index;
    }
    if (!found.has_value()) {
      return Status::NotFound("unknown column '" + col.ToString() + "'");
    }
    return *found;
  }

  size_t size() const { return entries_.size(); }

  const std::string& ColumnName(size_t i) const {
    return entries_[i].column;
  }

 private:
  struct Entry {
    std::string table;
    std::string column;
    size_t index;
  };
  std::vector<Entry> entries_;
};

Result<Predicate> LowerBool(const BoolExpr& e, const Scope& scope) {
  switch (e.kind) {
    case BoolExpr::Kind::kCompare: {
      auto lower_operand = [&](const ScalarOperand& o) -> Result<Operand> {
        if (o.is_parameter) return Operand::Parameter(o.parameter_index);
        if (!o.is_column) return Operand::Constant(o.constant);
        EXPDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(o.column));
        return Operand::Column(idx);
      };
      EXPDB_ASSIGN_OR_RETURN(Operand lhs, lower_operand(e.lhs));
      EXPDB_ASSIGN_OR_RETURN(Operand rhs, lower_operand(e.rhs));
      return Predicate::Compare(std::move(lhs), e.op, std::move(rhs));
    }
    case BoolExpr::Kind::kAnd: {
      EXPDB_ASSIGN_OR_RETURN(Predicate l, LowerBool(*e.left, scope));
      EXPDB_ASSIGN_OR_RETURN(Predicate r, LowerBool(*e.right, scope));
      return l.And(r);
    }
    case BoolExpr::Kind::kOr: {
      EXPDB_ASSIGN_OR_RETURN(Predicate l, LowerBool(*e.left, scope));
      EXPDB_ASSIGN_OR_RETURN(Predicate r, LowerBool(*e.right, scope));
      return l.Or(r);
    }
    case BoolExpr::Kind::kNot: {
      EXPDB_ASSIGN_OR_RETURN(Predicate inner, LowerBool(*e.left, scope));
      return inner.Not();
    }
  }
  return Status::Internal("unknown boolean expression kind");
}

Result<BoundSelect> BindSimpleSelect(const SelectStatement& select,
                                     const Database& db) {
  EXPDB_ASSIGN_OR_RETURN(Scope scope, Scope::Build(select.from, db));

  // FROM: base relations, joined.
  ExpressionPtr plan;
  std::optional<Predicate> where;
  if (select.where != nullptr) {
    EXPDB_ASSIGN_OR_RETURN(Predicate p, LowerBool(*select.where, scope));
    where = std::move(p);
  }

  if (select.from.size() == 2 && where.has_value()) {
    // Two-table join: single-table conjuncts filter their table's scan
    // below the join, so the probe meets only rows that can qualify, and
    // the cross conjuncts stay on a join node whose equalities take the
    // hash path.
    EXPDB_ASSIGN_OR_RETURN(const Relation* left,
                           db.GetRelation(select.from[0].name));
    plan = JoinWithPushedConjuncts(algebra::Base(select.from[0].name),
                                   algebra::Base(select.from[1].name), *where,
                                   left->schema().arity());
    where.reset();
  } else {
    plan = algebra::Base(select.from[0].name);
    for (size_t i = 1; i < select.from.size(); ++i) {
      plan = algebra::Product(plan, algebra::Base(select.from[i].name));
    }
    if (where.has_value()) {
      plan = algebra::Select(plan, *where);
      where.reset();
    }
  }

  const bool has_aggregate = std::any_of(
      select.items.begin(), select.items.end(), [](const SelectItem& it) {
        return it.kind == SelectItem::Kind::kAggregate;
      });

  BoundSelect out;

  if (!has_aggregate && select.group_by.empty()) {
    // Plain projection.
    bool star_only =
        select.items.size() == 1 &&
        select.items[0].kind == SelectItem::Kind::kStar;
    if (star_only) {
      out.expr = plan;
      for (size_t i = 0; i < scope.size(); ++i) {
        out.column_names.push_back(scope.ColumnName(i));
      }
      return out;
    }
    std::vector<size_t> indices;
    for (const SelectItem& item : select.items) {
      if (item.kind == SelectItem::Kind::kStar) {
        for (size_t i = 0; i < scope.size(); ++i) {
          indices.push_back(i);
          out.column_names.push_back(scope.ColumnName(i));
        }
        continue;
      }
      EXPDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(item.column));
      indices.push_back(idx);
      out.column_names.push_back(
          item.alias.empty() ? item.column.column : item.alias);
    }
    out.expr = algebra::Project(plan, std::move(indices));
    return out;
  }

  // Aggregation path (the paper's Figure 3(a) shape).
  std::vector<size_t> group_indices;
  for (const ColumnRef& col : select.group_by) {
    EXPDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(col));
    group_indices.push_back(idx);
  }

  // Chain one aggexp node per aggregate item; each appends one column.
  size_t next_appended = scope.size();
  std::vector<size_t> final_indices;
  std::vector<std::string> final_names;
  for (const SelectItem& item : select.items) {
    switch (item.kind) {
      case SelectItem::Kind::kStar:
        return Status::InvalidArgument(
            "SELECT * cannot be combined with GROUP BY/aggregates");
      case SelectItem::Kind::kColumn: {
        EXPDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(item.column));
        if (std::find(group_indices.begin(), group_indices.end(), idx) ==
            group_indices.end()) {
          return Status::InvalidArgument(
              "column '" + item.column.ToString() +
              "' must appear in GROUP BY or inside an aggregate");
        }
        final_indices.push_back(idx);
        final_names.push_back(
            item.alias.empty() ? item.column.column : item.alias);
        break;
      }
      case SelectItem::Kind::kAggregate: {
        AggregateFunction f;
        f.kind = item.aggregate;
        if (!item.aggregate_star) {
          EXPDB_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(item.column));
          f.attr = idx;
        } else {
          f = AggregateFunction::Count();
        }
        plan = algebra::Aggregate(plan, group_indices, f);
        final_indices.push_back(next_appended++);
        final_names.push_back(item.alias.empty() ? f.ToString()
                                                 : item.alias);
        break;
      }
    }
  }

  out.expr = algebra::Project(plan, std::move(final_indices));
  out.column_names = std::move(final_names);
  return out;
}

}  // namespace

Result<Predicate> BindWhere(const BoolExpr& expr,
                            const std::vector<TableRef>& from,
                            const Database& db) {
  EXPDB_ASSIGN_OR_RETURN(Scope scope, Scope::Build(from, db));
  return LowerBool(expr, scope);
}

Result<BoundSelect> BindSelect(const SelectStatement& select,
                               const Database& db) {
  EXPDB_ASSIGN_OR_RETURN(BoundSelect lhs, BindSimpleSelect(select, db));
  if (select.set_op == SelectStatement::SetOp::kNone) return lhs;

  EXPDB_ASSIGN_OR_RETURN(BoundSelect rhs, BindSelect(*select.set_rhs, db));
  BoundSelect out;
  out.column_names = lhs.column_names;
  switch (select.set_op) {
    case SelectStatement::SetOp::kUnion:
      out.expr = algebra::Union(lhs.expr, rhs.expr);
      break;
    case SelectStatement::SetOp::kIntersect:
      out.expr = algebra::Intersect(lhs.expr, rhs.expr);
      break;
    case SelectStatement::SetOp::kExcept:
      out.expr = algebra::Difference(lhs.expr, rhs.expr);
      break;
    case SelectStatement::SetOp::kNone:
      break;
  }
  return out;
}

}  // namespace sql
}  // namespace expdb
