// Predicate: the selection predicate language of the paper's algebra.
//
// The paper's σexp admits predicates of the form j = k (correlated: two
// attributes of the tuple) or j = a (uncorrelated: attribute vs. constant),
// and ∧/∨-connected compositions of these. ExpDB additionally supports the
// other comparison operators and ¬, which the classical algebra admits and
// which do not interact with expiration times (selection passes tuple
// expiration times through unchanged either way).

#ifndef EXPDB_CORE_PREDICATE_H_
#define EXPDB_CORE_PREDICATE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace expdb {

/// Comparison operators usable in predicates.
enum class ComparisonOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view ComparisonOpToString(ComparisonOp op);

/// \brief One side of a comparison: an attribute reference (0-based index),
/// a constant of the attribute domain D, or a statement parameter ($n in
/// SQL, 0-based here) awaiting a bound value. Parameters exist only in
/// parameterized plan skeletons; Predicate::BindParameters turns them into
/// constants before execution.
class Operand {
 public:
  enum class Kind { kColumn, kConstant, kParameter };

  /// Attribute reference r(index).
  static Operand Column(size_t index) { return Operand(Kind::kColumn, index); }
  /// Constant a ∈ D.
  static Operand Constant(Value v) { return Operand(std::move(v)); }
  /// Statement parameter placeholder (0-based).
  static Operand Parameter(size_t index) {
    return Operand(Kind::kParameter, index);
  }

  bool is_column() const { return kind_ == Kind::kColumn; }
  bool is_constant() const { return kind_ == Kind::kConstant; }
  bool is_parameter() const { return kind_ == Kind::kParameter; }
  size_t column_index() const { return index_; }
  size_t parameter_index() const { return index_; }
  const Value& constant() const { return value_; }

  /// The operand's value for a given tuple. An unbound parameter resolves
  /// to the null Value; plans are parameter-bound before execution.
  const Value& Resolve(const Tuple& t) const {
    return kind_ == Kind::kColumn ? t.at(index_) : value_;
  }

  std::string ToString() const;

 private:
  Operand(Kind kind, size_t index) : kind_(kind), index_(index) {}
  explicit Operand(Value v) : kind_(Kind::kConstant), value_(std::move(v)) {}

  Kind kind_;
  size_t index_ = 0;
  Value value_;
};

/// \brief An immutable predicate tree; cheap to copy (shared nodes).
class Predicate {
 public:
  /// The always-true predicate (selection that keeps everything).
  Predicate();

  /// lhs op rhs.
  static Predicate Compare(Operand lhs, ComparisonOp op, Operand rhs);
  /// r(i) = r(j) — the paper's correlated selection.
  static Predicate ColumnsEqual(size_t i, size_t j);
  /// r(i) = a — the paper's uncorrelated selection.
  static Predicate ColumnEquals(size_t i, Value a);
  /// Constant truth value.
  static Predicate Literal(bool value);

  Predicate And(const Predicate& other) const;
  Predicate Or(const Predicate& other) const;
  Predicate Not() const;

  /// \brief Evaluates against a tuple. Column indices must be in range
  /// (checked by Validate at plan time).
  bool Evaluate(const Tuple& t) const;

  /// \brief False only when no tuple whose every column i lies within
  /// [lo[i], hi[i]] (Value::Compare order) can satisfy the predicate, so
  /// a storage segment with these column bounds holds no match (see
  /// Relation::SegmentView). Column-vs-constant comparisons decide from
  /// the bounds in either operand order (`!=` only when lo == hi == c);
  /// ∧/∨ recurse; ¬, column-vs-column and unbound parameters answer true.
  /// Sound because Evaluate uses the same Compare order, and Compare
  /// against a fixed constant is monotone over any set of values that
  /// does not mix Int64 with Double — which segment bounds guarantee.
  bool MayMatchWithin(const Value* lo, const Value* hi) const;

  /// \brief Checks every referenced column index against the schema.
  Status Validate(const Schema& schema) const;

  /// \brief True iff some comparison references two columns ("correlated"
  /// in the paper's terminology).
  bool IsCorrelated() const;

  /// \brief All referenced column indices.
  std::set<size_t> ReferencedColumns() const;

  /// \brief Returns this predicate with every column index >= `from`
  /// shifted by `offset`. Used to build the join rewrite's p' on R ×exp S
  /// from a predicate formulated against S alone.
  Predicate ShiftColumns(size_t from, size_t offset) const;

  /// \brief Equality pairs (i, j) extractable from the top-level ∧-spine;
  /// used by the hash-join fast path. Empty if none.
  std::vector<std::pair<size_t, size_t>> TopLevelEqualities() const;

  /// \brief Splits the top-level ∧-spine into its conjuncts (a predicate
  /// without a top-level And yields itself). Used by the rewriter to push
  /// single-side conjuncts below a product.
  std::vector<Predicate> TopLevelConjuncts() const;

  /// \brief Rewrites every column reference through `mapping` (old index
  /// -> new index). Fails with NotFound if the predicate references a
  /// column absent from the mapping. Used to push a selection below a
  /// projection.
  Result<Predicate> RemapColumns(
      const std::map<size_t, size_t>& mapping) const;

  /// \brief Constant folding: constant-vs-constant comparisons become
  /// literals, and ∧/∨/¬ over literals simplify (p ∧ false → false,
  /// p ∧ true → p, and duals). Column references are untouched, so the
  /// folded predicate evaluates identically on every tuple. Used by the
  /// planner to detect constant-false filters (whole subtree elided).
  Predicate FoldConstants() const;

  /// \brief The constant truth value of this predicate, if it is a bare
  /// literal (possibly after FoldConstants); nullopt otherwise.
  std::optional<bool> AsLiteral() const;

  /// \brief True iff some comparison references an unbound parameter.
  bool HasParameters() const;

  /// \brief Number of parameter slots: max parameter index + 1 (0 when the
  /// predicate has no parameters).
  size_t ParameterCount() const;

  /// \brief Returns this predicate with every parameter operand replaced
  /// by the corresponding constant from `args` (parameter i -> args[i]).
  /// Fails with InvalidArgument if a parameter index is out of range.
  Result<Predicate> BindParameters(const std::vector<Value>& args) const;

  std::string ToString() const;

 private:
  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

}  // namespace expdb

#endif  // EXPDB_CORE_PREDICATE_H_
