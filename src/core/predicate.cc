#include "core/predicate.h"

#include <algorithm>

namespace expdb {

std::string_view ComparisonOpToString(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return "=";
    case ComparisonOp::kNe:
      return "!=";
    case ComparisonOp::kLt:
      return "<";
    case ComparisonOp::kLe:
      return "<=";
    case ComparisonOp::kGt:
      return ">";
    case ComparisonOp::kGe:
      return ">=";
  }
  return "?";
}

std::string Operand::ToString() const {
  if (is_column()) return "$" + std::to_string(index_ + 1);  // paper: 1-based
  if (is_parameter()) return "?" + std::to_string(index_ + 1);
  if (value_.is_string()) return "'" + value_.ToString() + "'";
  return value_.ToString();
}

namespace {

/// `op` applied to a three-way result `c` of comparing a with b.
template <typename Ordering>
bool OrderSatisfies(Ordering c, ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return c == 0;
    case ComparisonOp::kNe:
      return c != 0;
    case ComparisonOp::kLt:
      return c < 0;
    case ComparisonOp::kLe:
      return c <= 0;
    case ComparisonOp::kGt:
      return c > 0;
    case ComparisonOp::kGe:
      return c >= 0;
  }
  return false;
}

/// a op b under Value's total order. Two values of one numeric type take
/// an inline path that orders them as Value::Compare does (for doubles:
/// neither less nor greater is equal); every other pair — mixed numerics,
/// nulls, strings — goes through Compare itself.
bool ApplyComparison(const Value& a, ComparisonOp op, const Value& b) {
  if (a.type() == b.type()) {
    if (a.is_int64()) {
      const int64_t x = a.AsInt64(), y = b.AsInt64();
      return OrderSatisfies(x < y ? -1 : (y < x ? 1 : 0), op);
    }
    if (a.is_double()) {
      const double x = a.AsDouble(), y = b.AsDouble();
      return OrderSatisfies(x < y ? -1 : (y < x ? 1 : 0), op);
    }
  }
  return OrderSatisfies(a.Compare(b), op);
}

/// c op x  ⇔  x Mirror(op) c.
ComparisonOp Mirror(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kLt:
      return ComparisonOp::kGt;
    case ComparisonOp::kLe:
      return ComparisonOp::kGe;
    case ComparisonOp::kGt:
      return ComparisonOp::kLt;
    case ComparisonOp::kGe:
      return ComparisonOp::kLe;
    case ComparisonOp::kEq:
    case ComparisonOp::kNe:
      return op;
  }
  return op;
}

/// Whether some x with lo <= x <= hi may satisfy `x op c`. x ↦ x <=> c is
/// monotone on [lo, hi], so the extreme bound on the side `op` wants
/// decides every comparison but `!=`, which fails only when all of
/// [lo, hi] compares equal to c.
bool RangeMayMatch(const Value& lo, const Value& hi, ComparisonOp op,
                   const Value& c) {
  switch (op) {
    case ComparisonOp::kEq:
      return lo <= c && c <= hi;
    case ComparisonOp::kNe:
      return lo != c || hi != c;
    case ComparisonOp::kLt:
      return lo < c;
    case ComparisonOp::kLe:
      return lo <= c;
    case ComparisonOp::kGt:
      return hi > c;
    case ComparisonOp::kGe:
      return hi >= c;
  }
  return true;
}

}  // namespace

struct Predicate::Node {
  enum class Kind { kLiteral, kCompare, kAnd, kOr, kNot };

  Kind kind;
  // kLiteral
  bool literal = true;
  // kCompare
  Operand lhs = Operand::Constant(Value());
  ComparisonOp op = ComparisonOp::kEq;
  Operand rhs = Operand::Constant(Value());
  // kAnd / kOr / kNot
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;

  static std::shared_ptr<const Node> MakeLiteral(bool v) {
    auto n = std::make_shared<Node>();
    n->kind = Kind::kLiteral;
    n->literal = v;
    return n;
  }

  bool Evaluate(const Tuple& t) const {
    switch (kind) {
      case Kind::kLiteral:
        return literal;
      case Kind::kCompare:
        return ApplyComparison(lhs.Resolve(t), op, rhs.Resolve(t));
      case Kind::kAnd:
        return left->Evaluate(t) && right->Evaluate(t);
      case Kind::kOr:
        return left->Evaluate(t) || right->Evaluate(t);
      case Kind::kNot:
        return !left->Evaluate(t);
    }
    return false;
  }

  bool MayMatchWithin(const Value* lo, const Value* hi) const {
    switch (kind) {
      case Kind::kLiteral:
        return literal;
      case Kind::kCompare:
        if (lhs.is_column() && rhs.is_constant()) {
          const size_t i = lhs.column_index();
          return RangeMayMatch(lo[i], hi[i], op, rhs.constant());
        }
        if (lhs.is_constant() && rhs.is_column()) {
          const size_t i = rhs.column_index();
          return RangeMayMatch(lo[i], hi[i], Mirror(op), lhs.constant());
        }
        if (lhs.is_constant() && rhs.is_constant()) {
          return ApplyComparison(lhs.constant(), op, rhs.constant());
        }
        return true;  // column vs column, or an unbound parameter
      case Kind::kAnd:
        return left->MayMatchWithin(lo, hi) && right->MayMatchWithin(lo, hi);
      case Kind::kOr:
        return left->MayMatchWithin(lo, hi) || right->MayMatchWithin(lo, hi);
      case Kind::kNot:
        return true;
    }
    return true;
  }

  Status Validate(const Schema& schema) const {
    switch (kind) {
      case Kind::kLiteral:
        return Status::OK();
      case Kind::kCompare:
        for (const Operand* o : {&lhs, &rhs}) {
          if (o->is_column() && !schema.IsValidIndex(o->column_index())) {
            return Status::OutOfRange(
                "predicate references attribute " +
                std::to_string(o->column_index() + 1) +
                " beyond schema " + schema.ToString());
          }
        }
        return Status::OK();
      case Kind::kAnd:
      case Kind::kOr: {
        EXPDB_RETURN_NOT_OK(left->Validate(schema));
        return right->Validate(schema);
      }
      case Kind::kNot:
        return left->Validate(schema);
    }
    return Status::OK();
  }

  void CollectColumns(std::set<size_t>* out) const {
    switch (kind) {
      case Kind::kLiteral:
        return;
      case Kind::kCompare:
        if (lhs.is_column()) out->insert(lhs.column_index());
        if (rhs.is_column()) out->insert(rhs.column_index());
        return;
      case Kind::kAnd:
      case Kind::kOr:
        left->CollectColumns(out);
        right->CollectColumns(out);
        return;
      case Kind::kNot:
        left->CollectColumns(out);
        return;
    }
  }

  bool IsCorrelated() const {
    switch (kind) {
      case Kind::kLiteral:
        return false;
      case Kind::kCompare:
        return lhs.is_column() && rhs.is_column();
      case Kind::kAnd:
      case Kind::kOr:
        return left->IsCorrelated() || right->IsCorrelated();
      case Kind::kNot:
        return left->IsCorrelated();
    }
    return false;
  }

  std::shared_ptr<const Node> Shift(size_t from, size_t offset) const {
    auto n = std::make_shared<Node>(*this);
    switch (kind) {
      case Kind::kLiteral:
        break;
      case Kind::kCompare: {
        auto shift_op = [&](const Operand& o) {
          if (o.is_column() && o.column_index() >= from) {
            return Operand::Column(o.column_index() + offset);
          }
          return o;
        };
        n->lhs = shift_op(lhs);
        n->rhs = shift_op(rhs);
        break;
      }
      case Kind::kAnd:
      case Kind::kOr:
        n->left = left->Shift(from, offset);
        n->right = right->Shift(from, offset);
        break;
      case Kind::kNot:
        n->left = left->Shift(from, offset);
        break;
    }
    return n;
  }

  /// max parameter index + 1 over the subtree (0 = no parameters).
  size_t ParameterCount() const {
    switch (kind) {
      case Kind::kLiteral:
        return 0;
      case Kind::kCompare: {
        size_t n = 0;
        for (const Operand* o : {&lhs, &rhs}) {
          if (o->is_parameter()) {
            n = std::max(n, o->parameter_index() + 1);
          }
        }
        return n;
      }
      case Kind::kAnd:
      case Kind::kOr:
        return std::max(left->ParameterCount(), right->ParameterCount());
      case Kind::kNot:
        return left->ParameterCount();
    }
    return 0;
  }

  Result<std::shared_ptr<const Node>> BindParams(
      const std::vector<Value>& args) const {
    switch (kind) {
      case Kind::kLiteral:
        return std::shared_ptr<const Node>(std::make_shared<Node>(*this));
      case Kind::kCompare: {
        auto bind_op = [&](const Operand& o) -> Result<Operand> {
          if (!o.is_parameter()) return o;
          if (o.parameter_index() >= args.size()) {
            return Status::InvalidArgument(
                "parameter ?" + std::to_string(o.parameter_index() + 1) +
                " has no bound value (" + std::to_string(args.size()) +
                " supplied)");
          }
          return Operand::Constant(args[o.parameter_index()]);
        };
        auto n = std::make_shared<Node>(*this);
        EXPDB_ASSIGN_OR_RETURN(n->lhs, bind_op(lhs));
        EXPDB_ASSIGN_OR_RETURN(n->rhs, bind_op(rhs));
        return std::shared_ptr<const Node>(n);
      }
      case Kind::kAnd:
      case Kind::kOr: {
        auto n = std::make_shared<Node>(*this);
        EXPDB_ASSIGN_OR_RETURN(n->left, left->BindParams(args));
        EXPDB_ASSIGN_OR_RETURN(n->right, right->BindParams(args));
        return std::shared_ptr<const Node>(n);
      }
      case Kind::kNot: {
        auto n = std::make_shared<Node>(*this);
        EXPDB_ASSIGN_OR_RETURN(n->left, left->BindParams(args));
        return std::shared_ptr<const Node>(n);
      }
    }
    return std::shared_ptr<const Node>(std::make_shared<Node>(*this));
  }

  void CollectTopLevelEqualities(
      std::vector<std::pair<size_t, size_t>>* out) const {
    if (kind == Kind::kAnd) {
      left->CollectTopLevelEqualities(out);
      right->CollectTopLevelEqualities(out);
    } else if (kind == Kind::kCompare && op == ComparisonOp::kEq &&
               lhs.is_column() && rhs.is_column()) {
      out->emplace_back(lhs.column_index(), rhs.column_index());
    }
  }

  /// Folds `node` bottom-up (see Predicate::FoldConstants); returns the
  /// original pointer when nothing changed so untouched subtrees stay
  /// shared.
  static std::shared_ptr<const Node> Fold(
      const std::shared_ptr<const Node>& node) {
    auto as_literal =
        [](const std::shared_ptr<const Node>& n) -> std::optional<bool> {
      if (n->kind != Kind::kLiteral) return std::nullopt;
      return n->literal;
    };
    switch (node->kind) {
      case Kind::kLiteral:
        return node;
      case Kind::kCompare:
        // Parameters are not constants: a parameterized comparison must
        // survive folding so each binding can decide it at execution.
        if (node->lhs.is_constant() && node->rhs.is_constant()) {
          return MakeLiteral(ApplyComparison(node->lhs.constant(), node->op,
                                             node->rhs.constant()));
        }
        return node;
      case Kind::kAnd: {
        auto l = Fold(node->left);
        auto r = Fold(node->right);
        const std::optional<bool> lv = as_literal(l);
        const std::optional<bool> rv = as_literal(r);
        if ((lv && !*lv) || (rv && !*rv)) return MakeLiteral(false);
        if (lv && *lv) return r;
        if (rv && *rv) return l;
        if (l == node->left && r == node->right) return node;
        auto n = std::make_shared<Node>(*node);
        n->left = std::move(l);
        n->right = std::move(r);
        return n;
      }
      case Kind::kOr: {
        auto l = Fold(node->left);
        auto r = Fold(node->right);
        const std::optional<bool> lv = as_literal(l);
        const std::optional<bool> rv = as_literal(r);
        if ((lv && *lv) || (rv && *rv)) return MakeLiteral(true);
        if (lv && !*lv) return r;
        if (rv && !*rv) return l;
        if (l == node->left && r == node->right) return node;
        auto n = std::make_shared<Node>(*node);
        n->left = std::move(l);
        n->right = std::move(r);
        return n;
      }
      case Kind::kNot: {
        auto l = Fold(node->left);
        if (const std::optional<bool> lv = as_literal(l)) {
          return MakeLiteral(!*lv);
        }
        if (l == node->left) return node;
        auto n = std::make_shared<Node>(*node);
        n->left = std::move(l);
        return n;
      }
    }
    return node;
  }

  std::string ToString() const {
    switch (kind) {
      case Kind::kLiteral:
        return literal ? "true" : "false";
      case Kind::kCompare:
        return lhs.ToString() + " " +
               std::string(ComparisonOpToString(op)) + " " + rhs.ToString();
      case Kind::kAnd:
        return "(" + left->ToString() + " and " + right->ToString() + ")";
      case Kind::kOr:
        return "(" + left->ToString() + " or " + right->ToString() + ")";
      case Kind::kNot:
        return "not (" + left->ToString() + ")";
    }
    return "?";
  }
};

Predicate::Predicate() : node_(Node::MakeLiteral(true)) {}

Predicate Predicate::Compare(Operand lhs, ComparisonOp op, Operand rhs) {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kCompare;
  n->lhs = std::move(lhs);
  n->op = op;
  n->rhs = std::move(rhs);
  return Predicate(std::move(n));
}

Predicate Predicate::ColumnsEqual(size_t i, size_t j) {
  return Compare(Operand::Column(i), ComparisonOp::kEq, Operand::Column(j));
}

Predicate Predicate::ColumnEquals(size_t i, Value a) {
  return Compare(Operand::Column(i), ComparisonOp::kEq,
                 Operand::Constant(std::move(a)));
}

Predicate Predicate::Literal(bool value) {
  return Predicate(Node::MakeLiteral(value));
}

Predicate Predicate::And(const Predicate& other) const {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kAnd;
  n->left = node_;
  n->right = other.node_;
  return Predicate(std::move(n));
}

Predicate Predicate::Or(const Predicate& other) const {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kOr;
  n->left = node_;
  n->right = other.node_;
  return Predicate(std::move(n));
}

Predicate Predicate::Not() const {
  auto n = std::make_shared<Node>();
  n->kind = Node::Kind::kNot;
  n->left = node_;
  return Predicate(std::move(n));
}

bool Predicate::Evaluate(const Tuple& t) const { return node_->Evaluate(t); }

bool Predicate::MayMatchWithin(const Value* lo, const Value* hi) const {
  return node_->MayMatchWithin(lo, hi);
}

Status Predicate::Validate(const Schema& schema) const {
  return node_->Validate(schema);
}

bool Predicate::IsCorrelated() const { return node_->IsCorrelated(); }

std::set<size_t> Predicate::ReferencedColumns() const {
  std::set<size_t> out;
  node_->CollectColumns(&out);
  return out;
}

Predicate Predicate::ShiftColumns(size_t from, size_t offset) const {
  return Predicate(node_->Shift(from, offset));
}

std::vector<std::pair<size_t, size_t>> Predicate::TopLevelEqualities() const {
  std::vector<std::pair<size_t, size_t>> out;
  node_->CollectTopLevelEqualities(&out);
  return out;
}

std::vector<Predicate> Predicate::TopLevelConjuncts() const {
  std::vector<Predicate> out;
  std::vector<std::shared_ptr<const Node>> stack = {node_};
  while (!stack.empty()) {
    auto node = stack.back();
    stack.pop_back();
    if (node->kind == Node::Kind::kAnd) {
      // Push right first so conjuncts come out in left-to-right order.
      stack.push_back(node->right);
      stack.push_back(node->left);
    } else {
      out.push_back(Predicate(node));
    }
  }
  return out;
}

Result<Predicate> Predicate::RemapColumns(
    const std::map<size_t, size_t>& mapping) const {
  // Remapping reuses the Shift machinery's structure via a recursive copy.
  struct Remapper {
    const std::map<size_t, size_t>& mapping;

    Result<Operand> MapOperand(const Operand& o) const {
      if (!o.is_column()) return o;
      auto it = mapping.find(o.column_index());
      if (it == mapping.end()) {
        return Status::NotFound(
            "column $" + std::to_string(o.column_index() + 1) +
            " has no remapping");
      }
      return Operand::Column(it->second);
    }

    Result<std::shared_ptr<const Node>> Map(
        const std::shared_ptr<const Node>& node) const {
      auto copy = std::make_shared<Node>(*node);
      switch (node->kind) {
        case Node::Kind::kLiteral:
          break;
        case Node::Kind::kCompare: {
          EXPDB_ASSIGN_OR_RETURN(copy->lhs, MapOperand(node->lhs));
          EXPDB_ASSIGN_OR_RETURN(copy->rhs, MapOperand(node->rhs));
          break;
        }
        case Node::Kind::kAnd:
        case Node::Kind::kOr: {
          EXPDB_ASSIGN_OR_RETURN(copy->left, Map(node->left));
          EXPDB_ASSIGN_OR_RETURN(copy->right, Map(node->right));
          break;
        }
        case Node::Kind::kNot: {
          EXPDB_ASSIGN_OR_RETURN(copy->left, Map(node->left));
          break;
        }
      }
      return std::shared_ptr<const Node>(copy);
    }
  };
  Remapper remapper{mapping};
  EXPDB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> mapped,
                         remapper.Map(node_));
  return Predicate(std::move(mapped));
}

Predicate Predicate::FoldConstants() const {
  return Predicate(Node::Fold(node_));
}

std::optional<bool> Predicate::AsLiteral() const {
  if (node_->kind != Node::Kind::kLiteral) return std::nullopt;
  return node_->literal;
}

bool Predicate::HasParameters() const {
  return node_->ParameterCount() > 0;
}

size_t Predicate::ParameterCount() const { return node_->ParameterCount(); }

Result<Predicate> Predicate::BindParameters(
    const std::vector<Value>& args) const {
  if (!HasParameters()) return *this;
  EXPDB_ASSIGN_OR_RETURN(std::shared_ptr<const Node> bound,
                         node_->BindParams(args));
  return Predicate(std::move(bound));
}

std::string Predicate::ToString() const { return node_->ToString(); }

}  // namespace expdb
