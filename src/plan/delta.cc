#include "plan/delta.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/aggregate.h"
#include "core/join_key_index.h"
#include "core/predicate.h"

namespace expdb {
namespace plan {
namespace {

std::optional<Timestamp> MaxOpt(std::optional<Timestamp> a,
                                std::optional<Timestamp> b) {
  if (!a) return b;
  if (!b) return a;
  return Timestamp::Max(*a, *b);
}

/// Emits the canonical op sequence turning an output entry for `t` from
/// texp `before` into texp `after` (nullopt = absent). No-change emits
/// nothing; a texp change is delete(old) then insert(new).
void EmitChange(const Tuple& t, std::optional<Timestamp> before,
                std::optional<Timestamp> after, DeltaOps* out) {
  if (before == after) return;
  if (before.has_value()) out->push_back({true, {t, *before}});
  if (after.has_value()) out->push_back({false, {t, *after}});
}

void RemoveFromBucket(std::vector<Relation::Entry>* bucket, const Tuple& t) {
  for (auto it = bucket->begin(); it != bucket->end(); ++it) {
    if (it->tuple == t) {
      bucket->erase(it);
      return;
    }
  }
}

void UpsertBucket(std::vector<Relation::Entry>* bucket, const Tuple& t,
                  Timestamp texp) {
  for (auto& e : *bucket) {
    if (e.tuple == t) {
      e.texp = texp;
      return;
    }
  }
  bucket->push_back({t, texp});
}

/// The captured output entries of `child`; none when the child was pruned
/// or never executed (const-false, or under a pruned ancestor), whose
/// output is empty.
const std::vector<Relation::Entry>& ChildEntries(const PlanNode& child,
                                                 const NodeCapture& capture) {
  static const std::vector<Relation::Entry> kNone;
  auto it = capture.nodes.find(child.id);
  if (it == capture.nodes.end() || !it->second.relation.has_value()) {
    return kNone;
  }
  return it->second.relation->entries();
}

/// An owned copy of `child`'s captured output, for the set operators
/// whose state is the child materialization itself.
Relation ChildCopy(const PlanNode& child, const NodeCapture& capture) {
  return Relation::FromEntriesUnchecked(child.schema,
                                        ChildEntries(child, capture));
}

bool SubtreeSupportsDelta(const PlanNode& n, const EvalOptions& options) {
  if (n.const_false) return true;  // never executes
  if (!NodeSupportsDelta(n, options)) return false;
  if (n.left != nullptr && !SubtreeSupportsDelta(*n.left, options)) {
    return false;
  }
  if (n.right != nullptr && !SubtreeSupportsDelta(*n.right, options)) {
    return false;
  }
  return true;
}

}  // namespace

size_t TuplePayloadBytes(const Tuple& t) {
  size_t bytes = t.arity() * sizeof(Value);
  for (const Value& v : t.values()) {
    if (v.is_string()) bytes += v.AsString().size();
  }
  return bytes;
}

bool NodeSupportsDelta(const PlanNode& node, const EvalOptions& options) {
  // Schrödinger validity intervals are not maintained incrementally.
  if (options.compute_validity) return false;
  switch (node.op) {
    case PlanOp::kScan:
    case PlanOp::kFilter:
    case PlanOp::kProject:
    case PlanOp::kUnionMerge:
    case PlanOp::kHashIntersect:
    case PlanOp::kHashDifference:
      return true;
    case PlanOp::kHashAggregate:
      // Approximate aggregates track a drift bound that depends on the
      // whole history, not just the current partition.
      return options.aggregate_tolerance == 0.0;
    case PlanOp::kHashJoin:
    case PlanOp::kHashSemiJoin: {
      // Incremental joins need equality keys to bucket by; a keyless
      // (theta) join would degrade to per-op full scans.
      Relation build(node.right->schema);
      JoinKeyIndex index(build, node.expr->predicate(),
                         node.left->schema.arity());
      return index.has_keys();
    }
    case PlanOp::kCrossProduct:
    case PlanOp::kHashAntiJoin:
      return false;
  }
  return false;
}

bool PlanSupportsDelta(const PhysicalPlan& plan, const EvalOptions& options) {
  return SubtreeSupportsDelta(plan.root(), options);
}

/// Auxiliary incremental state of one plan node. Only the fields of the
/// node's operator are populated.
struct DeltaPropagator::NodeState {
  // kProject: projected tuple -> multiset of source texps. The output
  // texp of a projected tuple is the max of its support.
  std::map<Tuple, std::multiset<Timestamp>> support;

  // Binary set operators: materialized child outputs (plain relations;
  // copies never inherit delta tracking).
  Relation left_mat;
  Relation right_mat;

  // kHashDifference: critical tuples (Table 2 case 3a),
  // tuple -> (appears_at = texp_S, expires_at = texp_R).
  std::map<Tuple, std::pair<Timestamp, Timestamp>> criticals;

  // kHashJoin / kHashSemiJoin: child entries bucketed by equality key.
  std::map<Tuple, std::vector<Relation::Entry>> left_buckets;
  std::map<Tuple, std::vector<Relation::Entry>> right_buckets;
  std::vector<size_t> left_cols;
  std::vector<size_t> right_cols;
  bool covered = false;  ///< key match already implies the predicate

  // kHashAggregate: group key -> members with their cached lifetime
  // analysis (valid while now < the result's texp — see Apply()).
  struct Group {
    std::map<Tuple, Timestamp> members;
    PartitionAnalysis analysis;
  };
  std::map<Tuple, Group> groups;
};

/// Per-Apply round context.
struct DeltaPropagator::Round {
  Timestamp now;
  const std::map<std::string, DeltaOps>* base_ops;
  /// Per-round memo of common-subtree outputs, keyed by cse_id: the
  /// primary occurrence (first in the executor's left-first DFS order)
  /// computes and owns the state, shadows reuse the ops.
  std::map<int32_t, PropOut> cse;
};

DeltaPropagator::DeltaPropagator(PhysicalPlanPtr plan, EvalOptions options)
    : plan_(std::move(plan)), options_(options) {}

DeltaPropagator::~DeltaPropagator() = default;

std::unique_ptr<DeltaPropagator> DeltaPropagator::Create(
    PhysicalPlanPtr plan, const NodeCapture& capture,
    const EvalOptions& options) {
  if (plan == nullptr) return nullptr;
  if (!PlanSupportsDelta(*plan, options)) return nullptr;
  std::unique_ptr<DeltaPropagator> p(
      new DeltaPropagator(std::move(plan), options));
  std::set<int32_t> seeded_cse;
  if (!p->Seed(p->plan_->root(), capture, /*under_pruned=*/false,
               &seeded_cse)) {
    return nullptr;
  }
  p->seeded_bytes_ = p->MeasureBytes();
  p->seeded_keys_ = p->StateKeys();
  return p;
}

bool DeltaPropagator::Seed(const PlanNode& n, const NodeCapture& capture,
                           bool under_pruned, std::set<int32_t>* seeded_cse) {
  if (n.const_false) return true;  // never executes; no state
  auto it = capture.nodes.find(n.id);
  if (it != capture.nodes.end() && it->second.reused) {
    // CSE shadow occurrence: the primary (captured earlier in the same
    // left-first DFS the executor uses) owns the subtree's state.
    return n.cse_id >= 0 && seeded_cse->count(n.cse_id) > 0;
  }
  if (it == capture.nodes.end() && !under_pruned) {
    return false;  // incomplete capture: caller must recompute
  }
  const bool pruned_here =
      under_pruned || (it != capture.nodes.end() && it->second.pruned);
  if (n.left != nullptr &&
      !Seed(*n.left, capture, pruned_here, seeded_cse)) {
    return false;
  }
  if (n.right != nullptr &&
      !Seed(*n.right, capture, pruned_here, seeded_cse)) {
    return false;
  }

  switch (n.op) {
    case PlanOp::kScan:
    case PlanOp::kFilter:
      break;  // stateless
    case PlanOp::kProject: {
      auto state = std::make_unique<NodeState>();
      const auto& proj = n.expr->projection();
      for (const auto& e : ChildEntries(*n.left, capture)) {
        state->support[e.tuple.Project(proj)].insert(e.texp);
      }
      state_[n.id] = std::move(state);
      break;
    }
    case PlanOp::kUnionMerge:
    case PlanOp::kHashIntersect: {
      auto state = std::make_unique<NodeState>();
      state->left_mat = ChildCopy(*n.left, capture);
      state->right_mat = ChildCopy(*n.right, capture);
      state_[n.id] = std::move(state);
      break;
    }
    case PlanOp::kHashDifference: {
      auto state = std::make_unique<NodeState>();
      state->left_mat = ChildCopy(*n.left, capture);
      state->right_mat = ChildCopy(*n.right, capture);
      for (const auto& e : state->left_mat.entries()) {
        const auto rt = state->right_mat.GetTexp(e.tuple);
        if (rt.has_value() && e.texp > *rt) {
          state->criticals[e.tuple] = {*rt, e.texp};
        }
      }
      state_[n.id] = std::move(state);
      break;
    }
    case PlanOp::kHashJoin:
    case PlanOp::kHashSemiJoin: {
      auto state = std::make_unique<NodeState>();
      {
        Relation build(n.right->schema);
        JoinKeyIndex index(build, n.expr->predicate(),
                           n.left->schema.arity());
        if (!index.has_keys()) return false;
        state->left_cols = index.left_cols();
        state->right_cols = index.right_cols();
        state->covered = index.predicate_covered();
      }
      for (const auto& e : ChildEntries(*n.left, capture)) {
        state->left_buckets[e.tuple.Project(state->left_cols)].push_back(e);
      }
      for (const auto& e : ChildEntries(*n.right, capture)) {
        state->right_buckets[e.tuple.Project(state->right_cols)].push_back(
            e);
      }
      state_[n.id] = std::move(state);
      break;
    }
    case PlanOp::kHashAggregate: {
      auto state = std::make_unique<NodeState>();
      const auto& gb = n.expr->group_by();
      for (const auto& e : ChildEntries(*n.left, capture)) {
        state->groups[e.tuple.Project(gb)].members[e.tuple] = e.texp;
      }
      for (auto& [key, group] : state->groups) {
        std::vector<PartitionEntry> partition;
        partition.reserve(group.members.size());
        for (auto mit = group.members.begin(); mit != group.members.end();
             ++mit) {
          partition.push_back({&mit->first, mit->second});
        }
        auto analysis = AnalyzePartition(partition, n.expr->aggregate(),
                                         options_.aggregate_mode);
        if (!analysis.ok()) return false;
        group.analysis = std::move(analysis).value();
      }
      state_[n.id] = std::move(state);
      break;
    }
    case PlanOp::kCrossProduct:
    case PlanOp::kHashAntiJoin:
      return false;  // PlanSupportsDelta already rejected these
  }

  if (n.cse_id >= 0) seeded_cse->insert(n.cse_id);
  return true;
}

size_t DeltaPropagator::EstimateBytes() const {
  if (seeded_keys_ == 0) return seeded_bytes_;
  return seeded_bytes_ * StateKeys() / seeded_keys_;
}

size_t DeltaPropagator::StateKeys() const {
  size_t keys = 0;
  for (const auto& [id, s] : state_) {
    keys += s->support.size() + s->left_mat.size() + s->right_mat.size() +
            s->criticals.size() + s->left_buckets.size() +
            s->right_buckets.size() + s->groups.size();
  }
  return keys;
}

size_t DeltaPropagator::MeasureBytes() const {
  // An ordered-map node: tree links plus allocator overhead.
  constexpr size_t kNode = 48;
  // A map node holding a tuple borrowed from a child plus one texp.
  constexpr size_t kMember = kNode + sizeof(Tuple) + sizeof(Timestamp);
  // A tuple that owns its payload (a projected key): handle, shared
  // control block and value vector, plus the values themselves.
  auto owned = [](const Tuple& t) {
    return sizeof(Tuple) + 16 + sizeof(std::vector<Value>) +
           TuplePayloadBytes(t);
  };
  // A child materialization copy: entry slots plus ~50% index headroom.
  auto mat = [](const Relation& r) {
    const size_t slots = r.size() * sizeof(Relation::Entry);
    return slots + slots / 2;
  };
  size_t bytes = 0;
  for (const auto& [id, s] : state_) {
    bytes += kNode + sizeof(NodeState) + mat(s->left_mat) + mat(s->right_mat);
    for (const auto& [key, texps] : s->support) {
      bytes += kNode + owned(key) + texps.size() * (kNode + sizeof(Timestamp));
    }
    bytes += s->criticals.size() * (kMember + sizeof(Timestamp));
    for (const auto* buckets : {&s->left_buckets, &s->right_buckets}) {
      for (const auto& [key, bucket] : *buckets) {
        bytes += kNode + owned(key) + sizeof(bucket) +
                 bucket.capacity() * sizeof(Relation::Entry);
      }
    }
    for (const auto& [key, group] : s->groups) {
      bytes += kNode + owned(key) + sizeof(group) +
               group.members.size() * kMember;
    }
  }
  return bytes;
}

Result<DeltaPropagator::PropOut> DeltaPropagator::Propagate(const PlanNode& n,
                                                            Round* round) {
  if (n.const_false) return PropOut{};  // empty forever: no ops, texp = ∞
  if (n.cse_id >= 0) {
    auto it = round->cse.find(n.cse_id);
    if (it != round->cse.end()) return it->second;
  }

  PropOut out;
  switch (n.op) {
    case PlanOp::kScan: {
      auto it = round->base_ops->find(n.expr->relation_name());
      if (it != round->base_ops->end()) {
        for (const auto& op : it->second) {
          // Inserts already expired at `now` would be invisible to every
          // expτ reader downstream; deletes always pass (the tuple may
          // have been live when captured).
          if (!op.is_delete && op.entry.texp <= round->now) continue;
          out.ops.push_back(op);
        }
      }
      break;  // scans are monotonic: texp stays ∞
    }
    case PlanOp::kFilter: {
      EXPDB_ASSIGN_OR_RETURN(PropOut child, Propagate(*n.left, round));
      const Predicate& p = n.expr->predicate();
      for (const auto& op : child.ops) {
        if (p.Evaluate(op.entry.tuple)) out.ops.push_back(op);
      }
      out.texp = child.texp;
      break;
    }
    case PlanOp::kProject: {
      EXPDB_ASSIGN_OR_RETURN(PropOut child, Propagate(*n.left, round));
      auto sit = state_.find(n.id);
      if (sit == state_.end()) {
        return Status::Internal("delta: missing project state");
      }
      NodeState& s = *sit->second;
      const auto& proj = n.expr->projection();
      for (const auto& op : child.ops) {
        Tuple key = op.entry.tuple.Project(proj);
        auto& support = s.support[key];
        const std::optional<Timestamp> before =
            support.empty() ? std::nullopt
                            : std::optional<Timestamp>(*support.rbegin());
        if (op.is_delete) {
          auto mit = support.find(op.entry.texp);
          if (mit != support.end()) support.erase(mit);
        } else {
          support.insert(op.entry.texp);
        }
        const std::optional<Timestamp> after =
            support.empty() ? std::nullopt
                            : std::optional<Timestamp>(*support.rbegin());
        if (support.empty()) s.support.erase(key);
        EmitChange(key, before, after, &out.ops);
      }
      out.texp = child.texp;
      break;
    }
    case PlanOp::kUnionMerge:
    case PlanOp::kHashIntersect: {
      EXPDB_ASSIGN_OR_RETURN(PropOut left, Propagate(*n.left, round));
      EXPDB_ASSIGN_OR_RETURN(PropOut right, Propagate(*n.right, round));
      auto sit = state_.find(n.id);
      if (sit == state_.end()) {
        return Status::Internal("delta: missing set-op state");
      }
      NodeState& s = *sit->second;
      const bool is_union = n.op == PlanOp::kUnionMerge;
      const auto compose = [&](const Tuple& t) -> std::optional<Timestamp> {
        const auto lt = s.left_mat.GetTexp(t);
        const auto rt = s.right_mat.GetTexp(t);
        if (is_union) return MaxOpt(lt, rt);
        if (lt.has_value() && rt.has_value()) {
          return Timestamp::Min(*lt, *rt);
        }
        return std::nullopt;
      };
      const auto process = [&](const DeltaOps& ops, Relation* mine) {
        for (const auto& op : ops) {
          const Tuple& t = op.entry.tuple;
          const auto before = compose(t);
          if (op.is_delete) {
            mine->Erase(t);
          } else {
            mine->InsertUnchecked(t, op.entry.texp);
          }
          EmitChange(t, before, compose(t), &out.ops);
        }
      };
      process(left.ops, &s.left_mat);
      process(right.ops, &s.right_mat);
      out.texp = Timestamp::Min(left.texp, right.texp);
      break;
    }
    case PlanOp::kHashDifference: {
      EXPDB_ASSIGN_OR_RETURN(PropOut left, Propagate(*n.left, round));
      EXPDB_ASSIGN_OR_RETURN(PropOut right, Propagate(*n.right, round));
      auto sit = state_.find(n.id);
      if (sit == state_.end()) {
        return Status::Internal("delta: missing difference state");
      }
      NodeState& s = *sit->second;
      // Output texp of t is texp_R(t); t is suppressed while it is live
      // in S. A dead S entry no longer suppresses: the tuple has already
      // appeared (root patching replayed it; interior nodes are covered
      // by the now < texp precondition, which keeps criticals unfired).
      const auto compose = [&](const Tuple& t) -> std::optional<Timestamp> {
        const auto lt = s.left_mat.GetTexp(t);
        if (!lt.has_value()) return std::nullopt;
        const auto rt = s.right_mat.GetTexp(t);
        if (rt.has_value() && *rt > round->now) return std::nullopt;
        return lt;
      };
      const auto process = [&](const DeltaOps& ops, Relation* mine) {
        for (const auto& op : ops) {
          const Tuple& t = op.entry.tuple;
          const auto before = compose(t);
          if (op.is_delete) {
            mine->Erase(t);
          } else {
            mine->InsertUnchecked(t, op.entry.texp);
          }
          EmitChange(t, before, compose(t), &out.ops);
          // Maintain the critical set (Table 2 case 3a) for τ_R and the
          // Theorem 3 helper queue.
          const auto lt = s.left_mat.GetTexp(t);
          const auto rt = s.right_mat.GetTexp(t);
          if (lt.has_value() && rt.has_value() && *rt > round->now &&
              *lt > *rt) {
            s.criticals[t] = {*rt, *lt};
          } else {
            s.criticals.erase(t);
          }
        }
      };
      process(left.ops, &s.left_mat);
      process(right.ops, &s.right_mat);
      Timestamp tau_r = Timestamp::Infinity();
      for (const auto& [t, c] : s.criticals) {
        if (c.first > round->now) tau_r = Timestamp::Min(tau_r, c.first);
      }
      out.children_texp = Timestamp::Min(left.texp, right.texp);
      out.texp = Timestamp::Min(out.children_texp, tau_r);
      if (n.cse_id >= 0) round->cse[n.cse_id] = out;
      return out;
    }
    case PlanOp::kHashJoin: {
      EXPDB_ASSIGN_OR_RETURN(PropOut left, Propagate(*n.left, round));
      EXPDB_ASSIGN_OR_RETURN(PropOut right, Propagate(*n.right, round));
      auto sit = state_.find(n.id);
      if (sit == state_.end()) {
        return Status::Internal("delta: missing join state");
      }
      NodeState& s = *sit->second;
      const Predicate& p = n.expr->predicate();
      // ΔL against R_old, then ΔR against L_new: the standard incremental
      // join decomposition Δ(L ⋈ R) = ΔL ⋈ R ∪ L' ⋈ ΔR.
      for (const auto& op : left.ops) {
        const Tuple& t = op.entry.tuple;
        Tuple key = t.Project(s.left_cols);
        auto& bucket = s.left_buckets[key];
        if (op.is_delete) {
          RemoveFromBucket(&bucket, t);
          if (bucket.empty()) s.left_buckets.erase(key);
        } else {
          UpsertBucket(&bucket, t, op.entry.texp);
        }
        auto rb = s.right_buckets.find(key);
        if (rb == s.right_buckets.end()) continue;
        for (const auto& re : rb->second) {
          if (re.texp <= round->now) continue;  // pair already invisible
          Tuple joined = t.Concat(re.tuple);
          if (!s.covered && !p.Evaluate(joined)) continue;
          out.ops.push_back(
              {op.is_delete,
               {std::move(joined), Timestamp::Min(op.entry.texp, re.texp)}});
        }
      }
      for (const auto& op : right.ops) {
        const Tuple& t = op.entry.tuple;
        Tuple key = t.Project(s.right_cols);
        auto& bucket = s.right_buckets[key];
        if (op.is_delete) {
          RemoveFromBucket(&bucket, t);
          if (bucket.empty()) s.right_buckets.erase(key);
        } else {
          UpsertBucket(&bucket, t, op.entry.texp);
        }
        auto lb = s.left_buckets.find(key);
        if (lb == s.left_buckets.end()) continue;
        for (const auto& le : lb->second) {
          if (le.texp <= round->now) continue;
          Tuple joined = le.tuple.Concat(t);
          if (!s.covered && !p.Evaluate(joined)) continue;
          out.ops.push_back(
              {op.is_delete,
               {std::move(joined), Timestamp::Min(le.texp, op.entry.texp)}});
        }
      }
      out.texp = Timestamp::Min(left.texp, right.texp);
      break;
    }
    case PlanOp::kHashSemiJoin: {
      EXPDB_ASSIGN_OR_RETURN(PropOut left, Propagate(*n.left, round));
      EXPDB_ASSIGN_OR_RETURN(PropOut right, Propagate(*n.right, round));
      auto sit = state_.find(n.id);
      if (sit == state_.end()) {
        return Status::Internal("delta: missing semi-join state");
      }
      NodeState& s = *sit->second;
      const Predicate& p = n.expr->predicate();
      // Max texp over right entries matching `lt` under the predicate —
      // dead-inclusive, for consistency with the seeded outputs (a dead
      // max only produces dead, invisible outputs).
      const auto match_max =
          [&](const Tuple& lt) -> std::optional<Timestamp> {
        auto rb = s.right_buckets.find(lt.Project(s.left_cols));
        if (rb == s.right_buckets.end()) return std::nullopt;
        std::optional<Timestamp> m;
        for (const auto& re : rb->second) {
          if (!s.covered && !p.Evaluate(lt.Concat(re.tuple))) continue;
          m = MaxOpt(m, re.texp);
        }
        return m;
      };
      for (const auto& op : left.ops) {
        const Tuple& t = op.entry.tuple;
        Tuple key = t.Project(s.left_cols);
        auto& bucket = s.left_buckets[key];
        if (op.is_delete) {
          RemoveFromBucket(&bucket, t);
          if (bucket.empty()) s.left_buckets.erase(key);
        } else {
          UpsertBucket(&bucket, t, op.entry.texp);
        }
        const auto m = match_max(t);
        if (m.has_value()) {
          out.ops.push_back(
              {op.is_delete, {t, Timestamp::Min(op.entry.texp, *m)}});
        }
      }
      for (const auto& op : right.ops) {
        const Tuple& t = op.entry.tuple;
        const Timestamp y = op.entry.texp;
        Tuple key = t.Project(s.right_cols);
        if (op.is_delete) {
          auto& bucket = s.right_buckets[key];
          RemoveFromBucket(&bucket, t);
          if (bucket.empty()) s.right_buckets.erase(key);
        }
        auto lb = s.left_buckets.find(key);
        if (lb != s.left_buckets.end()) {
          for (const auto& le : lb->second) {
            if (!s.covered && !p.Evaluate(le.tuple.Concat(t))) continue;
            if (op.is_delete) {
              // Old max was over the bucket still containing t.
              const auto m_new = match_max(le.tuple);
              const auto m_old = MaxOpt(m_new, y);
              EmitChange(le.tuple, Timestamp::Min(le.texp, *m_old),
                         m_new.has_value()
                             ? std::optional<Timestamp>(
                                   Timestamp::Min(le.texp, *m_new))
                             : std::nullopt,
                         &out.ops);
            } else {
              const auto m_old = match_max(le.tuple);  // without t
              const auto m_new = MaxOpt(m_old, y);
              EmitChange(le.tuple,
                         m_old.has_value()
                             ? std::optional<Timestamp>(
                                   Timestamp::Min(le.texp, *m_old))
                             : std::nullopt,
                         Timestamp::Min(le.texp, *m_new), &out.ops);
            }
          }
        }
        if (!op.is_delete) UpsertBucket(&s.right_buckets[key], t, y);
      }
      out.texp = Timestamp::Min(left.texp, right.texp);
      break;
    }
    case PlanOp::kHashAggregate: {
      EXPDB_ASSIGN_OR_RETURN(PropOut child, Propagate(*n.left, round));
      auto sit = state_.find(n.id);
      if (sit == state_.end()) {
        return Status::Internal("delta: missing aggregate state");
      }
      NodeState& s = *sit->second;
      const auto& gb = n.expr->group_by();
      const AggregateFunction& f = n.expr->aggregate();
      // Bucket the child ops by group key, preserving order per group.
      std::map<Tuple, DeltaOps> by_group;
      for (const auto& op : child.ops) {
        by_group[op.entry.tuple.Project(gb)].push_back(op);
      }
      for (auto& [key, group_ops] : by_group) {
        auto git = s.groups.find(key);
        const bool had = git != s.groups.end();
        std::map<Tuple, Timestamp> members =
            had ? git->second.members : std::map<Tuple, Timestamp>{};
        const std::map<Tuple, Timestamp> old_members = members;
        const PartitionAnalysis old_analysis =
            had ? git->second.analysis : PartitionAnalysis{};
        for (const auto& op : group_ops) {
          if (op.is_delete) {
            members.erase(op.entry.tuple);
          } else {
            members[op.entry.tuple] = op.entry.texp;
          }
        }
        std::vector<PartitionEntry> live;
        for (auto mit = members.begin(); mit != members.end(); ++mit) {
          if (mit->second > round->now) {
            live.push_back({&mit->first, mit->second});
          }
        }
        if (live.empty()) {
          // The group died: retract every previously-emitted output.
          if (had) {
            for (const auto& [t, x] : old_members) {
              out.ops.push_back(
                  {true,
                   {t.Append(old_analysis.value),
                    Timestamp::Min(x, old_analysis.change_cap)}});
            }
            s.groups.erase(git);
          }
          continue;
        }
        EXPDB_ASSIGN_OR_RETURN(
            PartitionAnalysis analysis,
            AnalyzePartition(live, f, options_.aggregate_mode));
        if (had && analysis.value == old_analysis.value &&
            analysis.change_cap == old_analysis.change_cap) {
          // Fast path: the partition's value and cap are unchanged, so
          // only the touched members' outputs move.
          for (const auto& op : group_ops) {
            out.ops.push_back(
                {op.is_delete,
                 {op.entry.tuple.Append(analysis.value),
                  Timestamp::Min(op.entry.texp, analysis.change_cap)}});
          }
          git->second.members = std::move(members);
          git->second.analysis = analysis;
        } else {
          // Full per-group replay: retract all old outputs, emit all new
          // ones, and prune the membership to the live set.
          if (had) {
            for (const auto& [t, x] : old_members) {
              out.ops.push_back(
                  {true,
                   {t.Append(old_analysis.value),
                    Timestamp::Min(x, old_analysis.change_cap)}});
            }
          }
          std::map<Tuple, Timestamp> pruned;
          for (const auto& e : live) {
            pruned[*e.tuple] = e.texp;
            out.ops.push_back(
                {false,
                 {e.tuple->Append(analysis.value),
                  Timestamp::Min(e.texp, analysis.change_cap)}});
          }
          NodeState::Group& g = s.groups[key];
          g.members = std::move(pruned);
          g.analysis = analysis;
        }
      }
      Timestamp caps = Timestamp::Infinity();
      for (const auto& [key, g] : s.groups) {
        if (g.analysis.invalidates_expression) {
          caps = Timestamp::Min(caps, g.analysis.change_cap);
        }
      }
      out.texp = Timestamp::Min(child.texp, caps);
      break;
    }
    case PlanOp::kCrossProduct:
    case PlanOp::kHashAntiJoin:
      return Status::Internal("delta: unsupported operator reached");
  }

  out.children_texp = out.texp;
  if (n.cse_id >= 0) round->cse[n.cse_id] = out;
  return out;
}

Result<DeltaPropagator::ApplyResult> DeltaPropagator::Apply(
    const std::vector<BaseDelta>& deltas, Timestamp now) {
  std::map<std::string, DeltaOps> base_ops;
  size_t ops_in = 0;
  for (const auto& base : deltas) {
    DeltaOps& ops = base_ops[base.relation];
    for (const auto& batch : base.batches) {
      // Within a batch the delete precedes the insert (a texp change is
      // delete-old-then-insert-new).
      for (const auto& e : batch.deleted) ops.push_back({true, e});
      for (const auto& e : batch.inserted) ops.push_back({false, e});
      ops_in += batch.deleted.size() + batch.inserted.size();
    }
  }

  Round round{now, &base_ops, {}};
  EXPDB_ASSIGN_OR_RETURN(PropOut root, Propagate(plan_->root(), &round));

  ApplyResult result;
  result.root_ops = std::move(root.ops);
  result.texp = root.texp;
  result.children_texp = root.children_texp;
  result.ops_in = ops_in;
  result.ops_out = result.root_ops.size();
  const PlanNode& root_node = plan_->root();
  if (root_node.op == PlanOp::kHashDifference && !root_node.const_false) {
    result.root_is_difference = true;
    auto sit = state_.find(root_node.id);
    if (sit == state_.end()) {
      return Status::Internal("delta: missing root difference state");
    }
    for (const auto& [t, c] : sit->second->criticals) {
      if (c.first > now) result.helper.push_back({t, c.first, c.second});
    }
    std::sort(result.helper.begin(), result.helper.end(),
              [](const DifferencePatchEntry& a,
                 const DifferencePatchEntry& b) {
                if (a.appears_at != b.appears_at) {
                  return a.appears_at < b.appears_at;
                }
                return a.tuple < b.tuple;
              });
  }
  return result;
}

void DeltaPropagator::ApplyOps(const DeltaOps& ops, Relation* mat) {
  for (const auto& op : ops) {
    if (op.is_delete) {
      mat->Erase(op.entry.tuple);
    } else {
      mat->InsertUnchecked(op.entry.tuple, op.entry.texp);
    }
  }
}

}  // namespace plan
}  // namespace expdb
