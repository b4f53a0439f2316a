#include "plan/delta.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
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

/// Calls `fn(is_delete, entry)` for each op a scan of `relation` emits
/// this round, read in place from the borrowed batches: per batch its
/// deletes, then its inserts. Inserts already expired at `now` would be
/// invisible to every expτ reader downstream and are skipped; deletes
/// always pass (the tuple may have been live when captured).
template <typename Fn>
void ForEachScanOp(const std::vector<BaseDelta>& deltas,
                   const std::string& relation, Timestamp now, Fn&& fn) {
  for (const BaseDelta& base : deltas) {
    if (base.relation != relation) continue;
    for (const Relation::DeltaBatch& batch : base.batches) {
      for (const Relation::Entry& e : batch.deleted) fn(true, e);
      for (const Relation::Entry& e : batch.inserted) {
        if (e.texp > now) fn(false, e);
      }
    }
  }
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

size_t ResultEntryBytes(const Tuple& t) {
  const size_t entry = sizeof(Relation::Entry) + TuplePayloadBytes(t);
  return entry + entry / 2;
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

  // kHashAggregate: groups hashed on their group-by columns in place (the
  // key is a member tuple), each with its live members and their cached
  // lifetime analysis (valid while now < the result's texp — see
  // Apply()). A per-group node also keeps the member whose row it
  // emitted. `invalid_caps` holds the change caps of the groups that
  // invalidate the expression; its first element bounds texp(e).
  struct Group {
    std::vector<Relation::Entry> members;
    PartitionAnalysis analysis;
    Relation::Entry top;  ///< per-group: the member behind the emitted row
  };
  std::unordered_map<Tuple, Group, GroupKeyHash, GroupKeyEq> groups;
  std::multiset<Timestamp> invalid_caps;

  /// Re-derives `g`'s analysis from its members and adds its cap to
  /// `invalid_caps`.
  Status Analyze(const PlanNode& n, AggregateExpirationMode mode, Group* g) {
    std::vector<PartitionEntry> partition;
    partition.reserve(g->members.size());
    for (const Relation::Entry& m : g->members) {
      partition.push_back({&m.tuple, m.texp});
    }
    EXPDB_ASSIGN_OR_RETURN(g->analysis,
                           AnalyzePartition(partition, n.expr->aggregate(),
                                            mode));
    if (g->analysis.invalidates_expression) {
      invalid_caps.insert(g->analysis.change_cap);
    }
    return Status::OK();
  }

  /// Picks the longest-lived of `candidates` into `g->top`; with `rescan`
  /// the current top is discarded and every member is a candidate.
  static void PickTop(const std::vector<Relation::Entry>& candidates,
                      bool rescan, Group* g) {
    if (rescan) g->top = candidates.front();
    for (const Relation::Entry& m : candidates) {
      if (LivesLonger(m.tuple, m.texp, g->top.tuple, g->top.texp)) {
        g->top = m;
      }
    }
  }

  /// Applies one group's child ops in place, prunes the members dead at
  /// `now`, re-analyzes the group and emits the change to its rows: at
  /// most one delete and one insert for a per-group node; for a
  /// per-member node the touched members' rows, or every row when the
  /// value or the cap moved.
  Status UpdateGroup(const PlanNode& n, const Tuple& key,
                     const std::vector<const DeltaOp*>& ops, Timestamp now,
                     AggregateExpirationMode mode, DeltaOps* out) {
    // The net change per touched tuple (nullopt = deleted); the last op on
    // a tuple wins. Without a delete every op inserts an absent tuple, so
    // members need no probing (a dead copy left behind is pruned below).
    std::unordered_map<Tuple, std::optional<Timestamp>> changes;
    bool has_delete = false;
    for (const DeltaOp* op : ops) {
      has_delete |= op->is_delete;
      changes[op->entry.tuple] =
          op->is_delete ? std::nullopt
                        : std::optional<Timestamp>(op->entry.texp);
    }
    auto git = groups.find(key);
    const bool had = git != groups.end();
    if (!had) git = groups.try_emplace(key).first;
    Group& g = git->second;
    const PartitionAnalysis old = g.analysis;
    const Relation::Entry old_top = g.top;
    if (had && old.invalidates_expression) {
      invalid_caps.erase(invalid_caps.find(old.change_cap));
    }

    // Compact in place: members [0, kept) are unchanged; the old versions
    // of members that leave or change texp go to `removed`, and their new
    // versions plus the inserts are appended after `kept`.
    std::vector<Relation::Entry> removed;
    std::vector<Relation::Entry> added;
    size_t kept = 0;
    bool top_left = !had;  // the emitted row's member left or changed
    for (size_t i = 0; i < g.members.size(); ++i) {
      Relation::Entry& m = g.members[i];
      std::optional<Timestamp> texp = m.texp;
      if (has_delete) {
        auto c = changes.find(m.tuple);
        if (c != changes.end()) {
          texp = c->second;
          changes.erase(c);
        }
      }
      if (texp == m.texp && m.texp > now) {
        if (kept != i) g.members[kept] = std::move(m);
        ++kept;
        continue;
      }
      if (texp.has_value() && *texp > now) added.push_back({m.tuple, *texp});
      top_left = top_left || (n.per_group && m.tuple == old_top.tuple);
      removed.push_back(std::move(m));
    }
    g.members.resize(kept);
    for (auto& [t, texp] : changes) {
      if (texp.has_value() && *texp > now) added.push_back({t, *texp});
    }
    g.members.insert(g.members.end(), added.begin(), added.end());

    auto retract_old = [&]() {
      if (!had) return;
      if (n.per_group) {
        out->push_back({true, AggregateRow(old_top.tuple, old_top.texp, old)});
        return;
      }
      for (size_t i = 0; i < kept; ++i) {
        out->push_back(
            {true, AggregateRow(g.members[i].tuple, g.members[i].texp, old)});
      }
      for (const Relation::Entry& m : removed) {
        out->push_back({true, AggregateRow(m.tuple, m.texp, old)});
      }
    };
    if (g.members.empty()) {
      retract_old();
      groups.erase(git);
      return Status::OK();
    }
    EXPDB_RETURN_NOT_OK(Analyze(n, mode, &g));
    const PartitionAnalysis& now_a = g.analysis;
    if (n.per_group) {
      // The top only changes to a newcomer unless it left the group.
      PickTop(top_left ? g.members : added, top_left, &g);
      const Relation::Entry row = AggregateRow(g.top.tuple, g.top.texp, now_a);
      if (had) {
        const Relation::Entry old_row =
            AggregateRow(old_top.tuple, old_top.texp, old);
        if (old_row.tuple == row.tuple && old_row.texp == row.texp) {
          return Status::OK();
        }
        out->push_back({true, old_row});
      }
      out->push_back({false, row});
      return Status::OK();
    }
    if (had && old.value == now_a.value && old.change_cap == now_a.change_cap) {
      // The unchanged members keep their rows; only the touched ones move.
      for (const Relation::Entry& m : removed) {
        out->push_back({true, AggregateRow(m.tuple, m.texp, old)});
      }
      for (const Relation::Entry& m : added) {
        out->push_back({false, AggregateRow(m.tuple, m.texp, now_a)});
      }
      return Status::OK();
    }
    retract_old();
    for (const Relation::Entry& m : g.members) {
      out->push_back({false, AggregateRow(m.tuple, m.texp, now_a)});
    }
    return Status::OK();
  }
};

/// Per-Apply round context.
struct DeltaPropagator::Round {
  Timestamp now;
  /// The bases' borrowed batches; scans read them in place.
  const std::vector<BaseDelta>* deltas;
  /// Per-round memo of common-subtree outputs, keyed by cse_id: the
  /// primary occurrence (first in the executor's left-first DFS order)
  /// computes and owns the state, shadows reuse the ops.
  std::map<int32_t, PropOut> cse;
  /// Ops emitted by every node this round (shadows counted once).
  size_t ops_total = 0;
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
      state->groups = decltype(state->groups)(16, GroupKeyHash{&gb},
                                              GroupKeyEq{&gb});
      // Consecutive members of one group share one hash lookup.
      NodeState::Group* run = nullptr;
      const Tuple* run_key = nullptr;
      for (const auto& e : ChildEntries(*n.left, capture)) {
        if (run == nullptr || !state->groups.key_eq()(*run_key, e.tuple)) {
          run_key = &e.tuple;
          run = &state->groups[e.tuple];
        }
        run->members.push_back(e);
      }
      for (auto& [key, group] : state->groups) {
        if (!state->Analyze(n, options_.aggregate_mode, &group).ok()) {
          return false;
        }
        if (n.per_group) NodeState::PickTop(group.members, true, &group);
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
  // A tuple that owns its payload (a projected key): handle and payload
  // header, plus the values themselves.
  auto owned = [](const Tuple& t) {
    return sizeof(Tuple) + Tuple::kHeaderBytes + TuplePayloadBytes(t);
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
    // Group keys and members borrow their tuples from the child.
    for (const auto& [key, group] : s->groups) {
      bytes += kNode + sizeof(key) + sizeof(group) +
               group.members.capacity() * sizeof(Relation::Entry);
    }
    bytes += s->invalid_caps.size() * (kNode + sizeof(Timestamp));
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
    case PlanOp::kScan:
      ForEachScanOp(*round->deltas, n.expr->relation_name(), round->now,
                    [&](bool is_delete, const Relation::Entry& e) {
                      out.ops.push_back({is_delete, e});
                    });
      break;  // scans are monotonic: texp stays ∞
    case PlanOp::kFilter: {
      const Predicate& p = n.expr->predicate();
      const PlanNode& input = *n.left;
      if (input.op == PlanOp::kScan && !input.const_false &&
          input.cse_id < 0) {
        // Fused with its scan: the predicate reads the borrowed batches
        // and only matches are copied. The scan's ops still count toward
        // ops_total, as if it had emitted them. Scans are monotonic, so
        // texp stays ∞.
        size_t scanned = 0;
        ForEachScanOp(*round->deltas, input.expr->relation_name(), round->now,
                      [&](bool is_delete, const Relation::Entry& e) {
                        ++scanned;
                        if (p.Evaluate(e.tuple)) {
                          out.ops.push_back({is_delete, e});
                        }
                      });
        round->ops_total += scanned;
        break;
      }
      EXPDB_ASSIGN_OR_RETURN(PropOut child, Propagate(input, round));
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
      round->ops_total += out.ops.size();
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
      // Bucket the child ops by group, in order, keyed on their own tuples'
      // group-by columns.
      const auto& gb = n.expr->group_by();
      std::unordered_map<const Tuple*, std::vector<const DeltaOp*>,
                         GroupKeyHash, GroupKeyEq>
          by_group(16, GroupKeyHash{&gb}, GroupKeyEq{&gb});
      for (const auto& op : child.ops) {
        by_group[&op.entry.tuple].push_back(&op);
      }
      for (const auto& [key, group_ops] : by_group) {
        EXPDB_RETURN_NOT_OK(s.UpdateGroup(n, *key, group_ops, round->now,
                                          options_.aggregate_mode, &out.ops));
      }
      out.texp = Timestamp::Min(child.texp, s.invalid_caps.empty()
                                                ? Timestamp::Infinity()
                                                : *s.invalid_caps.begin());
      break;
    }
    case PlanOp::kCrossProduct:
    case PlanOp::kHashAntiJoin:
      return Status::Internal("delta: unsupported operator reached");
  }

  out.children_texp = out.texp;
  round->ops_total += out.ops.size();
  if (n.cse_id >= 0) round->cse[n.cse_id] = out;
  return out;
}

Result<DeltaPropagator::ApplyResult> DeltaPropagator::Apply(
    const std::vector<BaseDelta>& deltas, Timestamp now) {
  size_t ops_in = 0;
  for (const BaseDelta& base : deltas) {
    for (const Relation::DeltaBatch& batch : base.batches) {
      ops_in += batch.deleted.size() + batch.inserted.size();
    }
  }

  Round round{now, &deltas, {}, 0};
  EXPDB_ASSIGN_OR_RETURN(PropOut root, Propagate(plan_->root(), &round));

  ApplyResult result;
  result.root_ops = std::move(root.ops);
  result.texp = root.texp;
  result.children_texp = root.children_texp;
  result.ops_in = ops_in;
  result.ops_out = result.root_ops.size();
  result.ops_total = round.ops_total;
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

int64_t DeltaPropagator::ApplyOps(const DeltaOps& ops, Relation* mat) {
  // The net change per touched tuple (nullopt = deleted): the last op on
  // a tuple wins, as if the ops were applied one by one.
  std::unordered_map<Tuple, std::optional<Timestamp>> net;
  for (const DeltaOp& op : ops) {
    if (op.is_delete) {
      net[op.entry.tuple].reset();
    } else {
      net[op.entry.tuple] = op.entry.texp;
    }
  }
  std::vector<Relation::Entry> deleted;
  std::vector<Relation::Entry> inserted;
  int64_t bytes = 0;
  for (auto& [tuple, texp] : net) {
    const std::optional<Timestamp> old = mat->GetTexp(tuple);
    if (old == texp) continue;
    const int64_t row = static_cast<int64_t>(ResultEntryBytes(tuple));
    bytes += (texp.has_value() ? row : 0) - (old.has_value() ? row : 0);
    if (old.has_value()) deleted.push_back({tuple, *old});
    if (texp.has_value()) inserted.push_back({tuple, *texp});
  }
  mat->ApplyChange(std::move(deleted), std::move(inserted));
  return bytes;
}

}  // namespace plan
}  // namespace expdb
