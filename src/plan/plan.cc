#include "plan/plan.h"

#include <cmath>
#include <cstdio>

#include "plan/delta.h"

namespace expdb {
namespace plan {

std::string_view PlanOpName(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "Scan";
    case PlanOp::kFilter:
      return "Filter";
    case PlanOp::kProject:
      return "Project";
    case PlanOp::kCrossProduct:
      return "CrossProduct";
    case PlanOp::kUnionMerge:
      return "Union";
    case PlanOp::kHashJoin:
      return "HashJoin";
    case PlanOp::kHashIntersect:
      return "HashIntersect";
    case PlanOp::kHashDifference:
      return "HashDifference";
    case PlanOp::kHashAggregate:
      return "HashAggregate";
    case PlanOp::kHashSemiJoin:
      return "HashSemiJoin";
    case PlanOp::kHashAntiJoin:
      return "HashAntiJoin";
  }
  return "?";
}

PlanOp PlanOpForKind(ExprKind kind) {
  switch (kind) {
    case ExprKind::kBase:
      return PlanOp::kScan;
    case ExprKind::kSelect:
      return PlanOp::kFilter;
    case ExprKind::kProject:
      return PlanOp::kProject;
    case ExprKind::kProduct:
      return PlanOp::kCrossProduct;
    case ExprKind::kUnion:
      return PlanOp::kUnionMerge;
    case ExprKind::kJoin:
      return PlanOp::kHashJoin;
    case ExprKind::kIntersect:
      return PlanOp::kHashIntersect;
    case ExprKind::kDifference:
      return PlanOp::kHashDifference;
    case ExprKind::kAggregate:
      return PlanOp::kHashAggregate;
    case ExprKind::kSemiJoin:
      return PlanOp::kHashSemiJoin;
    case ExprKind::kAntiJoin:
      return PlanOp::kHashAntiJoin;
  }
  return PlanOp::kScan;
}

namespace {

std::string FormatDurationNs(int64_t ns) {
  char buf[32];
  if (ns >= 1'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1'000) {
    std::snprintf(buf, sizeof(buf), "%.1fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

std::string FormatEstRows(double est) {
  return std::to_string(static_cast<long long>(std::llround(est)));
}

/// 1-based attribute list "$2,$1" (matching the predicate operand syntax).
std::string FormatAttrs(const std::vector<size_t>& attrs) {
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += "$" + std::to_string(attrs[i] + 1);
  }
  return out;
}

void RenderNode(const PlanNode& n, const PlanProfile* profile,
                const EvalOptions& eval, size_t depth, std::string* out) {
  out->append(2 * depth, ' ');
  *out += "#" + std::to_string(n.id) + " ";
  *out += PlanOpName(n.op);
  *out += " [";
  switch (n.op) {
    case PlanOp::kScan:
      *out += n.expr->relation_name() + ", ";
      break;
    case PlanOp::kFilter:
    case PlanOp::kHashSemiJoin:
    case PlanOp::kHashAntiJoin:
      *out += n.expr->predicate().ToString() + ", ";
      break;
    case PlanOp::kHashJoin:
      *out += n.expr->predicate().ToString() + ", build=";
      *out += n.build_left ? "left" : "right";
      *out += ", ";
      break;
    case PlanOp::kProject:
      *out += "cols=" + FormatAttrs(n.expr->projection()) + ", ";
      break;
    case PlanOp::kHashAggregate:
      *out += "group=" + FormatAttrs(n.expr->group_by()) + ", f=" +
              n.expr->aggregate().ToString() + ", ";
      break;
    case PlanOp::kCrossProduct:
    case PlanOp::kUnionMerge:
    case PlanOp::kHashIntersect:
    case PlanOp::kHashDifference:
      break;
  }
  *out += "est=" + FormatEstRows(n.est_rows);
  if (n.const_false) *out += ", const=false";
  if (n.cse_id >= 0) *out += ", cse=#" + std::to_string(n.cse_id);
  if (n.parallel) *out += ", parallel";
  *out += "]";
  if (n.per_group) *out += " [per-group]";
  if (!n.const_false && NodeSupportsDelta(n, eval)) *out += " [incremental]";
  if (profile != nullptr && n.id < profile->nodes.size()) {
    const PlanProfile::NodeStats& s = profile->at(n.id);
    *out += " (rows=" + std::to_string(s.rows) +
            ", time=" + FormatDurationNs(s.wall_ns) +
            ", calls=" + std::to_string(s.calls) + ")";
    if (s.pruned) *out += " [pruned]";
    if (s.reused) *out += " [reused]";
    // Partition-aware scans: how the segment bounds classified against τ
    // and, under a fused filter, against the predicate.
    if (n.partition_aware &&
        s.segs_live + s.segs_checked + s.segs_pruned + s.segs_skipped > 0) {
      *out += " [segments: " + std::to_string(s.segs_live) + "/" +
              std::to_string(s.segs_checked) + "/" +
              std::to_string(s.segs_pruned);
      if (s.segs_skipped > 0) {
        *out += ", " + std::to_string(s.segs_skipped) + " skipped";
      }
      *out += "]";
    }
  }
  *out += "\n";
  if (n.left != nullptr) RenderNode(*n.left, profile, eval, depth + 1, out);
  if (n.right != nullptr) {
    RenderNode(*n.right, profile, eval, depth + 1, out);
  }
}

}  // namespace

std::string PhysicalPlan::ToString(const PlanProfile* profile) const {
  std::string out = "PhysicalPlan nodes=" + std::to_string(node_count_);
  if (rewrites_.total() > 0) {
    out += " rewrites:";
    bool first = true;
    for (const auto& [rule, count] : rewrites_.rule_applications) {
      out += first ? " " : ", ";
      first = false;
      out += rule + "x" + std::to_string(count);
    }
  }
  if (profile != nullptr) {
    out += " total_time=" + FormatDurationNs(profile->total_ns);
  }
  out += "\n";
  RenderNode(*root_, profile, options_.eval, 0, &out);
  return out;
}

}  // namespace plan
}  // namespace expdb
