// Relation::EraseWhere, the SQL DELETE. It is a member of Relation but
// lives here because it evaluates a Predicate, which is defined one layer
// above relational/; nothing in relational/ calls it.

#include "core/predicate.h"
#include "relational/relation.h"

namespace expdb {

size_t Relation::EraseWhere(const Predicate* pred, Timestamp tau) {
  // ExecScan's classification (plan/executor.cc): expired entries are
  // invisible to DELETE, and a segment whose column bounds the predicate
  // cannot match holds no match — neither is read.
  return RemoveMatching(
             [pred, tau](const SegmentView& s) {
               const bool excluded =
                   s.max_texp <= tau ||
                   (pred != nullptr && s.col_lo != nullptr &&
                    !pred->MayMatchWithin(s.col_lo, s.col_hi));
               return excluded ? SegmentAction::kSkip : SegmentAction::kTest;
             },
             [pred, tau](const Entry& e) {
               return e.texp > tau &&
                      (pred == nullptr || pred->Evaluate(e.tuple));
             },
             /*record_delta=*/true, nullptr)
      .tuples;
}

}  // namespace expdb
