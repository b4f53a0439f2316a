// Relation::EraseWhere, the SQL DELETE. It is a member of Relation but
// lives here because it evaluates a Predicate, which is defined one layer
// above relational/; nothing in relational/ calls it.

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "core/predicate.h"
#include "relational/relation.h"

namespace expdb {

size_t Relation::EraseWhere(const Predicate* pred, Timestamp tau) {
  const bool record = delta_tracking();
  std::vector<Entry> removed;
  size_t count = 0;
  EnsureSlots();  // the swap-erases patch index slots
  for (size_t i = 0; i < segments_.size();) {
    // ExecScan's classification (plan/executor.cc): expired entries are
    // invisible to DELETE, and a segment whose column bounds the
    // predicate cannot match holds no match — neither is read.
    const SegmentView view = GetSegment(i);
    if (view.size == 0 || view.max_texp <= tau ||
        (pred != nullptr && view.col_lo != nullptr &&
         !pred->MayMatchWithin(view.col_lo, view.col_hi))) {
      ++i;
      continue;
    }
    const bool all_live = view.min_texp > tau;
    Segment* seg = segments_[i].get();
    for (size_t off = 0; off < seg->entries.size();) {
      Entry& e = seg->entries[off];
      if ((!all_live && e.texp <= tau) ||
          (pred != nullptr && !pred->Evaluate(e.tuple))) {
        ++off;
        continue;
      }
      const size_t slot = FindSlotByHandle(e.tuple, MakeHandle(seg->id, off));
      assert(slot != kNotFound);
      ++count;
      if (record) removed.push_back(std::move(e));
      // Swap-with-last: the unvisited last entry now sits at `off`.
      EraseWithinSegment(seg, off, slot);
    }
    if (seg->entries.empty()) {
      DropSegmentAt(i);
      continue;
    }
    ++i;
  }
  if (count == 0) return 0;
  if (total_entries_ == 0) ResetStorage();
  if (record) {
    std::sort(removed.begin(), removed.end(),
              [](const Entry& a, const Entry& b) {
                if (a.texp != b.texp) return a.texp < b.texp;
                return a.tuple < b.tuple;
              });
    RecordDeltaDrain(std::move(removed));
  }
  return count;
}

}  // namespace expdb
