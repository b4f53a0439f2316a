#include "core/difference.h"

#include <algorithm>
#include <mutex>

#include "common/thread_pool.h"

namespace expdb {

namespace {

/// Per-morsel accumulator for the parallel left scan.
struct DiffLocal {
  std::vector<Relation::Entry> result;
  std::vector<DifferencePatchEntry> critical;
  IntervalSet invalid_windows;
  size_t common_count = 0;
  Timestamp min_appears = Timestamp::Infinity();
  Timestamp max_expires = Timestamp::Zero();
};

/// Classifies the left entries [begin, end) against `right` (Table 2).
void ScanLeftRange(const std::vector<Relation::Entry>& left,
                   const Relation& right, size_t begin, size_t end,
                   DiffLocal* local) {
  for (size_t i = begin; i < end; ++i) {
    const Tuple& t = left[i].tuple;
    const Timestamp texp_r = left[i].texp;
    auto texp_s = right.GetTexp(t);
    if (!texp_s.has_value()) {
      // Case (1): t ∈ R ∧ t ∉ S — in the result with texp_R(t).
      local->result.push_back({t, texp_r});
      continue;
    }
    // Case (3): t in both.
    ++local->common_count;
    if (texp_r > *texp_s) {
      // Case (3a): critical — t must re-appear at texp_S(t).
      local->critical.push_back({t, *texp_s, texp_r});
      local->invalid_windows.Add(*texp_s, texp_r);
      local->min_appears = Timestamp::Min(local->min_appears, *texp_s);
      local->max_expires = Timestamp::Max(local->max_expires, texp_r);
    }
    // Case (3b): texp_R <= texp_S — never re-appears; nothing to do.
  }
  // Case (2): t ∉ R ∧ t ∈ S — disregarded entirely.
}

void MergeLocal(DiffLocal&& local, DiffLocal* total) {
  total->result.insert(total->result.end(),
                       std::make_move_iterator(local.result.begin()),
                       std::make_move_iterator(local.result.end()));
  total->critical.insert(total->critical.end(),
                         std::make_move_iterator(local.critical.begin()),
                         std::make_move_iterator(local.critical.end()));
  for (const Interval& iv : local.invalid_windows.intervals()) {
    total->invalid_windows.Add(iv);
  }
  total->common_count += local.common_count;
  total->min_appears = Timestamp::Min(total->min_appears, local.min_appears);
  total->max_expires = Timestamp::Max(total->max_expires, local.max_expires);
}

}  // namespace

DifferenceAnalysis AnalyzeDifference(const Relation& left,
                                     const Relation& right, size_t workers,
                                     size_t min_morsel) {
  const std::vector<Relation::Entry>& entries = left.entries();
  DiffLocal total;
  if (workers <= 1) {
    total.result.reserve(entries.size());
    ScanLeftRange(entries, right, 0, entries.size(), &total);
  } else {
    std::mutex mu;
    ParallelForOptions opts;
    opts.parallelism = workers;
    opts.min_morsel_size = min_morsel;
    ParallelFor(entries.size(), opts, [&](size_t begin, size_t end) {
      DiffLocal local;
      ScanLeftRange(entries, right, begin, end, &local);
      std::lock_guard<std::mutex> lock(mu);
      MergeLocal(std::move(local), &total);
    });
  }

  std::sort(total.critical.begin(), total.critical.end(),
            [](const DifferencePatchEntry& a, const DifferencePatchEntry& b) {
              if (a.appears_at != b.appears_at) {
                return a.appears_at < b.appears_at;
              }
              return a.tuple < b.tuple;
            });

  DifferenceAnalysis out;
  // Left entries are pairwise distinct, so the surviving subset is too.
  out.result =
      Relation::FromEntriesUnchecked(left.schema(), std::move(total.result));
  out.critical = std::move(total.critical);
  out.common_count = total.common_count;
  out.invalid_windows = std::move(total.invalid_windows);
  if (!out.critical.empty()) {
    out.tau_r = total.min_appears;
    out.coarse_invalid_window =
        IntervalSet(total.min_appears, total.max_expires);
  }
  return out;
}

size_t ApplyDifferencePatches(const std::vector<DifferencePatchEntry>& helper,
                              size_t* cursor, Timestamp now,
                              Relation* result) {
  std::vector<Relation::Entry> replaced;
  std::vector<Relation::Entry> inserted;
  while (*cursor < helper.size() && helper[*cursor].appears_at <= now) {
    const DifferencePatchEntry& entry = helper[(*cursor)++];
    if (entry.expires_at <= now) continue;
    if (auto old = result->GetTexp(entry.tuple)) {
      replaced.push_back({entry.tuple, *old});
    }
    inserted.push_back({entry.tuple, entry.expires_at});
  }
  const size_t applied = inserted.size();
  result->ApplyChange(std::move(replaced), std::move(inserted));
  return applied;
}

}  // namespace expdb
