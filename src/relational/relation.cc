#include "relational/relation.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace expdb {

namespace {

/// Smallest power of two >= n (and >= 16).
size_t NextPow2(size_t n) {
  size_t cap = 16;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Process-unique ids for tracked relations; 0 is reserved for "untracked".
uint64_t NextDeltaInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// A one-entry batch side, built without the extra copy that a braced
/// initializer list would make.
std::vector<Relation::Entry> One(Relation::Entry e) {
  std::vector<Relation::Entry> v;
  v.push_back(std::move(e));
  return v;
}

}  // namespace

const std::vector<Relation::Entry>& Relation::EmptyEntries() {
  static const std::vector<Entry> kEmptyVec;
  return kEmptyVec;
}

// --- identity -------------------------------------------------------------

void Relation::CopySegmentsFrom(const Relation& other) {
  segments_.clear();
  segments_.reserve(other.segments_.size());
  for (const auto& seg : other.segments_) {
    segments_.push_back(std::make_unique<Segment>(*seg));
  }
  // Preserve the id-space size, holes included: the copied slots_ may hold
  // stale handles of bulk-dropped segments, and shrinking the table would
  // let a later FindOrCreateSegment re-issue one of those retired ids.
  seg_by_id_.assign(other.seg_by_id_.size(), nullptr);
  for (const auto& seg : segments_) seg_by_id_[seg->id] = seg.get();
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      total_entries_(other.total_entries_),
      segmented_(other.segmented_),
      bucket_width_(other.bucket_width_),
      max_segments_(other.max_segments_) {
  // A concurrent const reader of `other` may be materializing its lazy
  // index (which also renumbers segment ids), so copy the index state
  // and the segments under its build lock.
  std::lock_guard<std::mutex> lock(other.slots_mu_);
  slots_ = other.slots_;
  tombstones_ = other.tombstones_;
  slots_ready_.store(other.slots_ready_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  CopySegmentsFrom(other);
}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    schema_ = other.schema_;
    total_entries_ = other.total_entries_;
    segmented_ = other.segmented_;
    bucket_width_ = other.bucket_width_;
    max_segments_ = other.max_segments_;
    {
      std::lock_guard<std::mutex> lock(other.slots_mu_);
      slots_ = other.slots_;
      tombstones_ = other.tombstones_;
      slots_ready_.store(
          other.slots_ready_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      CopySegmentsFrom(other);
    }
    // Assignment replaces this object's contents wholesale; any recorded
    // history no longer describes them.
    delete delta_.exchange(nullptr, std::memory_order_acq_rel);
  }
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      segments_(std::move(other.segments_)),
      seg_by_id_(std::move(other.seg_by_id_)),
      slots_(std::move(other.slots_)),
      tombstones_(other.tombstones_),
      total_entries_(other.total_entries_),
      segmented_(other.segmented_),
      bucket_width_(other.bucket_width_),
      max_segments_(other.max_segments_),
      delta_(other.delta_.exchange(nullptr, std::memory_order_acq_rel)) {
  slots_ready_.store(other.slots_ready_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  other.total_entries_ = 0;
  other.tombstones_ = 0;
  // Moved-from: no segments, no slots — trivially "built".
  other.slots_ready_.store(true, std::memory_order_relaxed);
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    segments_ = std::move(other.segments_);
    seg_by_id_ = std::move(other.seg_by_id_);
    slots_ = std::move(other.slots_);
    tombstones_ = other.tombstones_;
    total_entries_ = other.total_entries_;
    segmented_ = other.segmented_;
    bucket_width_ = other.bucket_width_;
    max_segments_ = other.max_segments_;
    slots_ready_.store(other.slots_ready_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    other.total_entries_ = 0;
    other.tombstones_ = 0;
    other.slots_ready_.store(true, std::memory_order_relaxed);
    delete delta_.exchange(
        other.delta_.exchange(nullptr, std::memory_order_acq_rel),
        std::memory_order_acq_rel);
  }
  return *this;
}

Relation::~Relation() {
  delete delta_.load(std::memory_order_acquire);
}

// --- delta capture --------------------------------------------------------

void Relation::EnableDeltaTracking(size_t ring_capacity) const {
  if (delta_log() != nullptr) return;
  auto* log = new DeltaLog();
  log->instance_id = NextDeltaInstanceId();
  log->capacity = ring_capacity > 0 ? ring_capacity : 1;
  // First publisher wins; a concurrent enable that lost the race frees
  // its candidate. Readers pair with the acquire load in delta_log().
  DeltaLog* expected = nullptr;
  if (!delta_.compare_exchange_strong(expected, log,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    delete log;
  }
}

uint64_t Relation::delta_instance_id() const {
  const DeltaLog* log = delta_log();
  return log != nullptr ? log->instance_id : 0;
}

uint64_t Relation::delta_epoch() const {
  const DeltaLog* log = delta_log();
  return log != nullptr ? log->epoch : 0;
}

std::optional<Relation::DeltaRange> Relation::DeltasSince(
    uint64_t since) const {
  const DeltaLog* log = delta_log();
  if (log == nullptr) return std::nullopt;
  // A cursor from the future (or from another relation's clock) or one
  // older than the retained window cannot be served exactly.
  if (since > log->epoch || since < log->floor) return std::nullopt;
  // The ring holds epochs floor+1 .. epoch in order, so epoch since+1
  // sits at offset since - floor.
  assert(log->batches.size() == log->epoch - log->floor);
  const auto first = log->batches.begin() +
                     static_cast<std::ptrdiff_t>(since - log->floor);
  return DeltaRange(first, log->batches.end());
}

void Relation::RecordDelta(std::vector<Entry> deleted,
                           std::vector<Entry> inserted) {
  DeltaLog* log = delta_log();
  if (log == nullptr) return;
  DeltaBatch b;
  b.epoch = ++log->epoch;
  b.deleted = std::move(deleted);
  b.inserted = std::move(inserted);
  log->entries += b.deleted.size() + b.inserted.size();
  log->batches.push_back(std::move(b));
  TrimDeltaRing();
}

void Relation::TrimDeltaRing() {
  DeltaLog* log = delta_log();
  while (log->batches.size() > 1 && log->entries > log->capacity) {
    const DeltaBatch& oldest = log->batches.front();
    log->entries -= oldest.deleted.size() + oldest.inserted.size();
    log->floor = oldest.epoch;
    log->batches.pop_front();
  }
}

void Relation::BreakDeltaHistory() {
  DeltaLog* log = delta_log();
  if (log == nullptr) return;
  log->batches.clear();
  log->entries = 0;
  log->floor = ++log->epoch;
}

// --- segment directory ----------------------------------------------------

Relation::Entry* Relation::ResolveHandle(int64_t handle, Segment** seg_out,
                                         size_t* off_out) const {
  const uint64_t packed = static_cast<uint64_t>(handle);
  const size_t id = static_cast<size_t>(packed >> 32);
  const size_t off = static_cast<size_t>(packed & 0xffffffffu);
  Segment* seg = id < seg_by_id_.size() ? seg_by_id_[id] : nullptr;
  // seg == nullptr: the segment was bulk-dropped and the slot is stale.
  // The offset check is defensive: live segments only shrink via
  // swap-with-last which patches slots, so it should never fire.
  if (seg == nullptr || off >= seg->entries.size()) return nullptr;
  if (seg_out != nullptr) *seg_out = seg;
  if (off_out != nullptr) *off_out = off;
  return &seg->entries[off];
}

Relation::Segment* Relation::FindOrCreateSegment(int64_t bucket) {
  auto it = std::lower_bound(
      segments_.begin(), segments_.end(), bucket,
      [](const std::unique_ptr<Segment>& s, int64_t b) {
        return s->bucket < b;
      });
  if (it != segments_.end() && (*it)->bucket == bucket) return it->get();
  auto seg = std::make_unique<Segment>();
  seg->bucket = bucket;
  seg->cols_known = segmented_;
  seg->id = static_cast<uint32_t>(seg_by_id_.size());
  seg_by_id_.push_back(seg.get());
  return segments_.insert(it, std::move(seg))->get();
}

Relation::Segment* Relation::FlatSegment() {
  if (!segments_.empty()) return segments_[0].get();
  return FindOrCreateSegment(kFlatBucket);
}

void Relation::DropSegment(Segment* seg) {
  seg_by_id_[seg->id] = nullptr;
  for (auto it = segments_.begin(); it != segments_.end(); ++it) {
    if (it->get() == seg) {
      segments_.erase(it);
      return;
    }
  }
  assert(false && "DropSegment: segment not in directory");
}

void Relation::WidenColumnBounds(Segment* seg, std::span<const Value> lo,
                                 std::span<const Value> hi) {
  if (!seg->cols_known) return;
  if (seg->col_lo.empty()) {
    seg->col_lo.assign(lo.begin(), lo.end());
    seg->col_hi.assign(hi.begin(), hi.end());
    return;
  }
  if (lo.size() != seg->col_lo.size()) {
    ForgetColumnBounds(seg);
    return;
  }
  // The numeric type a column's bounds commit it to (kNull: none yet).
  auto numeric_type = [](const Value& a, const Value& b) {
    return a.is_numeric() ? a.type()
                          : b.is_numeric() ? b.type() : ValueType::kNull;
  };
  for (size_t i = 0; i < lo.size(); ++i) {
    const ValueType have = numeric_type(seg->col_lo[i], seg->col_hi[i]);
    const ValueType add = numeric_type(lo[i], hi[i]);
    if (have != ValueType::kNull && add != ValueType::kNull && have != add) {
      ForgetColumnBounds(seg);
      return;
    }
    if (lo[i] < seg->col_lo[i]) seg->col_lo[i] = lo[i];
    if (seg->col_hi[i] < hi[i]) seg->col_hi[i] = hi[i];
  }
}

void Relation::ForgetColumnBounds(Segment* seg) {
  seg->cols_known = false;
  seg->col_lo.clear();
  seg->col_hi.clear();
}

size_t Relation::AppendEntry(Segment* seg, Tuple tuple, Timestamp texp) {
  seg->min_texp = Timestamp::Min(seg->min_texp, texp);
  seg->max_texp = Timestamp::Max(seg->max_texp, texp);
  WidenColumnBounds(seg, tuple.values(), tuple.values());
  seg->entries.push_back(Entry{std::move(tuple), texp});
  return seg->entries.size() - 1;
}

void Relation::MaybeRebucket() {
  if (!segmented_) return;
  size_t finite = segments_.size();
  if (finite > 0 && segments_.back()->bucket == kInfBucket) --finite;
  if (finite <= max_segments_) return;
  // Double the width until the finite segments fit the cap. Bucket keys
  // halve exactly under doubling (ticks/(2w) == (ticks/w)/2 for ticks,
  // w >= 0), so merging is a linear coalescing pass over the sorted
  // directory — no per-entry re-bucketing needed to find neighbours.
  while (finite > max_segments_) {
    bucket_width_ *= 2;
    std::vector<std::unique_ptr<Segment>> merged;
    merged.reserve(segments_.size());
    for (auto& seg : segments_) {
      const int64_t nb =
          seg->bucket == kInfBucket ? kInfBucket : seg->bucket / 2;
      if (!merged.empty() && merged.back()->bucket == nb) {
        Segment& dst = *merged.back();
        dst.min_texp = Timestamp::Min(dst.min_texp, seg->min_texp);
        dst.max_texp = Timestamp::Max(dst.max_texp, seg->max_texp);
        if (!seg->cols_known) {
          ForgetColumnBounds(&dst);
        } else if (!seg->col_lo.empty()) {
          WidenColumnBounds(&dst, seg->col_lo, seg->col_hi);
        }
        dst.entries.insert(dst.entries.end(),
                           std::make_move_iterator(seg->entries.begin()),
                           std::make_move_iterator(seg->entries.end()));
      } else {
        seg->bucket = nb;
        merged.push_back(std::move(seg));
      }
    }
    segments_ = std::move(merged);
    finite = segments_.size();
    if (finite > 0 && segments_.back()->bucket == kInfBucket) --finite;
  }
  // Offsets (and potentially ids) changed wholesale; rebuild the index.
  RebuildIndex();
}

// --- hash index -----------------------------------------------------------

void Relation::EnsureSlots() const {
  if (slots_ready_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(slots_mu_);
  if (slots_ready_.load(std::memory_order_relaxed)) return;
  // !slots_ready_ guarantees slots_ is empty, so this is a from-scratch
  // build, not a repair. Rehash publishes the flag (release) when done.
  const_cast<Relation*>(this)->RebuildIndex();
}

size_t Relation::FindSlot(const Tuple& tuple) const {
  EnsureSlots();
  if (slots_.empty()) return kNotFound;
  const size_t mask = slots_.size() - 1;
  size_t slot = tuple.Hash() & mask;
  for (;;) {
    const int64_t s = slots_[slot];
    if (s == kEmpty) return kNotFound;
    if (s != kTombstone) {
      const Entry* e = ResolveHandle(s);
      // Stale handles (bulk-dropped segment) probe like tombstones.
      if (e != nullptr && e->tuple == tuple) return slot;
    }
    slot = (slot + 1) & mask;
  }
}

size_t Relation::FindSlotByHandle(const Tuple& tuple, int64_t handle) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = tuple.Hash() & mask;
  for (;;) {
    const int64_t s = slots_[slot];
    if (s == handle) return slot;
    if (s == kEmpty) return kNotFound;
    slot = (slot + 1) & mask;
  }
}

void Relation::Rehash(size_t n) {
  // Load factor 0.7: capacity such that n < 0.7 * cap.
  slots_.assign(NextPow2(n * 10 / 7 + 1), kEmpty);
  tombstones_ = 0;
  // Renumber segment ids compactly: stale ids (bulk-dropped segments) are
  // only reachable through slots, and every slot is being rewritten.
  seg_by_id_.clear();
  seg_by_id_.reserve(segments_.size());
  for (const auto& seg : segments_) {
    seg->id = static_cast<uint32_t>(seg_by_id_.size());
    seg_by_id_.push_back(seg.get());
  }
  const size_t mask = slots_.size() - 1;
  for (const auto& seg : segments_) {
    for (size_t off = 0; off < seg->entries.size(); ++off) {
      size_t slot = seg->entries[off].tuple.Hash() & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = MakeHandle(seg->id, off);
    }
  }
  // Publishes the fully-built table to concurrent lazy readers (pairs
  // with the acquire load in EnsureSlots). Redundant but harmless on the
  // exclusive-access mutation paths.
  slots_ready_.store(true, std::memory_order_release);
}

void Relation::RebuildIndex() { Rehash(total_entries_); }

void Relation::EnsureSlotCapacity() {
  if (slots_.empty() ||
      (total_entries_ + tombstones_ + 1) * 10 >= slots_.size() * 7) {
    Rehash(total_entries_ + 1);
  }
}

Relation::InsertPos Relation::InsertEntry(Tuple tuple, Timestamp texp) {
  EnsureSlotCapacity();
  const size_t mask = slots_.size() - 1;
  size_t slot = tuple.Hash() & mask;
  size_t first_reusable = kNotFound;
  for (;;) {
    const int64_t s = slots_[slot];
    if (s == kEmpty) break;
    if (s == kTombstone) {
      if (first_reusable == kNotFound) first_reusable = slot;
    } else {
      Segment* seg = nullptr;
      size_t off = 0;
      Entry* e = ResolveHandle(s, &seg, &off);
      if (e == nullptr) {
        // Stale handle from a bulk-dropped segment: reusable like a
        // tombstone (it was added to tombstones_ at drop time).
        if (first_reusable == kNotFound) first_reusable = slot;
      } else if (e->tuple == tuple) {
        return InsertPos{seg, off, slot, false};
      }
    }
    slot = (slot + 1) & mask;
  }
  if (first_reusable != kNotFound) {
    slot = first_reusable;
    --tombstones_;
  }
  Segment* seg = TargetSegment(texp);
  const size_t off = AppendEntry(seg, std::move(tuple), texp);
  ++total_entries_;
  slots_[slot] = MakeHandle(seg->id, off);
  return InsertPos{seg, off, slot, true};
}

Relation::Entry* Relation::SetTexpAt(const InsertPos& pos, Timestamp texp) {
  Segment* seg = pos.seg;
  Entry* e = &seg->entries[pos.off];
  if (!segmented_ || BucketFor(texp) == seg->bucket) {
    // In place; widen the bounds (they may now overstate the range, which
    // is the conservative direction for both ends).
    e->texp = texp;
    seg->min_texp = Timestamp::Min(seg->min_texp, texp);
    seg->max_texp = Timestamp::Max(seg->max_texp, texp);
    return e;
  }
  // The new texp falls into a different bucket: relocate the entry,
  // reusing the tuple's existing index slot for the new handle.
  Tuple tuple = std::move(e->tuple);
  const size_t last = seg->entries.size() - 1;
  if (pos.off != last) {
    Entry& moved = seg->entries[last];
    const size_t moved_slot =
        FindSlotByHandle(moved.tuple, MakeHandle(seg->id, last));
    assert(moved_slot != kNotFound);
    slots_[moved_slot] = MakeHandle(seg->id, pos.off);
    seg->entries[pos.off] = std::move(moved);
  }
  seg->entries.pop_back();
  if (seg->entries.empty()) DropSegment(seg);  // invalidates seg
  Segment* target = FindOrCreateSegment(BucketFor(texp));
  const size_t off = AppendEntry(target, std::move(tuple), texp);
  slots_[pos.slot] = MakeHandle(target->id, off);
  return &target->entries[off];
}

void Relation::EraseWithinSegment(Segment* seg, size_t off, size_t slot) {
  slots_[slot] = kTombstone;
  ++tombstones_;
  const size_t last = seg->entries.size() - 1;
  if (off != last) {
    // Patch the index slot of the entry being moved into the hole.
    Entry& moved = seg->entries[last];
    const size_t moved_slot =
        FindSlotByHandle(moved.tuple, MakeHandle(seg->id, last));
    assert(moved_slot != kNotFound);
    slots_[moved_slot] = MakeHandle(seg->id, off);
    seg->entries[off] = std::move(moved);
  }
  seg->entries.pop_back();
  --total_entries_;
}

void Relation::ShrinkAfterErase(Segment* seg) {
  if (total_entries_ == 0) {
    ResetStorage();
  } else if (seg->entries.empty()) {
    DropSegment(seg);
  }
}

void Relation::DropSegmentAt(size_t i) {
  seg_by_id_[segments_[i]->id] = nullptr;
  segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(i));
}

void Relation::ResetStorage() {
  segments_.clear();
  seg_by_id_.clear();
  slots_.clear();
  tombstones_ = 0;
  slots_ready_.store(true, std::memory_order_relaxed);
}

void Relation::Reserve(size_t n) {
  if (!segmented_) FlatSegment()->entries.reserve(n);
  // max() so a small reservation against a deferred-index relation still
  // rehashes at a capacity that fits every stored entry.
  if (n * 10 / 7 + 1 > slots_.size()) Rehash(std::max(n, total_entries_));
}

Relation Relation::FromEntriesUnchecked(Schema schema,
                                        std::vector<Entry> entries) {
  Relation out(std::move(schema));
  if (entries.empty()) return out;
  // Flat, so the column bounds stay unknown (the Segment default):
  // operator results never pay for them.
  auto seg = std::make_unique<Relation::Segment>();
  seg->bucket = kFlatBucket;
  seg->id = 0;
  for (const Entry& e : entries) {
    seg->min_texp = Timestamp::Min(seg->min_texp, e.texp);
    seg->max_texp = Timestamp::Max(seg->max_texp, e.texp);
  }
  seg->entries = std::move(entries);
  out.total_entries_ = seg->entries.size();
  out.seg_by_id_.push_back(seg.get());
  out.segments_.push_back(std::move(seg));
  // Defer the index: operator results are usually scanned once and
  // discarded, so the build (a full rehash of every entry) would often
  // be pure overhead. The first point lookup or mutation triggers it
  // through EnsureSlots / EnsureSlotCapacity.
  out.slots_ready_.store(false, std::memory_order_relaxed);
  return out;
}

void Relation::SetSegmented(SegmentOptions options) {
  segmented_ = true;
  bucket_width_ = options.bucket_width > 0 ? options.bucket_width : 1;
  max_segments_ = options.max_segments > 0 ? options.max_segments : 1;
  if (total_entries_ == 0) {
    segments_.clear();
    seg_by_id_.clear();
    slots_.clear();
    tombstones_ = 0;
    slots_ready_.store(true, std::memory_order_relaxed);
    return;
  }
  // Redistribute existing entries into their buckets.
  std::vector<std::unique_ptr<Segment>> old = std::move(segments_);
  segments_.clear();
  seg_by_id_.clear();
  for (auto& oseg : old) {
    for (Entry& e : oseg->entries) {
      AppendEntry(FindOrCreateSegment(BucketFor(e.texp)), std::move(e.tuple),
                  e.texp);
    }
  }
  MaybeRebucket();  // also rebuilds the index when it merges
  RebuildIndex();
}

// --- schema checking ------------------------------------------------------

Status Relation::CheckAndCoerce(Tuple* tuple) const {
  if (tuple->arity() != schema_.arity()) {
    return Status::TypeError(
        "tuple " + tuple->ToString() + " has arity " +
        std::to_string(tuple->arity()) + ", schema " + schema_.ToString() +
        " requires " + std::to_string(schema_.arity()));
  }
  std::vector<Value> coerced;
  bool needs_rebuild = false;
  for (size_t i = 0; i < tuple->arity(); ++i) {
    const Value& v = tuple->at(i);
    const ValueType want = schema_.attribute(i).type;
    if (v.type() == want) continue;
    if (want == ValueType::kDouble && v.is_int64()) {
      if (!needs_rebuild) {
        coerced.assign(tuple->values().begin(), tuple->values().end());
        needs_rebuild = true;
      }
      coerced[i] = Value(static_cast<double>(v.AsInt64()));
      continue;
    }
    return Status::TypeError(
        "attribute " + std::to_string(i + 1) + " of " + tuple->ToString() +
        " has type " + std::string(ValueTypeToString(v.type())) +
        ", schema " + schema_.ToString() + " requires " +
        std::string(ValueTypeToString(want)));
  }
  if (needs_rebuild) *tuple = Tuple(std::move(coerced));
  return Status::OK();
}

// --- mutation -------------------------------------------------------------

Status Relation::Insert(Tuple tuple, Timestamp texp) {
  EXPDB_RETURN_NOT_OK(CheckAndCoerce(&tuple));
  MergeMaxUnchecked(std::move(tuple), texp);
  return Status::OK();
}

Status Relation::InsertWithTtl(Tuple tuple, Timestamp now, int64_t ttl) {
  if (ttl < 0) {
    return Status::InvalidArgument("ttl must be non-negative, got " +
                                   std::to_string(ttl));
  }
  return Insert(std::move(tuple), now + ttl);
}

void Relation::InsertUnchecked(Tuple tuple, Timestamp texp) {
  InsertPos pos = InsertEntry(std::move(tuple), texp);
  if (pos.inserted) {
    if (delta_tracking()) RecordDelta({}, One(pos.seg->entries[pos.off]));
  } else {
    const Timestamp old = pos.seg->entries[pos.off].texp;
    if (old != texp) {
      Entry* e = SetTexpAt(pos, texp);
      if (delta_tracking()) RecordDelta(One({e->tuple, old}), One(*e));
    }
  }
  MaybeRebucket();
}

Status Relation::InsertAll(std::vector<Tuple> tuples, Timestamp texp) {
  for (Tuple& tuple : tuples) EXPDB_RETURN_NOT_OK(CheckAndCoerce(&tuple));
  std::vector<Entry> deleted;
  std::vector<Entry> inserted;
  for (Tuple& tuple : tuples) {
    MergeMaxEntry(std::move(tuple), texp, &deleted, &inserted);
  }
  // One texp: every tuple lands in the same segment.
  MaybeRebucket();
  // A tuple repeated within `tuples` is a no-op after its first
  // occurrence, so each tuple shows at most once per side, and reading
  // the deletes before the inserts replays the batch exactly.
  if (!inserted.empty()) RecordDelta(std::move(deleted), std::move(inserted));
  return Status::OK();
}

void Relation::MergeMaxUnchecked(Tuple tuple, Timestamp texp) {
  std::vector<Entry> deleted;
  std::vector<Entry> inserted;
  MergeMaxEntry(std::move(tuple), texp, &deleted, &inserted);
  if (!inserted.empty()) RecordDelta(std::move(deleted), std::move(inserted));
  MaybeRebucket();
}

void Relation::MergeMaxEntry(Tuple tuple, Timestamp texp,
                             std::vector<Entry>* deleted,
                             std::vector<Entry>* inserted) {
  InsertPos pos = InsertEntry(std::move(tuple), texp);
  if (pos.inserted) {
    if (delta_tracking()) inserted->push_back(pos.seg->entries[pos.off]);
    return;
  }
  const Timestamp old = pos.seg->entries[pos.off].texp;
  const Timestamp merged = Timestamp::Max(old, texp);
  if (merged == old) return;
  Entry* e = SetTexpAt(pos, merged);
  if (delta_tracking()) {
    deleted->push_back({e->tuple, old});
    inserted->push_back(*e);
  }
}

bool Relation::EraseEntry(const Tuple& tuple, bool record) {
  const size_t slot = FindSlot(tuple);
  if (slot == kNotFound) return false;
  Segment* seg = nullptr;
  size_t off = 0;
  Entry* e = ResolveHandle(slots_[slot], &seg, &off);
  assert(e != nullptr);
  if (record && delta_tracking()) RecordDelta(One(*e), {});
  EraseWithinSegment(seg, off, slot);
  ShrinkAfterErase(seg);
  return true;
}

void Relation::ApplyChange(std::vector<Entry> deleted,
                           std::vector<Entry> inserted) {
  if (deleted.empty() && inserted.empty()) return;
  for (const Entry& e : deleted) EraseEntry(e.tuple, false);
  for (const Entry& e : inserted) InsertEntry(e.tuple, e.texp);
  MaybeRebucket();
  RecordDelta(std::move(deleted), std::move(inserted));
}

// --- removal by rule ------------------------------------------------------

void Relation::FinishRemoval(std::vector<Entry> removed, bool record_delta,
                             std::vector<Entry>* out) {
  if (total_entries_ == 0) ResetStorage();
  if (removed.empty()) return;
  std::sort(removed.begin(), removed.end(),
            [](const Entry& a, const Entry& b) {
              if (a.texp != b.texp) return a.texp < b.texp;
              return a.tuple < b.tuple;
            });
  if (!record_delta) {
    *out = std::move(removed);
    return;
  }
  if (out != nullptr) *out = removed;  // the caller and the ring keep them
  RecordDelta(std::move(removed), {});
}

Relation::DropResult Relation::RemoveExpiredEntries(Timestamp tau,
                                                    bool record_delta,
                                                    std::vector<Entry>* out) {
  return RemoveMatching(
      [tau](const SegmentView& s) {
        if (s.max_texp <= tau) return SegmentAction::kDropWhole;
        return s.min_texp > tau ? SegmentAction::kSkip : SegmentAction::kTest;
      },
      [tau](const Entry& e) { return e.texp <= tau; }, record_delta, out);
}

Relation::DropResult Relation::DropExpired(Timestamp tau, bool record_delta) {
  return RemoveExpiredEntries(tau, record_delta, nullptr);
}

std::vector<std::pair<Tuple, Timestamp>> Relation::RemoveExpired(
    Timestamp tau, bool record_delta) {
  std::vector<Entry> removed;
  RemoveExpiredEntries(tau, record_delta, &removed);
  std::vector<std::pair<Tuple, Timestamp>> out;
  out.reserve(removed.size());
  for (Entry& e : removed) out.emplace_back(std::move(e.tuple), e.texp);
  return out;
}

// --- lookups and scans ----------------------------------------------------

std::optional<Timestamp> Relation::GetTexp(const Tuple& tuple) const {
  const size_t slot = FindSlot(tuple);
  if (slot == kNotFound) return std::nullopt;
  return ResolveHandle(slots_[slot])->texp;
}

bool Relation::ContainsUnexpired(const Tuple& tuple, Timestamp tau) const {
  const size_t slot = FindSlot(tuple);
  return slot != kNotFound && ResolveHandle(slots_[slot])->texp > tau;
}

Relation Relation::UnexpiredAt(Timestamp tau) const {
  std::vector<Entry> kept;
  kept.reserve(total_entries_);
  for (const auto& seg : segments_) {
    if (seg->entries.empty() || seg->max_texp <= tau) continue;  // pruned
    if (seg->min_texp > tau) {
      // Fully live: bulk copy, no per-tuple texp checks.
      kept.insert(kept.end(), seg->entries.begin(), seg->entries.end());
      continue;
    }
    for (const Entry& e : seg->entries) {
      if (e.texp > tau) kept.push_back(e);
    }
  }
  return FromEntriesUnchecked(schema_, std::move(kept));
}

void Relation::ForEachUnexpired(
    Timestamp tau,
    const std::function<void(const Tuple&, Timestamp)>& fn) const {
  for (const auto& seg : segments_) {
    if (seg->entries.empty() || seg->max_texp <= tau) continue;
    if (seg->min_texp > tau) {
      for (const Entry& e : seg->entries) fn(e.tuple, e.texp);
      continue;
    }
    for (const Entry& e : seg->entries) {
      if (e.texp > tau) fn(e.tuple, e.texp);
    }
  }
}

void Relation::ForEach(
    const std::function<void(const Tuple&, Timestamp)>& fn) const {
  for (const auto& seg : segments_) {
    for (const Entry& e : seg->entries) fn(e.tuple, e.texp);
  }
}

size_t Relation::CountUnexpiredAt(Timestamp tau) const {
  size_t n = 0;
  for (const auto& seg : segments_) {
    if (seg->entries.empty() || seg->max_texp <= tau) continue;
    if (seg->min_texp > tau) {
      n += seg->entries.size();
      continue;
    }
    for (const Entry& e : seg->entries) {
      if (e.texp > tau) ++n;
    }
  }
  return n;
}

Relation::SegmentOccupancy Relation::OccupancyAt(Timestamp tau) const {
  SegmentOccupancy occ;
  for (const auto& seg : segments_) {
    if (seg->entries.empty()) continue;
    if (seg->max_texp <= tau) {
      ++occ.expired_segments;
      occ.expired_tuples += seg->entries.size();
    } else if (seg->min_texp > tau) {
      ++occ.live_segments;
      occ.live_tuples += seg->entries.size();
    } else {
      ++occ.straddling_segments;
      for (const Entry& e : seg->entries) {
        if (e.texp > tau) {
          ++occ.live_tuples;
        } else {
          ++occ.expired_tuples;
        }
      }
    }
  }
  return occ;
}

std::optional<Timestamp> Relation::NextExpirationAfter(Timestamp tau) const {
  std::optional<Timestamp> best;
  for (const auto& seg : segments_) {
    if (seg->entries.empty()) continue;
    // A segment whose entire range is at or below tau has no candidate;
    // one whose min already beats the current best cannot improve it.
    if (seg->max_texp <= tau) continue;
    if (best && seg->min_texp >= *best) continue;
    for (const Entry& e : seg->entries) {
      if (e.texp > tau && e.texp.IsFinite()) {
        if (!best || e.texp < *best) best = e.texp;
      }
    }
  }
  return best;
}

std::vector<std::pair<Tuple, Timestamp>> Relation::SortedEntries() const {
  std::vector<std::pair<Tuple, Timestamp>> out;
  out.reserve(total_entries_);
  for (const auto& seg : segments_) {
    for (const Entry& e : seg->entries) out.emplace_back(e.tuple, e.texp);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

bool Relation::ContentsEqualAt(const Relation& a, const Relation& b,
                               Timestamp tau) {
  if (a.CountUnexpiredAt(tau) != b.CountUnexpiredAt(tau)) return false;
  bool equal = true;
  a.ForEachUnexpired(tau, [&](const Tuple& t, Timestamp) {
    if (equal && !b.ContainsUnexpired(t, tau)) equal = false;
  });
  return equal;
}

bool Relation::EqualAt(const Relation& a, const Relation& b, Timestamp tau) {
  if (a.CountUnexpiredAt(tau) != b.CountUnexpiredAt(tau)) return false;
  bool equal = true;
  a.ForEachUnexpired(tau, [&](const Tuple& t, Timestamp texp) {
    if (!equal) return;
    auto other = b.GetTexp(t);
    if (!other || *other <= tau || *other != texp) equal = false;
  });
  return equal;
}

void Relation::Clear() {
  ResetStorage();
  total_entries_ = 0;
  // A wholesale wipe cannot be represented as a bounded delta stream.
  BreakDeltaHistory();
}

Status Relation::RenameAttributes(const std::vector<std::string>& names) {
  if (names.size() != schema_.arity()) {
    return Status::InvalidArgument(
        "rename needs " + std::to_string(schema_.arity()) + " names, got " +
        std::to_string(names.size()));
  }
  std::vector<Attribute> attrs = schema_.attributes();
  for (size_t i = 0; i < names.size(); ++i) attrs[i].name = names[i];
  EXPDB_ASSIGN_OR_RETURN(Schema renamed, Schema::Make(std::move(attrs)));
  schema_ = std::move(renamed);
  // A schema change invalidates any consumer interpreting recorded deltas
  // against the old attribute names; force them back onto the full path.
  BreakDeltaHistory();
  return Status::OK();
}

std::string Relation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [tuple, texp] : SortedEntries()) {
    if (!first) out += ", ";
    first = false;
    out += tuple.ToString() + "@" + texp.ToString();
  }
  out += "}";
  return out;
}

}  // namespace expdb
