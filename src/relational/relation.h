// Relation: a set of tuples, each carrying an expiration time texp.
//
// This is the paper's data model (Sec. 2.2): the classical relational model
// is left unaltered except that every relation R comes with a function
// texp_R(·) from tuples to expiration times, and a function expτ that
// restricts R to the tuples unexpired at time τ:
//
//     expτ(R) = { r | r ∈ R ∧ texp_R(r) > τ }
//
// A tuple with no expiration has texp = ∞, in which case every operator in
// the algebra behaves exactly like its textbook equivalent.
//
// Storage layout (docs/PERFORMANCE.md §8): tuples live in dense entry
// segments. A relation is either
//
//  * flat — one unbucketed segment, the classic contiguous array. This is
//    the default, and what the operators' materialized results use: scans
//    are a single contiguous sweep and `entries()` exposes the array
//    directly for morsel chunking.
//  * segmented — entries are physically partitioned by expiration-time
//    bucket (floor(texp / bucket_width)), with a dedicated segment for
//    never-expiring (texp = ∞) tuples. Each segment carries conservative
//    [min_texp, max_texp] bounds, so a scan can decide once per segment
//    whether the segment is fully expired (skip it), fully live (copy it
//    without per-tuple texp checks), or straddling τ (filter). Physical
//    expiration drops whole expired segments in O(1) each — no per-tuple
//    swap, no survivor movement, no index rebuild (the companion TR's
//    "organize storage by expiration time" principle). Base relations in
//    a Database use this mode.
//
//    Every physical removal by rule — DropExpired, RemoveExpired and
//    EraseWhere — is one segment walk (RemoveMatching): per segment it
//    skips, drops whole, or swap-erases the matching entries, then
//    re-derives the texp bounds from the survivors, unlinks emptied
//    segments, and sorts and records the removed entries once.
//
//    Each segment also carries conservative per-column [lo, hi] value
//    bounds. Under a TTL stream texp ≈ arrival + ttl, so a texp segment
//    is an arrival-time cluster too, and a filtered scan skips every
//    segment whose bounds its predicate cannot match
//    (Predicate::MayMatchWithin). Flat storage does not track them:
//    operator results never pay for bounds nobody scans with a filter.
//
// A single open-addressing hash index (linear probing over the hash cached
// on each Tuple) spans all segments for point lookups; slots hold packed
// (segment id, offset) handles. Erase is swap-with-last within the owning
// segment, so segments never have holes; the slot of the moved entry is
// patched in O(1) expected time. Dropping a whole segment merely retires
// its id: slots still pointing at it are recognized as stale on probe and
// recycled like tombstones (the next rehash purges them in bulk).

#ifndef EXPDB_RELATIONAL_RELATION_H_
#define EXPDB_RELATIONAL_RELATION_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/timestamp.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace expdb {

class Predicate;

/// \brief A relation with per-tuple expiration times (set semantics).
///
/// Re-inserting a tuple that is already present keeps the later of the two
/// expiration times — the same max rule the algebra uses for duplicate
/// elimination in πexp and for ∪exp — so insertion is idempotent and
/// monotone in lifetime.
///
/// Thread-safety: const methods (lookups, scans, `entries()`, segment
/// views) are safe to call concurrently from any number of threads as long
/// as no thread mutates the relation — the parallel evaluator relies on
/// this.
class Relation {
 public:
  /// One stored tuple with its expiration time. Entries are densely packed
  /// per segment in insertion order (perturbed by swap-with-last erases).
  struct Entry {
    Tuple tuple;
    Timestamp texp;
  };

  /// Tuning for segmented (expiration-partitioned) storage.
  struct SegmentOptions {
    /// Ticks per finite expiration bucket. Small initial widths give fine
    /// pruning granularity on short-lived data; the width doubles
    /// automatically whenever the finite-segment count would exceed
    /// `max_segments`, so wide-spread workloads converge to
    /// ~range/max_segments ticks per bucket.
    int64_t bucket_width = 8;
    /// Soft cap on simultaneously live finite segments.
    size_t max_segments = 64;
  };

  /// \brief Scan-facing view of one storage segment: a contiguous entry
  /// range plus conservative expiration bounds. For every stored entry e
  /// of the segment, min_texp <= texp(e) <= max_texp; the bounds may be
  /// loose after erases (min may understate, max may overstate — both are
  /// the safe directions). Classification against a scan's τ:
  ///
  ///   max_texp <= τ  → every entry expired: skip the segment entirely;
  ///   min_texp  > τ  → every entry live: copy without per-tuple checks;
  ///   otherwise      → straddling: per-tuple texp > τ filter.
  ///
  /// `col_lo` / `col_hi` hold arity() values each: for every stored entry
  /// e and column i, col_lo[i] <= e.tuple[i] <= col_hi[i] under
  /// Value::Compare, and no column mixes Int64 with Double values. Like
  /// the texp bounds they stay loose after erases. Both are null when the
  /// bounds are unknown: flat storage, or a column that would mix Int64
  /// and Double (Compare is not transitive across the two beyond 2^53).
  struct SegmentView {
    const Entry* data = nullptr;
    size_t size = 0;
    Timestamp min_texp = Timestamp::Infinity();
    Timestamp max_texp = Timestamp::Zero();
    const Value* col_lo = nullptr;
    const Value* col_hi = nullptr;
  };

  /// What a bulk expiration pass removed (see DropExpired).
  struct DropResult {
    size_t tuples = 0;  ///< entries physically removed
    /// Segments the pass unlinked from the directory: those dropped whole
    /// in O(1) plus straddling ones whose every entry it erased — exactly
    /// the drop in SegmentCount().
    size_t segments = 0;
  };

  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  // Delta history is bound to the identity of one Relation object (see
  // EnableDeltaTracking): moves preserve it, copies start untracked — a
  // copy is a new body of data whose future mutations the original's
  // subscribers never see.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  ~Relation();

  const Schema& schema() const { return schema_; }
  size_t arity() const { return schema_.arity(); }

  /// Number of stored tuples, including physically present expired ones.
  size_t size() const { return total_entries_; }
  bool empty() const { return total_entries_ == 0; }

  /// \brief The dense entry array of a *flat* relation. Stable while the
  /// relation is not mutated; the parallel evaluator chunks this directly
  /// into morsels. Calling it on a segmented relation is a contract
  /// violation (entries live in multiple arrays) — scan segmented storage
  /// through SegmentCount()/GetSegment() instead.
  const std::vector<Entry>& entries() const {
    assert(!segmented_ && "entries() is flat-storage only; use GetSegment");
    return segments_.empty() ? EmptyEntries() : segments_[0]->entries;
  }

  // --- expiration-partitioned storage (docs/PERFORMANCE.md §8) ------------

  /// True when this relation stores entries partitioned by texp bucket.
  bool segmented() const { return segmented_; }

  /// \brief Switches to segmented storage (idempotent on an already
  /// segmented relation except that new options take effect). Existing
  /// entries are redistributed into their buckets and the hash index is
  /// rebuilt; O(n). Database::CreateRelation applies this to base tables.
  void SetSegmented(SegmentOptions options);
  void SetSegmented() { SetSegmented(SegmentOptions()); }

  /// Number of storage segments (flat relations have 0 or 1). Segments
  /// are ordered by ascending bucket; the ∞ segment, if any, comes last.
  size_t SegmentCount() const { return segments_.size(); }

  /// The i-th segment as a scan view. i < SegmentCount().
  SegmentView GetSegment(size_t i) const {
    const Segment& s = *segments_[i];
    const bool cols = s.cols_known && !s.col_lo.empty();
    return SegmentView{s.entries.data(), s.entries.size(), s.min_texp,
                       s.max_texp, cols ? s.col_lo.data() : nullptr,
                       cols ? s.col_hi.data() : nullptr};
  }

  /// \brief Physically removes every tuple with texp <= tau — the fast
  /// bulk path: fully-expired segments are dropped whole in O(1) each (no
  /// per-tuple swap, no survivor movement, no index rebuild; their index
  /// slots are lazily recycled), fully-live segments are skipped without
  /// being scanned, and only segments straddling tau pay a per-tuple
  /// swap-erase. Does not return the removed tuples — callers that must
  /// fire per-tuple expiration triggers use RemoveExpired instead. With
  /// `record_delta`, a tracked relation records them as one delete batch
  /// (one epoch), moved into the ring rather than copied; without it
  /// nothing is recorded (removing tuples with texp <= τ never changes
  /// expτ' for any τ' >= τ).
  DropResult DropExpired(Timestamp tau, bool record_delta = false);

  /// \brief Pre-sizes the dense array and the hash index for `n` tuples.
  void Reserve(size_t n);

  /// \brief Builds a flat relation directly from a dense entry vector
  /// whose tuples are known to be pairwise distinct (the parallel
  /// operators guarantee this structurally). No schema checks, no
  /// duplicate merging, no column bounds — and no hash index: the build is
  /// deferred until the first point lookup or mutation, since operator
  /// results are mostly scanned forward and discarded.
  static Relation FromEntriesUnchecked(Schema schema,
                                       std::vector<Entry> entries);

  /// \brief Inserts `tuple` expiring at `texp` (∞ = never).
  ///
  /// Checks arity and types against the schema; Int64 values are coerced
  /// into Double attributes. On duplicate, keeps max(old texp, new texp).
  Status Insert(Tuple tuple, Timestamp texp = Timestamp::Infinity());

  /// \brief Inserts every tuple of `tuples` expiring at `texp`, with
  /// Insert's checks and duplicate rule, as one change: every tuple is
  /// checked before any is inserted, and a tracked relation records one
  /// delta batch (one epoch) for all of them, the prior versions of the
  /// tuples whose texp rose as its deletes and the new and raised
  /// entries as its inserts; nothing when nothing changed.
  Status InsertAll(std::vector<Tuple> tuples, Timestamp texp);

  /// \brief Inserts with a time-to-live relative to `now`.
  Status InsertWithTtl(Tuple tuple, Timestamp now, int64_t ttl);

  /// \brief Inserts without schema checks and overwriting any existing
  /// expiration time. For engine-internal use (operators produce already
  /// type-checked tuples and must control texp exactly).
  void InsertUnchecked(Tuple tuple, Timestamp texp);

  /// \brief Inserts without schema checks, keeping max(old, new) texp on
  /// duplicates — the duplicate-elimination rule of πexp and ∪exp.
  void MergeMaxUnchecked(Tuple tuple, Timestamp texp);

  /// \brief Removes `tuple` regardless of its expiration state.
  /// \return true iff the tuple was present.
  bool Erase(const Tuple& tuple) { return EraseEntry(tuple, true); }

  /// \brief Erases `deleted` (each stored as given), then inserts
  /// `inserted` (each absent by then) unchecked, as one change: a tracked
  /// relation records them as one delta batch.
  void ApplyChange(std::vector<Entry> deleted, std::vector<Entry> inserted);

  /// \brief Removes every tuple of expτ(R) that satisfies `pred` (every
  /// unexpired tuple when null) — the SQL DELETE. One walk over the
  /// segments with the scan's classification: segments with
  /// max_texp <= τ and segments whose column bounds `pred` cannot match
  /// (Predicate::MayMatchWithin) are skipped unread; the rest evaluate
  /// `pred` on their entries in place, and their texp bounds are
  /// re-derived from the survivors (expired ones included). A tracked
  /// relation records the removed tuples as one delete batch (one epoch),
  /// ordered by (texp, tuple) like an eager drain; nothing when nothing
  /// matched.
  /// Defined in core/erase_where.cc, next to Predicate.
  /// \return the number of tuples removed.
  size_t EraseWhere(const Predicate* pred, Timestamp tau);

  /// \brief texp_R(r). nullopt if r ∉ R.
  std::optional<Timestamp> GetTexp(const Tuple& tuple) const;

  /// \brief True iff the tuple is stored (expired or not).
  bool Contains(const Tuple& tuple) const {
    return FindSlot(tuple) != kNotFound;
  }

  /// \brief True iff tuple ∈ expτ(R).
  bool ContainsUnexpired(const Tuple& tuple, Timestamp tau) const;

  /// \brief expτ(R) as a new (flat) relation (texps preserved). Segment
  /// bounds prune the sweep: fully-expired segments are skipped,
  /// fully-live segments are copied without per-tuple checks.
  Relation UnexpiredAt(Timestamp tau) const;

  /// \brief Visits every tuple of expτ(R) with its texp.
  void ForEachUnexpired(
      Timestamp tau,
      const std::function<void(const Tuple&, Timestamp)>& fn) const;

  /// \brief Visits every stored tuple (including expired) with its texp.
  void ForEach(
      const std::function<void(const Tuple&, Timestamp)>& fn) const;

  /// \brief |expτ(R)|. Fully-live / fully-expired segments contribute
  /// their size / zero without being scanned.
  size_t CountUnexpiredAt(Timestamp tau) const;

  /// \brief Occupancy of the storage at time τ, per segment class —
  /// the telemetry layer's expiration-pressure source and lazy removal's
  /// compaction trigger. `expired_tuples`
  /// is the backlog awaiting physical drain (lazy removal keeps them
  /// stored; queries never see them). One sweep: fully-live and
  /// fully-expired segments are classified from their bounds without a
  /// per-tuple check; only straddling segments pay one.
  struct SegmentOccupancy {
    size_t live_segments = 0;        ///< min_texp > τ: every entry live
    size_t expired_segments = 0;     ///< max_texp <= τ: every entry expired
    size_t straddling_segments = 0;  ///< bounds bracket τ: mixed
    size_t live_tuples = 0;          ///< |expτ(R)|
    size_t expired_tuples = 0;       ///< stored − live: the drain backlog
  };
  SegmentOccupancy OccupancyAt(Timestamp tau) const;

  /// \brief Physically removes every tuple with texp <= tau.
  /// \return the removed tuples with their expiration times, sorted by
  /// (texp, tuple) — the order in which they expired. This is the
  /// trigger-feeding slow path; use DropExpired when the removed tuples
  /// are not needed. The same walk as DropExpired, so it leaves the same
  /// entries, segments and bounds. With `record_delta`, a tracked
  /// relation records the removed tuples as one delete batch (one epoch),
  /// so delta consumers can shed them too. The batch is then a copy of
  /// the returned tuples, since both the caller and the ring keep them.
  std::vector<std::pair<Tuple, Timestamp>> RemoveExpired(
      Timestamp tau, bool record_delta = false);

  /// \brief Smallest finite texp strictly greater than `tau`; nullopt when
  /// no unexpired tuple has a finite expiration. This is the next instant
  /// at which expτ(R) changes.
  std::optional<Timestamp> NextExpirationAfter(Timestamp tau) const;

  /// \brief Deterministic snapshot sorted by (tuple); used by printers and
  /// tests.
  std::vector<std::pair<Tuple, Timestamp>> SortedEntries() const;

  /// \brief An upper bound on the expiration time of every stored tuple:
  /// texp_R(r) <= texp_upper_bound() for all r ∈ R. Derived from the live
  /// segments' max_texp bounds, so it *tightens* when a removal walk
  /// drops expired segments or re-derives the bounds of the segments it
  /// tested from their survivors — point erases may still leave it an
  /// overestimate, which is the safe direction.
  /// The planner uses it to prune whole subtrees whose every input is
  /// already expired at τ: if texp_upper_bound() <= τ then expτ(R) = ∅.
  Timestamp texp_upper_bound() const {
    Timestamp bound = Timestamp::Zero();
    for (const auto& seg : segments_) {
      if (!seg->entries.empty()) {
        bound = Timestamp::Max(bound, seg->max_texp);
      }
    }
    return bound;
  }

  // --- per-epoch delta capture (docs/PERFORMANCE.md §6) -------------------
  //
  // Incremental view maintenance needs the *stream* of explicit mutations
  // (the predecessor TR frames expiration itself as a stream of deletions;
  // here the stream is the explicit inserts/deletes the paper's no-update
  // assumption excludes). When tracking is enabled, every mutation is
  // recorded as one epoch in a bounded ring of DeltaBatches:
  //
  //  * a fresh insert       -> {epoch, inserted=[t@texp],  deleted=[]}
  //  * an effective texp
  //    change on duplicate  -> {epoch, inserted=[t@new],   deleted=[t@old]}
  //  * an erase             -> {epoch, inserted=[],        deleted=[t@old]}
  //
  // Physical expiration (RemoveExpired and DropExpired) is not recorded
  // by default: removing tuples with texp <= τ never changes expτ' for
  // any τ' >= τ, so consumers that always read through expτ see no
  // difference. Eager removal opts in (`record_delta`) so consumers also
  // free the memory:
  //
  //  * an eager expiry drain -> {epoch, inserted=[], deleted=[t1@e1, ...]}
  //
  // EraseWhere (a SQL DELETE) records its removed tuples the same way: one
  // batch per statement, however many rows it removes.
  //
  // Clear() and attribute renames break the history (consumers must fall
  // back to recomputation). The ring's capacity counts entries (deleted
  // plus inserted tuples), not batches, so its memory does not depend on
  // how many rows a statement touches. Overflow trims the oldest epochs,
  // but never the newest batch; DeltasSince reports the loss instead of
  // returning a partial stream.
  //
  // The ring holds epochs floor+1 .. epoch without gaps (every record
  // takes the next epoch; trims and breaks only move floor), so the
  // batches after any cursor are found by arithmetic, not by a walk.

  /// One recorded mutation epoch. `deleted` precedes `inserted` when both
  /// are non-empty (a texp change is delete-old-then-insert-new).
  struct DeltaBatch {
    uint64_t epoch = 0;
    std::vector<Entry> inserted;
    std::vector<Entry> deleted;
  };

  /// A borrowed, epoch-ordered run of batches inside the delta ring.
  /// Copying it copies two iterators, not the batches.
  class DeltaRange {
   public:
    using const_iterator = std::deque<DeltaBatch>::const_iterator;

    DeltaRange() = default;
    DeltaRange(const_iterator first, const_iterator last)
        : first_(first), last_(last) {}

    const_iterator begin() const { return first_; }
    const_iterator end() const { return last_; }
    size_t size() const { return static_cast<size_t>(last_ - first_); }
    bool empty() const { return first_ == last_; }
    const DeltaBatch& front() const { return *first_; }
    const DeltaBatch& operator[](size_t i) const { return first_[i]; }

   private:
    const_iterator first_{};
    const_iterator last_{};
  };

  /// Entries the delta ring keeps across its batches (its newest batch is
  /// kept whatever its size).
  static constexpr size_t kDefaultDeltaRingCapacity = 4096;

  /// \brief Starts recording per-epoch deltas (idempotent; an existing log
  /// is kept). Assigns a process-unique instance id on first enable.
  ///
  /// `const` because the log is bookkeeping *about* mutations, not data:
  /// read paths never consult it, and consumers (materialized views) only
  /// hold const access to base relations. Safe against concurrent enables
  /// (first enable wins; the log pointer is published with an atomic
  /// release store) — concurrent readers holding only a shared lock may
  /// race through here via the result cache. Recording and DeltasSince
  /// still require the caller's usual reader/writer exclusion.
  void EnableDeltaTracking(
      size_t ring_capacity = kDefaultDeltaRingCapacity) const;

  bool delta_tracking() const { return delta_log() != nullptr; }

  /// \brief Process-unique identity of this tracked relation; 0 when
  /// tracking is disabled. Consumers pair it with delta_epoch() as a
  /// cursor — an id mismatch means "different body of data, recompute".
  uint64_t delta_instance_id() const;

  /// \brief Epoch of the most recent recorded mutation (0 = none yet).
  uint64_t delta_epoch() const;

  /// \brief The ordered mutation batches recorded in epochs
  /// (`since`, delta_epoch()], found in O(1). nullopt when the history is
  /// unavailable: tracking disabled, the ring trimmed past `since`, the
  /// history was broken (Clear/rename), or `since` is from another
  /// relation's clock.
  ///
  /// The range borrows the ring: it stays valid only while the caller
  /// holds the relation's reader or writer lock (a Snapshot, a WriteGuard
  /// or the exclusive lock), because the next recorded mutation may trim
  /// or clear the batches it points into.
  std::optional<DeltaRange> DeltasSince(uint64_t since) const;

  /// \brief Snapshot of the delta clock: the pair a consumer stores when
  /// it materializes a derived result over this base. The base is
  /// unchanged since the snapshot iff a later cursor compares equal —
  /// Clear()/rename bump the epoch when breaking history, and copies get
  /// a fresh instance id, so every stale-data hazard shows up as a
  /// cursor mismatch.
  struct DeltaCursor {
    uint64_t instance_id = 0;  ///< 0 = tracking disabled at snapshot time
    uint64_t epoch = 0;

    friend bool operator==(const DeltaCursor& a, const DeltaCursor& b) {
      return a.instance_id == b.instance_id && a.epoch == b.epoch;
    }
    friend bool operator!=(const DeltaCursor& a, const DeltaCursor& b) {
      return !(a == b);
    }
  };

  DeltaCursor delta_cursor() const {
    return DeltaCursor{delta_instance_id(), delta_epoch()};
  }

  /// \brief Set equality of expτ(·) of both relations, ignoring texp.
  static bool ContentsEqualAt(const Relation& a, const Relation& b,
                              Timestamp tau);

  /// \brief Equality of expτ(·) of both relations including texp values.
  static bool EqualAt(const Relation& a, const Relation& b, Timestamp tau);

  /// \brief Removes all tuples. Breaks any recorded delta history (a
  /// wholesale wipe cannot be represented as a bounded delta stream).
  /// Keeps the storage mode and segment options.
  void Clear();

  /// \brief Renames the schema's attributes (arity must match); types and
  /// tuples are unchanged. Used by the SQL layer for AS aliases.
  Status RenameAttributes(const std::vector<std::string>& names);

  std::string ToString() const;

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  // Index slot states; non-negative values are packed (segment id << 32 |
  // offset) handles.
  static constexpr int64_t kEmpty = -1;
  static constexpr int64_t kTombstone = -2;
  /// Bucket of the single segment of a flat relation.
  static constexpr int64_t kFlatBucket =
      std::numeric_limits<int64_t>::min();
  /// Bucket of the dedicated never-expiring segment; largest, so the ∞
  /// segment sorts last in the directory.
  static constexpr int64_t kInfBucket = std::numeric_limits<int64_t>::max();

  /// One storage segment: a dense entry array plus its bucket key and
  /// conservative expiration and column bounds (see SegmentView). `id` is
  /// this relation's stable handle namespace entry — retired when the
  /// segment is dropped, and renumbered compactly on every rehash.
  struct Segment {
    int64_t bucket = kFlatBucket;
    uint32_t id = 0;
    Timestamp min_texp = Timestamp::Infinity();
    Timestamp max_texp = Timestamp::Zero();
    /// False once the column bounds are unknown; sticky until the segment
    /// is dropped. Only segmented storage starts out tracking them.
    bool cols_known = false;
    std::vector<Value> col_lo;  ///< empty until the first entry arrives
    std::vector<Value> col_hi;
    std::vector<Entry> entries;
  };

  /// Where InsertEntry put (or found) a tuple.
  struct InsertPos {
    Segment* seg = nullptr;
    size_t off = 0;
    size_t slot = 0;
    bool inserted = false;
  };

  static const std::vector<Entry>& EmptyEntries();

  /// Deep-copies `other`'s segment directory, preserving ids (holes
  /// included, so copied stale slot handles stay unambiguous).
  void CopySegmentsFrom(const Relation& other);

  static int64_t MakeHandle(uint32_t id, size_t off) {
    return static_cast<int64_t>((static_cast<uint64_t>(id) << 32) |
                                static_cast<uint32_t>(off));
  }

  /// Resolves a packed slot handle to its entry; nullptr when the handle
  /// is stale (its segment was bulk-dropped). Out-params receive the
  /// owning segment and offset for live handles.
  Entry* ResolveHandle(int64_t handle, Segment** seg_out = nullptr,
                       size_t* off_out = nullptr) const;

  Status CheckAndCoerce(Tuple* tuple) const;

  /// texp bucket under the current width (segmented mode only).
  int64_t BucketFor(Timestamp texp) const {
    if (texp.IsInfinite()) return kInfBucket;
    return texp.ticks() / bucket_width_;
  }

  /// The bucket's segment, created (sorted into the directory) on demand.
  Segment* FindOrCreateSegment(int64_t bucket);
  /// Flat mode: the single segment, created on demand.
  Segment* FlatSegment();
  /// The segment a fresh entry expiring at `texp` belongs in.
  Segment* TargetSegment(Timestamp texp) {
    return segmented_ ? FindOrCreateSegment(BucketFor(texp))
                      : FlatSegment();
  }
  /// Removes `seg` (must be empty or being bulk-dropped) from the
  /// directory and retires its id.
  void DropSegment(Segment* seg);
  /// Widens `seg`'s column bounds to cover [lo, hi] column-wise (a tuple's
  /// values for both when one entry arrives); makes them unknown when a
  /// column would mix Int64 and Double values.
  static void WidenColumnBounds(Segment* seg, std::span<const Value> lo,
                                std::span<const Value> hi);
  /// Marks `seg`'s column bounds unknown for the rest of its life.
  static void ForgetColumnBounds(Segment* seg);
  /// Adds (tuple, texp) at the end of `seg`, widening both its bounds;
  /// returns the new entry's offset.
  static size_t AppendEntry(Segment* seg, Tuple tuple, Timestamp texp);
  /// Doubles the bucket width (merging segments) while the finite
  /// segment count exceeds the cap; rebuilds the index. Must only be
  /// called between complete mutations (it invalidates slots/handles).
  void MaybeRebucket();

  /// Builds the deferred index if construction skipped it (see
  /// FromEntriesUnchecked). No-op once built; safe to call from
  /// concurrent const readers.
  void EnsureSlots() const;
  /// Index slot holding `tuple`'s entry, or kNotFound. Builds the
  /// deferred index on first use.
  size_t FindSlot(const Tuple& tuple) const;
  /// Index slot currently storing exactly `handle` (probed via the
  /// tuple's hash), or kNotFound.
  size_t FindSlotByHandle(const Tuple& tuple, int64_t handle) const;
  /// Finds `tuple` or appends (tuple, texp) to its target segment and
  /// indexes it. On duplicate nothing is appended.
  InsertPos InsertEntry(Tuple tuple, Timestamp texp);
  /// Updates the texp of the entry at `pos`, relocating it to the right
  /// bucket segment when the new texp moves it; returns the entry at its
  /// final location.
  Entry* SetTexpAt(const InsertPos& pos, Timestamp texp);
  /// Erase, recording the removed entry only when `record` is set.
  bool EraseEntry(const Tuple& tuple, bool record);
  /// Inserts under the max-texp duplicate rule, without rebucketing. On
  /// a tracked relation, appends the prior version of a raised entry to
  /// `deleted` and the new or raised entry to `inserted`.
  void MergeMaxEntry(Tuple tuple, Timestamp texp, std::vector<Entry>* deleted,
                     std::vector<Entry>* inserted);
  /// Removes the entry at (seg, off) by swap-with-last within its
  /// segment, patching the moved entry's slot. `slot` is the erased
  /// entry's slot (tombstoned). Does not drop an emptied segment.
  void EraseWithinSegment(Segment* seg, size_t off, size_t slot);
  /// Drops `seg` if it just became empty; resets all storage when the
  /// relation as a whole became empty.
  void ShrinkAfterErase(Segment* seg);
  /// Retires the id of segments_[i] and unlinks it; its remaining index
  /// slots (if any) turn stale.
  void DropSegmentAt(size_t i);

  /// What the removal walk does with one non-empty segment.
  enum class SegmentAction {
    kSkip,       ///< no entry matches: leave it unread
    kDropWhole,  ///< every entry matches: unlink it in O(1)
    kTest,       ///< test each entry, swap-erasing the matches
  };
  /// \brief The one physical-removal walk behind DropExpired,
  /// RemoveExpired and EraseWhere. `classify(const SegmentView&)` picks a
  /// SegmentAction per non-empty segment; `match(const Entry&)` tests the
  /// entries of kTest segments. Both are inlined: no indirect call per
  /// entry. A tested segment's texp bounds are re-derived from its
  /// survivors; emptied segments are unlinked. The removed entries,
  /// sorted by (texp, tuple), go to `*out` (when non-null) and, with
  /// `record_delta` on a tracked relation, into the ring as one delete
  /// batch; when neither wants them they are never collected.
  template <typename Classify, typename Match>
  DropResult RemoveMatching(const Classify& classify, const Match& match,
                            bool record_delta, std::vector<Entry>* out);
  /// The walk's tail after it removed `removed` (empty unless collected):
  /// resets an emptied relation, sorts, and hands the entries to `*out`
  /// and/or the ring — moved when only one of them takes them.
  void FinishRemoval(std::vector<Entry> removed, bool record_delta,
                     std::vector<Entry>* out);
  /// RemoveMatching with the expiration classification at `tau`.
  DropResult RemoveExpiredEntries(Timestamp tau, bool record_delta,
                                  std::vector<Entry>* out);
  /// Releases every segment and the index of a relation that holds no
  /// entries, so repeated fill/drain cycles do not accrete state.
  void ResetStorage();
  /// Grows/rebuilds the index so it can hold at least `n` live entries.
  /// Renumbers segment ids compactly and purges stale slots/tombstones.
  void Rehash(size_t n);
  /// Ensures capacity for one more insert.
  void EnsureSlotCapacity();
  /// Rebuilds slots_ from the segments, which must be duplicate-free.
  void RebuildIndex();

  // --- delta recording (no-ops when tracking is disabled) -----------------
  struct DeltaLog {
    uint64_t instance_id = 0;
    uint64_t epoch = 0;  ///< epoch of the newest recorded batch
    uint64_t floor = 0;  ///< history is complete for cursors >= floor
    size_t capacity = kDefaultDeltaRingCapacity;  ///< in entries
    size_t entries = 0;  ///< deleted plus inserted entries in `batches`
    std::deque<DeltaBatch> batches;
  };
  /// Records one batch: `deleted` entries left, `inserted` ones arrived
  /// (an update is both). Callers on per-row paths check delta_tracking()
  /// first so an untracked relation copies no tuple.
  void RecordDelta(std::vector<Entry> deleted, std::vector<Entry> inserted);
  void TrimDeltaRing();
  /// Invalidates all outstanding cursors (wholesale change happened).
  void BreakDeltaHistory();

  /// The published delta log, or nullptr when tracking is disabled.
  /// Acquire load pairs with the release store in EnableDeltaTracking so
  /// concurrent first-enables are safe under a shared (reader) lock.
  DeltaLog* delta_log() const {
    return delta_.load(std::memory_order_acquire);
  }

  Schema schema_;
  /// Segment directory, sorted by ascending bucket (∞ last). unique_ptr
  /// keeps Segment addresses stable across directory shifts.
  std::vector<std::unique_ptr<Segment>> segments_;
  /// Segment id -> live segment; nullptr marks a retired (bulk-dropped)
  /// id, which is what makes its leftover index slots detectably stale.
  /// Compacted (ids renumbered) on every rehash.
  std::vector<Segment*> seg_by_id_;
  /// Open-addressing index: power-of-two sized, linear probing, packed
  /// (segment id, offset) handle or kEmpty/kTombstone per slot. Empty
  /// vector when no entries.
  std::vector<int64_t> slots_;
  /// False while the index build is deferred: relations assembled whole
  /// by FromEntriesUnchecked (operator results) skip it, since most are
  /// only ever scanned forward. Invariant: !slots_ready_ ⇒ slots_ is
  /// empty (no handles exist, stale or live), so any mutation path that
  /// reaches Rehash — which publishes the flag — heals it for free.
  /// `mutable` + atomic because the build is triggered by const lookups.
  mutable std::atomic<bool> slots_ready_{true};
  /// Serializes the one-shot lazy build among concurrent const readers.
  mutable std::mutex slots_mu_;
  /// Tombstoned plus stale slots (both are recycled by inserts and
  /// purged by rehash); kept for load-factor accounting.
  size_t tombstones_ = 0;
  size_t total_entries_ = 0;
  bool segmented_ = false;
  int64_t bucket_width_ = 8;
  size_t max_segments_ = 64;
  /// Per-epoch mutation log; null until EnableDeltaTracking. `mutable`
  /// because enabling is metadata-only and consumers hold const access;
  /// an atomic pointer (owned, deleted in ~Relation) so a first enable
  /// racing other readers publishes safely (see EnableDeltaTracking).
  mutable std::atomic<DeltaLog*> delta_{nullptr};
};

template <typename Classify, typename Match>
Relation::DropResult Relation::RemoveMatching(const Classify& classify,
                                              const Match& match,
                                              bool record_delta,
                                              std::vector<Entry>* out) {
  record_delta = record_delta && delta_tracking();
  const bool collect = record_delta || out != nullptr;
  std::vector<Entry> removed;
  DropResult result;
  for (size_t i = 0; i < segments_.size();) {
    Segment* seg = segments_[i].get();
    const SegmentAction action = seg->entries.empty()
                                     ? SegmentAction::kSkip
                                     : classify(GetSegment(i));
    if (action == SegmentAction::kSkip) {
      ++i;
      continue;
    }
    if (action == SegmentAction::kDropWhole) {
      // The segment's index slots become stale handles, recognized lazily
      // on probe and purged wholesale at the next rehash; counting them as
      // tombstones keeps the load-factor math honest. A deferred index
      // has no slots to go stale.
      const size_t n = seg->entries.size();
      if (collect) {
        removed.insert(removed.end(),
                       std::make_move_iterator(seg->entries.begin()),
                       std::make_move_iterator(seg->entries.end()));
      }
      if (!slots_.empty()) tombstones_ += n;
      total_entries_ -= n;
      result.tuples += n;
    } else {
      // The swap-erases patch index slots, so a deferred index must
      // materialize first.
      EnsureSlots();
      Timestamp new_min = Timestamp::Infinity();
      Timestamp new_max = Timestamp::Zero();
      for (size_t off = 0; off < seg->entries.size();) {
        Entry& e = seg->entries[off];
        if (!match(e)) {
          new_min = Timestamp::Min(new_min, e.texp);
          new_max = Timestamp::Max(new_max, e.texp);
          ++off;
          continue;
        }
        const size_t slot =
            FindSlotByHandle(e.tuple, MakeHandle(seg->id, off));
        assert(slot != kNotFound);
        ++result.tuples;
        if (collect) removed.push_back(std::move(e));
        // Swap-with-last: the unvisited last entry now sits at `off`.
        EraseWithinSegment(seg, off, slot);
      }
      if (!seg->entries.empty()) {
        seg->min_texp = new_min;
        seg->max_texp = new_max;
        ++i;
        continue;
      }
    }
    ++result.segments;
    DropSegmentAt(i);  // the next segment shifts into position i
  }
  if (result.tuples > 0) FinishRemoval(std::move(removed), record_delta, out);
  return result;
}

}  // namespace expdb

#endif  // EXPDB_RELATIONAL_RELATION_H_
