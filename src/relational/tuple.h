// Tuple: an element of a relation; a fixed-arity sequence of Values.
//
// Tuples are immutable after construction, which lets the hash be computed
// exactly once (in the constructor) and cached. Every hash container over
// tuples — the Relation index, join build tables, aggregate partitioning —
// reuses the cached value instead of re-walking the Values, and the cache
// makes concurrent read-side hashing trivially thread-safe.
//
// Immutability also means copies never need their own Values: all copies
// of a tuple share one refcounted payload, so copying a Tuple is a
// pointer-plus-refcount bump instead of a Value-vector clone. Scans and
// the set operators copy entries between relations constantly — with
// shared payloads a scan result references the stored tuples instead of
// reallocating (and heap-scattering) every one of them.
//
// The payload is one heap block: an 8-byte header (refcount, arity)
// followed by the Values themselves, so building a derived tuple (Concat,
// Project, Append, ...) is one allocation with the Values constructed in
// place, and a Tuple is two words (payload pointer, hash). The refcount
// uses libstdc++'s dispatching atomics, exactly as std::shared_ptr does:
// plain increments until the process starts its first thread, atomic
// read-modify-writes after.

#ifndef EXPDB_RELATIONAL_TUPLE_H_
#define EXPDB_RELATIONAL_TUPLE_H_

#include <ext/atomicity.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"

namespace expdb {

/// \brief A tuple r with attributes r(0)..r(α-1) (paper uses 1-based).
class Tuple {
  /// The shared payload's header; arity() Values follow it in the same
  /// allocation.
  struct alignas(Value) Rep {
    _Atomic_word refs;
    uint32_t arity;
    Value* data() { return reinterpret_cast<Value*>(this + 1); }
  };

 public:
  /// Bytes a payload spends beyond its Values (memory accounting).
  static constexpr size_t kHeaderBytes = sizeof(Rep);

  Tuple() noexcept = default;
  explicit Tuple(std::vector<Value> values);
  Tuple(std::initializer_list<Value> values);

  Tuple(const Tuple& other) noexcept : rep_(other.rep_), hash_(other.hash_) {
    if (rep_ != nullptr) __gnu_cxx::__atomic_add_dispatch(&rep_->refs, 1);
  }
  Tuple(Tuple&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)),
        hash_(std::exchange(other.hash_, kEmptyHash)) {}
  Tuple& operator=(const Tuple& other) noexcept {
    Tuple(other).swap(*this);
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    Tuple(std::move(other)).swap(*this);
    return *this;
  }
  ~Tuple() {
    if (rep_ != nullptr &&
        __gnu_cxx::__exchange_and_add_dispatch(&rep_->refs, -1) == 1) {
      Free(rep_, rep_->arity);
    }
  }

  void swap(Tuple& other) noexcept {
    std::swap(rep_, other.rep_);
    std::swap(hash_, other.hash_);
  }

  size_t arity() const { return rep_ != nullptr ? rep_->arity : 0; }

  /// How many Tuples share this payload (0 for the empty tuple), like
  /// std::shared_ptr::use_count: exact only while no other thread copies
  /// or drops one of them.
  long use_count() const {
    return rep_ != nullptr ? __atomic_load_n(&rep_->refs, __ATOMIC_RELAXED)
                           : 0;
  }

  /// The i-th attribute value (0-based).
  const Value& at(size_t i) const { return rep_->data()[i]; }
  const Value& operator[](size_t i) const { return at(i); }

  std::span<const Value> values() const {
    if (rep_ == nullptr) return {};
    return {rep_->data(), rep_->arity};
  }

  /// \brief ⟨r(0..α(r)-1), s(0..α(s)-1)⟩ — tuple concatenation for ×.
  Tuple Concat(const Tuple& other) const;

  /// \brief ⟨r(j1), ..., r(jn)⟩ — projection. Indices must be valid.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// \brief The prefix of the first `n` attributes (left half of a ×).
  Tuple Prefix(size_t n) const;

  /// \brief The suffix starting at attribute `from` (right half of a ×).
  Tuple Suffix(size_t from) const;

  /// \brief Appends a single value (aggregation's appended column).
  Tuple Append(Value v) const;

  bool operator==(const Tuple& other) const {
    if (hash_ != other.hash_) return false;
    // Copies share the payload, so most equal tuples compare by pointer.
    if (rep_ == other.rep_) return true;
    return std::ranges::equal(values(), other.values());
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  /// Lexicographic order; used for deterministic printing and sorting.
  bool operator<(const Tuple& other) const;

  /// The cached hash, computed once at construction.
  size_t Hash() const { return hash_; }

  /// \brief Hash of the projected columns ⟨r(j1), ..., r(jn)⟩, identical
  /// to Project(indices).Hash() but without materializing the projection.
  /// Join build/probe sides hash their key columns through this.
  size_t HashOfColumns(const std::vector<size_t>& indices) const;

  /// Renders the paper's ⟨v1, v2, ...⟩ notation (ASCII: "<v1, v2>").
  std::string ToString() const;

 private:
  /// The hash of the empty tuple (the hash combiner's seed).
  static constexpr size_t kEmptyHash = 0x5bd1e9955bd1e995ULL;

  /// Builds a payload of `n` Values, constructing Value i by
  /// `init(slot, i)`, and caches its hash. n == 0 gives the empty tuple.
  template <typename Init>
  static Tuple Build(size_t n, const Init& init);
  /// Destroys the first `n` Values of `rep` and frees the block.
  static void Free(Rep* rep, size_t n);

  /// Shared immutable payload; null encodes the empty tuple.
  Rep* rep_ = nullptr;
  size_t hash_ = kEmptyHash;
};

std::ostream& operator<<(std::ostream& os, const Tuple& t);

}  // namespace expdb

template <>
struct std::hash<expdb::Tuple> {
  size_t operator()(const expdb::Tuple& t) const noexcept { return t.Hash(); }
};

#endif  // EXPDB_RELATIONAL_TUPLE_H_
