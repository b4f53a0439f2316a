#include "relational/tuple.h"

#include <cassert>
#include <new>

#include "common/str_util.h"

namespace expdb {

namespace {

// Boost-style hash combiner.
size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

template <typename Init>
Tuple Tuple::Build(size_t n, const Init& init) {
  Tuple out;
  if (n == 0) return out;
  void* block = ::operator new(sizeof(Rep) + n * sizeof(Value));
  Rep* rep = ::new (block) Rep{1, static_cast<uint32_t>(n)};
  Value* data = rep->data();
  size_t built = 0;
  try {
    for (; built < n; ++built) init(data + built, built);
  } catch (...) {
    Free(rep, built);
    throw;
  }
  size_t seed = kEmptyHash;
  for (size_t i = 0; i < n; ++i) seed = HashCombine(seed, data[i].Hash());
  out.rep_ = rep;
  out.hash_ = seed;
  return out;
}

void Tuple::Free(Rep* rep, size_t n) {
  Value* data = rep->data();
  for (size_t i = 0; i < n; ++i) data[i].~Value();
  rep->~Rep();
  ::operator delete(rep);
}

Tuple::Tuple(std::vector<Value> values)
    : Tuple(Build(values.size(), [&](Value* slot, size_t i) {
        ::new (slot) Value(std::move(values[i]));
      })) {}

Tuple::Tuple(std::initializer_list<Value> values)
    : Tuple(Build(values.size(), [&](Value* slot, size_t i) {
        ::new (slot) Value(values.begin()[i]);
      })) {}

size_t Tuple::HashOfColumns(const std::vector<size_t>& indices) const {
  size_t seed = kEmptyHash;
  for (size_t i : indices) {
    assert(i < arity());
    seed = HashCombine(seed, at(i).Hash());
  }
  return seed;
}

Tuple Tuple::Concat(const Tuple& other) const {
  const size_t n = arity();
  return Build(n + other.arity(), [&](Value* slot, size_t i) {
    ::new (slot) Value(i < n ? at(i) : other.at(i - n));
  });
}

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  return Build(indices.size(), [&](Value* slot, size_t i) {
    assert(indices[i] < arity());
    ::new (slot) Value(at(indices[i]));
  });
}

Tuple Tuple::Prefix(size_t n) const {
  assert(n <= arity());
  return Build(n, [&](Value* slot, size_t i) { ::new (slot) Value(at(i)); });
}

Tuple Tuple::Suffix(size_t from) const {
  assert(from <= arity());
  return Build(arity() - from, [&](Value* slot, size_t i) {
    ::new (slot) Value(at(from + i));
  });
}

Tuple Tuple::Append(Value v) const {
  const size_t n = arity();
  return Build(n + 1, [&](Value* slot, size_t i) {
    if (i < n) {
      ::new (slot) Value(at(i));
    } else {
      ::new (slot) Value(std::move(v));
    }
  });
}

bool Tuple::operator<(const Tuple& other) const {
  const std::span<const Value> a = values();
  const std::span<const Value> b = other.values();
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    auto cmp = a[i].Compare(b[i]);
    if (cmp != std::strong_ordering::equal) {
      return cmp == std::strong_ordering::less;
    }
  }
  return a.size() < b.size();
}

std::string Tuple::ToString() const {
  return "<" + JoinToString(values(), ", ") + ">";
}

std::ostream& operator<<(std::ostream& os, const Tuple& t) {
  return os << t.ToString();
}

}  // namespace expdb
