// Flat row storage for every materialization on the extraction path
// (spools, hash-join builds, DISTINCT, existential groups, the delivery
// tid maps and the recursive-CO fixpoint).
//
// A RowStore keeps equal-width rows row-major in chunks of Values: one
// allocation per chunk instead of one heap vector per row, and since a
// chunk's storage is never reallocated, a row's address stays valid while
// the store grows. A RowHashIndex maps keys to row ids: open-addressed key
// slots, each heading a chain of the row ids that share that key, in
// insertion order. The index stores no keys of its own — the caller
// supplies the hash and an equality test against an indexed id — so one
// index type serves keys kept in a RowStore, in delivered stream items, or
// anywhere else.
//
// Keys hash and compare with HashRow/RowsEqual (common/value.h), the same
// definitions behind TupleHash/TupleEq: NULL-safe and 2 = 2.0.

#ifndef XNFDB_EXEC_ROW_STORE_H_
#define XNFDB_EXEC_ROW_STORE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"

namespace xnfdb {

class RowStore {
 public:
  // Rows per chunk after the first; the first chunk is sized from the
  // caller's row estimate (capped at this), so a point query's store does
  // not reserve a full chunk.
  static constexpr size_t kChunkRows = 1024;

  // Empties the store; `expected_rows` (an estimate, < 0 for "unknown")
  // sizes the first chunk. The first appended row fixes the row width.
  void Reset(double expected_rows) {
    width_ = 0;
    size_ = 0;
    room_ = 0;
    chunks_.clear();
    first_rows_ = expected_rows >= 1.0
                      ? static_cast<size_t>(std::min(
                            expected_rows, static_cast<double>(kChunkRows)))
                      : 1;
  }

  size_t width() const { return width_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Appends a copy of `row`; returns its id. Every row must have the width
  // of the first.
  size_t Append(RowView row) {
    if (size_ == 0) width_ = row.size();
    if (room_ == 0) {
      const size_t rows = chunks_.empty() ? first_rows_ : kChunkRows;
      chunks_.emplace_back().reserve(rows * width_);
      room_ = rows;
    }
    --room_;
    chunks_.back().insert(chunks_.back().end(), row.begin(), row.end());
    return size_++;
  }

  RowView Row(size_t id) const {
    if (id < first_rows_) {
      return RowView(chunks_[0].data() + id * width_, width_);
    }
    const size_t rest = id - first_rows_;
    return RowView(
        chunks_[1 + rest / kChunkRows].data() + (rest % kChunkRows) * width_,
        width_);
  }

  // Copies row `id` into `*out`, reusing its capacity.
  void CopyRow(size_t id, Tuple* out) const {
    RowView r = Row(id);
    out->assign(r.begin(), r.end());
  }

 private:
  size_t width_ = 0;
  size_t size_ = 0;
  size_t first_rows_ = 1;
  size_t room_ = 0;  // rows left in the last chunk
  std::vector<std::vector<Value>> chunks_;
};

class RowHashIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  void Clear() {
    slots_.clear();
    next_.clear();
    keys_ = 0;
  }

  // Distinct keys indexed.
  size_t KeyCount() const { return keys_; }

  // The first-inserted id whose key equals the probe key (`eq(id)` tests an
  // indexed id against it), or kNone.
  template <typename Eq>
  uint32_t Find(size_t hash, const Eq& eq) const {
    return slots_.empty() ? kNone : slots_[Locate(hash, eq)].head;
  }

  // The next id after `id` with the same key (insertion order), or kNone.
  // Only ids added through Insert are chained.
  uint32_t NextDuplicate(uint32_t id) const { return next_[id]; }

  // Adds `id` under the probe key, at the end of its key's chain. Ids must
  // be added in increasing order.
  template <typename Eq>
  void Insert(size_t hash, uint32_t id, const Eq& eq) {
    if (next_.size() <= id) next_.resize(static_cast<size_t>(id) + 1, kNone);
    Slot* s = Probe(hash, eq);
    if (s->head == kNone) {
      *s = Slot{hash, id, id};
      ++keys_;
      return;
    }
    next_[s->tail] = id;
    s->tail = id;
  }

  // Adds `id` only when no id with an equal key is indexed yet. Returns the
  // indexed id for the key and whether `id` was the one added.
  template <typename Eq>
  std::pair<uint32_t, bool> InsertUnique(size_t hash, uint32_t id,
                                         const Eq& eq) {
    Slot* s = Probe(hash, eq);
    if (s->head != kNone) return {s->head, false};
    *s = Slot{hash, id, id};
    ++keys_;
    return {id, true};
  }

 private:
  struct Slot {
    size_t hash = 0;
    uint32_t head = kNone;  // first id with this key
    uint32_t tail = kNone;  // last id with this key (Insert appends here)
  };

  // Index of the slot holding the probe key, or of the empty slot where
  // it belongs (linear probing; the table must not be empty).
  template <typename Eq>
  size_t Locate(size_t hash, const Eq& eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.head == kNone || (s.hash == hash && eq(s.head))) return i;
    }
  }

  // Locate for an insert: grows the table first, so the slot stays valid.
  template <typename Eq>
  Slot* Probe(size_t hash, const Eq& eq) {
    if ((keys_ + 1) * 2 > slots_.size()) Rehash((keys_ + 1) * 2);
    return &slots_[Locate(hash, eq)];
  }

  // Home slot of `hash` (Fibonacci hashing: value hashes of integers are
  // the integers themselves, so the top bits of a multiplicative mix spread
  // strided keys like 1000, 2000, ... that low-bit masking would cluster).
  size_t Home(size_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void Rehash(size_t min_slots) {
    size_t n = 16;
    int bits = 4;
    while (n < min_slots) {
      n *= 2;
      ++bits;
    }
    if (n <= slots_.size()) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n, Slot{});
    shift_ = 64 - bits;
    const size_t mask = n - 1;
    for (const Slot& s : old) {
      if (s.head == kNone) continue;
      size_t i = Home(s.hash);
      while (slots_[i].head != kNone) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;      // power-of-two sized, load <= 1/2
  std::vector<uint32_t> next_;   // per-id duplicate chain (Insert only)
  size_t keys_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

// `row` restricted to columns `cols` (all of `row` when `cols` is empty),
// gathered into the reused `*scratch` when a projection is needed.
inline RowView ProjectCols(RowView row, const std::vector<int>& cols,
                           Tuple* scratch) {
  if (cols.empty()) return row;
  scratch->clear();
  for (int c : cols) scratch->push_back(row[c]);
  return *scratch;
}

// A RowStore plus a unique index over its rows: the distinct rows seen so
// far, each with a dense id (DISTINCT, fixpoint candidates).
class RowSet {
 public:
  void Reset(double expected_rows) {
    rows_.Reset(expected_rows);
    index_.Clear();
  }

  // The id of `row`, adding it when new; `.second` tells whether it was.
  std::pair<size_t, bool> Intern(RowView row) {
    auto [id, inserted] = index_.InsertUnique(
        HashRow(row), static_cast<uint32_t>(rows_.size()),
        [&](uint32_t i) { return RowsEqual(rows_.Row(i), row); });
    if (inserted) rows_.Append(row);
    return {id, inserted};
  }

  // The id of `row`, or kNotFound.
  size_t Find(RowView row) const {
    uint32_t id = index_.Find(HashRow(row), [&](uint32_t i) {
      return RowsEqual(rows_.Row(i), row);
    });
    return id == RowHashIndex::kNone ? kNotFound : id;
  }

  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t size() const { return rows_.size(); }
  RowView Row(size_t id) const { return rows_.Row(id); }
  const RowStore& rows() const { return rows_; }
  const RowHashIndex& index() const { return index_; }

 private:
  RowStore rows_;
  RowHashIndex index_;
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_ROW_STORE_H_
