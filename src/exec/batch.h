// Batch-at-a-time execution support (MonetDB/X100-style vectorization):
// the one unit every operator produces and consumes (Operator::NextBatch).
//
// A TupleBatch is a fixed-capacity block of rows plus a selection vector of
// active row indices. Producers append rows densely (AppendRow activates
// the row); filters *mark* instead of copy by shrinking the selection vector
// in place, so a batch flows through a filter chain without any row
// movement.
// Consumers iterate Active(i) for i in [0, ActiveCount()).
//
// NextBatch(batch) returning true with ActiveCount() == 0 is legal (a fully
// filtered batch); only `false` means end of stream. batch_size = 1 is a
// batch of one, through the same operator code as any other size.

#ifndef XNFDB_EXEC_BATCH_H_
#define XNFDB_EXEC_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/value.h"

namespace xnfdb {

// Resolves a requested batch size: explicit value > 0 wins, else the
// process's configured one (Config::Process()). A Database passes its own
// Config's value, so only direct callers of the executor get here with 0.
inline int ResolveBatchSize(int requested) {
  return requested > 0 ? requested : Config::Process().batch_size;
}

// Resolves a requested morsel worker count the same way.
inline int ResolveMorselWorkers(int requested) {
  return requested > 0 ? requested : Config::Process().morsel_workers;
}

// Capacity of a batch that pulls from an operator estimated to produce
// `est_rows` rows (< 0 = no estimate): `batch_size`, shrunk toward a small
// estimate so a point query does not reserve a full batch — but never
// below 64 rows, since estimates can be low.
inline size_t BatchCapacityFor(double est_rows, size_t batch_size) {
  if (est_rows < 0) return batch_size;
  const size_t est = static_cast<size_t>(est_rows) + 1;
  return std::min(batch_size, std::max<size_t>(64, est));
}

class TupleBatch {
 public:
  explicit TupleBatch(size_t capacity = kDefaultBatchSize)
      : capacity_(capacity == 0 ? 1 : capacity) {
    rows_.reserve(capacity_);
    sel_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  // Changes the capacity; the pooled row storage is kept (and grown to
  // the new capacity up front). Operators size their child-side batches to
  // their output batch (or, for LIMIT, to the rows still owed) with this
  // before each pull.
  void set_capacity(size_t capacity) {
    capacity_ = capacity == 0 ? 1 : capacity;
    rows_.reserve(capacity_);
    sel_.reserve(capacity_);
  }
  // Producers stop appending at capacity; the hash join, whose matches fan
  // out, may overshoot it rather than carry probe state across calls.
  bool Full() const { return size_ >= capacity_; }
  bool Empty() const { return size_ == 0; }

  // Resets the batch without destroying its row storage: the Tuple objects
  // (and whatever heap buffers their Values still own) stay behind as a
  // pool, so refilling via AppendRow() copy-assigns into warm buffers
  // instead of re-allocating per row. This is what keeps the batch path
  // from regressing on filter-heavy plans, where most scanned rows are
  // deselected and never leave the batch.
  void Clear() {
    size_ = 0;
    sel_.clear();
  }

  // Appends an active row slot and returns it for the producer to fill
  // (typically by copy-assignment, which reuses the slot's capacity).
  // The returned reference is valid until the next AppendRow/Clear.
  Tuple& AppendRow() {
    sel_.push_back(static_cast<uint32_t>(size_));
    if (size_ == rows_.size()) rows_.emplace_back();
    return rows_[size_++];
  }

  // Retracts the most recent AppendRow() (which must still be active):
  // producers may append a slot speculatively, try to fill it, and drop it
  // when the source is exhausted or the row fails a residual predicate.
  void DropLastRow() {
    sel_.pop_back();
    --size_;
  }

  // Rows still selected.
  size_t ActiveCount() const { return sel_.size(); }
  Tuple& Active(size_t i) { return rows_[sel_[i]]; }
  const Tuple& Active(size_t i) const { return rows_[sel_[i]]; }

  // The selection vector (ascending indices into rows()). Filters shrink it
  // in place to deselect rows.
  std::vector<uint32_t>& sel() { return sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }

  std::vector<Tuple>& rows() { return rows_; }
  const std::vector<Tuple>& rows() const { return rows_; }

 private:
  size_t capacity_;
  size_t size_ = 0;  // valid rows; rows_ may hold more as pooled storage
  std::vector<Tuple> rows_;
  std::vector<uint32_t> sel_;
};

}  // namespace xnfdb

#endif  // XNFDB_EXEC_BATCH_H_
