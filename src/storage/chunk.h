// Chunk: a fixed-size horizontal slice of a relation in columnar form.
// Each chunk covers a contiguous global row range [row_begin, row_begin +
// num_rows) and holds one typed page per column (columnar/column.h),
// plus per-column min/max metadata computed at build time.
//
// One column of one chunk — a ColumnPage — is the storage subsystem's
// paging unit: the BufferManager loads, verifies, accounts and evicts
// pages, not whole chunks. A Chunk is therefore also a *view*: a
// pinned chunk holds exactly the pages its consumer asked for, and
// column(c) is valid only for those (has_column). Chunk::Build makes
// every page.
//
// The columnar kernels fold the typed pages directly (column(i)).
// Boxing a row back into Values (BoxRow) is for MaterializeProvider and
// tests only: no kernel reads boxed chunk rows, so nothing caches them.
//
// Chunks are immutable once built and always heap-allocated
// (shared_ptr).

#ifndef SKALLA_STORAGE_CHUNK_H_
#define SKALLA_STORAGE_CHUNK_H_

#include <memory>
#include <utility>
#include <vector>

#include "columnar/column.h"
#include "common/result.h"
#include "storage/table.h"
#include "types/row.h"

namespace skalla {

/// Default rows per chunk. Small enough that eight resident chunks of
/// the paper's widest relation stay well under typical buffer budgets,
/// large enough that per-chunk overheads (pin, directory entry) amortize.
inline constexpr size_t kDefaultChunkRows = 16384;

/// Per-column metadata computed when a chunk is built. Numeric columns
/// carry the [min, max] over non-null cells; string columns only the
/// null census. Feeds scan pruning and lazy distribution knowledge.
struct ChunkColumnStats {
  bool has_range = false;  // true iff a non-null numeric cell exists
  double min = 0.0;
  double max = 0.0;
  uint64_t null_count = 0;
};

/// Resident-footprint estimate of one column: validity byte per cell
/// plus the typed payload (8 bytes per numeric cell; string container
/// overhead plus character data per string cell). A pure function of
/// the column's content, so file-loaded and table-built pages of the
/// same cells account identically.
uint64_t EstimateColumnBytes(const Column& col);

/// One column of one chunk: the unit the BufferManager pages. `bytes`
/// is EstimateColumnBytes(column), computed once when the page is made.
struct ColumnPage {
  explicit ColumnPage(Column c)
      : column(std::move(c)), bytes(EstimateColumnBytes(column)) {}

  Column column;
  uint64_t bytes;
};

using PagePtr = std::shared_ptr<const ColumnPage>;
using ColumnStatsPtr = std::shared_ptr<const std::vector<ChunkColumnStats>>;

/// InvalidArgument naming the first column of `schema` with no concrete
/// declared type (int64, float64 or string): such a relation has no
/// chunk form, not even for pins that skip that column.
Status CheckChunkable(const Schema& schema);

/// Builds the page of column `col` over rows [row_begin, row_begin +
/// row_count) of `source` and writes its stats to `stats`. The schema
/// must pass CheckChunkable and the range must lie in `source`.
Result<PagePtr> BuildColumnPage(const Table& source, size_t row_begin,
                                size_t row_count, size_t col,
                                ChunkColumnStats* stats);

class Chunk;
using ChunkPtr = std::shared_ptr<const Chunk>;

class Chunk {
  struct Private {};

 public:
  explicit Chunk(Private) {}

  /// Builds a chunk (every page) from rows [row_begin, row_begin +
  /// row_count) of `source`. The schema must pass CheckChunkable.
  static Result<ChunkPtr> Build(const Table& source, size_t row_begin,
                                size_t row_count);

  /// Assembles a view over already-typed pages (the paged path).
  /// `pages` has one slot per schema column; a null slot is a column
  /// the view does not hold. Every present page must have `num_rows`
  /// cells. `stats` has one entry per column.
  static ChunkPtr FromPages(SchemaPtr schema, size_t row_begin,
                            size_t num_rows, std::vector<PagePtr> pages,
                            ColumnStatsPtr stats);

  const SchemaPtr& schema() const { return schema_; }
  /// Global row id of this chunk's first row within its relation.
  size_t row_begin() const { return row_begin_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return pages_.size(); }
  /// Whether this view holds column `i`'s page.
  bool has_column(size_t i) const { return pages_[i] != nullptr; }
  /// Column `i`'s page; only valid when has_column(i).
  const Column& column(size_t i) const { return pages_[i]->column; }
  /// One slot per column, null where the view holds no page.
  const std::vector<PagePtr>& pages() const { return pages_; }
  /// Column `i`'s stats. Chunk-file views know every column's; a view of
  /// a resident relation only those of the columns it holds.
  const ChunkColumnStats& column_stats(size_t i) const {
    return (*stats_)[i];
  }

  /// Boxes local row `i` (0-based within the chunk) into Values, one
  /// per column. Requires every column's page.
  Row BoxRow(size_t i) const;

  /// Summed ColumnPage::bytes of the pages this view holds — what the
  /// BufferManager charges for them.
  uint64_t byte_size() const { return byte_size_; }

 private:
  SchemaPtr schema_;
  size_t row_begin_ = 0;
  size_t num_rows_ = 0;
  std::vector<PagePtr> pages_;
  ColumnStatsPtr stats_;
  uint64_t byte_size_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_CHUNK_H_
