// DataProvider: the read interface both the row and columnar kernels
// consume a relation through — modeled on the DataMgr/BufferMgr +
// ArrowStorage split of hdk-style engines. A provider describes its
// relation as an ordered sequence of chunks (contiguous global row
// ranges) and serves each chunk on demand through Pin, which takes the
// set of columns the caller reads: a paged provider loads only those
// columns' pages.
//
// Implementations:
//  - MemoryDataProvider wraps an in-memory Table. Its ResidentTable()
//    shortcut serves the row kernel and base queries directly; its
//    column pages (built from the table the first time a pin asks for
//    that column of that chunk, then cached) are the resident relation's
//    one columnar form, which the columnar kernels stream exactly like a
//    paged relation's chunks.
//  - ChunkFileDataProvider pages column pages from a chunk file through
//    a shared BufferManager; nothing is resident until pinned.
//  - ConcatDataProvider concatenates providers in order — the
//    centralized union of per-site partitions for reference evaluation,
//    without materializing the union.
//
// Row-identity contract: chunk c covers global rows
// [chunk_row_begin(c), chunk_row_begin(c) + chunk_rows(c)), chunks are
// ordered and gap-free, and boxing chunk rows yields exactly the rows of
// the equivalent in-memory table in the same order. The columnar kernels
// rely on this to stay byte-identical to the row oracle, and
// MaterializeProvider to rebuild the relation.

#ifndef SKALLA_STORAGE_DATA_PROVIDER_H_
#define SKALLA_STORAGE_DATA_PROVIDER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/buffer_manager.h"
#include "storage/chunk.h"
#include "storage/chunk_file.h"
#include "storage/table.h"

namespace skalla {

class DataProvider {
 public:
  virtual ~DataProvider() = default;

  virtual const SchemaPtr& schema() const = 0;
  virtual size_t num_rows() const = 0;
  virtual size_t num_chunks() const = 0;
  virtual size_t chunk_row_begin(size_t chunk) const = 0;
  virtual size_t chunk_rows(size_t chunk) const = 0;

  /// Pins columns `columns` (strictly ascending schema indexes) of chunk
  /// `chunk` resident and returns the handle; column(c) of the pinned
  /// chunk is valid for exactly those columns. Thread-safe.
  Result<PinnedChunk> Pin(size_t chunk,
                          const std::vector<size_t>& columns) const;

  /// Pins every column of chunk `chunk` — what boxed rows
  /// (Chunk::BoxRow) and MaterializeProvider need.
  Result<PinnedChunk> Pin(size_t chunk) const;

  /// The whole relation as one resident Table when this provider is
  /// memory-backed — the zero-overhead path consumers prefer when
  /// non-null. Paged providers return nullptr.
  virtual const Table* ResidentTable() const { return nullptr; }

  /// Per-column min/max stats of chunk `chunk` when they are available
  /// WITHOUT pinning the chunk (chunk files persist them in the footer
  /// directory; memory providers only know them once that column's page
  /// has been built). nullptr means unknown — consumers must treat the chunk
  /// as unprunable. Thread-safe.
  virtual const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                                     size_t col) const {
    (void)chunk;
    (void)col;
    return nullptr;
  }

  /// The index of the chunk containing global row `row`.
  size_t ChunkOfRow(size_t row) const;

 protected:
  /// Pin after the column set has been checked against the schema.
  virtual Result<PinnedChunk> PinColumns(
      size_t chunk, const std::vector<size_t>& columns) const = 0;
};

using DataProviderPtr = std::shared_ptr<const DataProvider>;

/// Zero-copy wrap of an in-memory table.
class MemoryDataProvider : public DataProvider {
 public:
  explicit MemoryDataProvider(std::shared_ptr<const Table> table,
                              size_t chunk_rows = kDefaultChunkRows);

  const SchemaPtr& schema() const override { return table_->schema(); }
  size_t num_rows() const override { return table_->num_rows(); }
  size_t num_chunks() const override { return num_chunks_; }
  size_t chunk_row_begin(size_t chunk) const override {
    return chunk * chunk_rows_;
  }
  size_t chunk_rows(size_t chunk) const override;
  const Table* ResidentTable() const override { return table_.get(); }
  const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                             size_t col) const override;

 protected:
  /// Builds the pages of `columns` not built yet, then returns a view of
  /// exactly those pages. Memory-backed pages are never evicted.
  Result<PinnedChunk> PinColumns(
      size_t chunk, const std::vector<size_t>& columns) const override;

 private:
  // The pages of one chunk built so far (a null slot is a column no pin
  // has asked for) and their stats, valid where the page is. The stats
  // vector is sized once and shared by every view of the chunk.
  struct BuiltPages {
    std::vector<PagePtr> pages;
    std::shared_ptr<std::vector<ChunkColumnStats>> stats;
  };

  std::shared_ptr<const Table> table_;
  size_t chunk_rows_;
  size_t num_chunks_;
  mutable std::mutex mu_;
  mutable std::vector<BuiltPages> cache_;
};

/// Pages the column pages of one chunk file through a shared
/// BufferManager.
class ChunkFileDataProvider : public DataProvider {
 public:
  /// Opens `path` (footer parse + CRC check happen here). All chunk
  /// loads go through `buffers`.
  static Result<std::shared_ptr<ChunkFileDataProvider>> Open(
      const std::string& path, std::shared_ptr<BufferManager> buffers);
  ~ChunkFileDataProvider() override;

  const SchemaPtr& schema() const override { return file_->schema(); }
  size_t num_rows() const override { return file_->num_rows(); }
  size_t num_chunks() const override { return file_->num_chunks(); }
  size_t chunk_row_begin(size_t chunk) const override {
    return file_->entry(chunk).row_begin;
  }
  size_t chunk_rows(size_t chunk) const override {
    return file_->entry(chunk).row_count;
  }
  const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                             size_t col) const override;

  const ChunkFile& file() const { return *file_; }
  const std::shared_ptr<BufferManager>& buffers() const { return buffers_; }

 protected:
  Result<PinnedChunk> PinColumns(
      size_t chunk, const std::vector<size_t>& columns) const override;

 private:
  ChunkFileDataProvider(std::shared_ptr<const ChunkFile> file,
                        std::shared_ptr<BufferManager> buffers)
      : file_(std::move(file)),
        buffers_(std::move(buffers)),
        owner_id_(BufferManager::NextOwnerId()) {}

  std::shared_ptr<const ChunkFile> file_;
  std::shared_ptr<BufferManager> buffers_;
  uint64_t owner_id_;
};

/// The ordered concatenation of providers (per-site partitions in site
/// order — exactly the UnionAll order of the eager centralized catalog).
class ConcatDataProvider : public DataProvider {
 public:
  explicit ConcatDataProvider(std::vector<DataProviderPtr> parts);

  const SchemaPtr& schema() const override { return parts_[0]->schema(); }
  size_t num_rows() const override { return num_rows_; }
  size_t num_chunks() const override { return chunk_map_.size(); }
  size_t chunk_row_begin(size_t chunk) const override;
  size_t chunk_rows(size_t chunk) const override;
  const ChunkColumnStats* chunk_column_stats(size_t chunk,
                                             size_t col) const override;

 protected:
  Result<PinnedChunk> PinColumns(
      size_t chunk, const std::vector<size_t>& columns) const override;

 private:
  struct ChunkRef {
    size_t part = 0;
    size_t local_chunk = 0;
    size_t row_begin = 0;  // global, offset by preceding parts
  };

  std::vector<DataProviderPtr> parts_;
  std::vector<ChunkRef> chunk_map_;
  size_t num_rows_ = 0;
};

/// Boxes the provider's whole relation into an in-memory Table (chunk by
/// chunk; peak residency is one chunk above the buffer budget). The
/// materialization of last resort for consumers with no chunked path,
/// such as the row oracle over a paged relation. The pins' page counts
/// are added to `pins` when given.
Result<Table> MaterializeProvider(const DataProvider& provider,
                                  PinCounts* pins = nullptr);

}  // namespace skalla

#endif  // SKALLA_STORAGE_DATA_PROVIDER_H_
