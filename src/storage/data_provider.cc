#include "storage/data_provider.h"

#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

size_t DataProvider::ChunkOfRow(size_t row) const {
  // Chunks are ordered and gap-free; binary search the row ranges.
  size_t lo = 0, hi = num_chunks();
  while (lo + 1 < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (chunk_row_begin(mid) <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<PinnedChunk> DataProvider::Pin(
    size_t chunk, const std::vector<size_t>& columns) const {
  if (chunk >= num_chunks()) {
    return Status::InvalidArgument(
        StrCat("chunk ", chunk, " out of range (", num_chunks(), ")"));
  }
  const size_t width = schema()->num_fields();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] >= width || (i > 0 && columns[i] <= columns[i - 1])) {
      return Status::InvalidArgument(
          StrCat("pinned columns must be strictly ascending indexes below ",
                 width));
    }
  }
  return PinColumns(chunk, columns);
}

Result<PinnedChunk> DataProvider::Pin(size_t chunk) const {
  std::vector<size_t> all(schema()->num_fields());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return Pin(chunk, all);
}

// --- MemoryDataProvider ----------------------------------------------------

MemoryDataProvider::MemoryDataProvider(std::shared_ptr<const Table> table,
                                       size_t chunk_rows)
    : table_(std::move(table)),
      chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows) {
  const size_t rows = table_->num_rows();
  num_chunks_ = rows == 0 ? 0 : (rows - 1) / chunk_rows_ + 1;
  cache_.resize(num_chunks_);
}

size_t MemoryDataProvider::chunk_rows(size_t chunk) const {
  const size_t begin = chunk * chunk_rows_;
  const size_t end = begin + chunk_rows_;
  const size_t rows = table_->num_rows();
  return (end > rows ? rows : end) - begin;
}

Result<PinnedChunk> MemoryDataProvider::PinColumns(
    size_t chunk, const std::vector<size_t>& columns) const {
  const size_t row_begin = chunk_row_begin(chunk);
  const size_t rows = chunk_rows(chunk);
  std::vector<PagePtr> view(schema()->num_fields());
  ColumnStatsPtr stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    BuiltPages& built = cache_[chunk];
    if (built.stats == nullptr) {
      SKALLA_RETURN_NOT_OK(CheckChunkable(*schema()));
      built.pages.resize(view.size());
      built.stats =
          std::make_shared<std::vector<ChunkColumnStats>>(view.size());
    }
    for (size_t c : columns) {
      if (built.pages[c] == nullptr) {
        SKALLA_ASSIGN_OR_RETURN(
            built.pages[c],
            BuildColumnPage(*table_, row_begin, rows, c, &(*built.stats)[c]));
      }
      view[c] = built.pages[c];
    }
    stats = built.stats;
  }
  // Memory-backed pages are always resident; no unpin bookkeeping.
  PinCounts counts;
  counts.pages = columns.size();
  return PinnedChunk(
      Chunk::FromPages(schema(), row_begin, rows, std::move(view),
                       std::move(stats)),
      nullptr, 0, chunk, counts);
}

const ChunkColumnStats* MemoryDataProvider::chunk_column_stats(
    size_t chunk, size_t col) const {
  if (chunk >= num_chunks_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  // Stats exist only for pages someone already built; building one here
  // would defeat the point of stat-only pruning.
  const BuiltPages& built = cache_[chunk];
  if (col >= built.pages.size() || built.pages[col] == nullptr) {
    return nullptr;
  }
  return &(*built.stats)[col];
}

// --- ChunkFileDataProvider -------------------------------------------------

Result<std::shared_ptr<ChunkFileDataProvider>> ChunkFileDataProvider::Open(
    const std::string& path, std::shared_ptr<BufferManager> buffers) {
  if (buffers == nullptr) {
    return Status::InvalidArgument(
        "ChunkFileDataProvider needs a BufferManager");
  }
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const ChunkFile> file,
                          ChunkFile::Open(path));
  return std::shared_ptr<ChunkFileDataProvider>(
      new ChunkFileDataProvider(std::move(file), std::move(buffers)));
}

ChunkFileDataProvider::~ChunkFileDataProvider() {
  buffers_->DropOwner(owner_id_);
}

Result<PinnedChunk> ChunkFileDataProvider::PinColumns(
    size_t chunk, const std::vector<size_t>& columns) const {
  const ChunkFile* file = file_.get();
  const ChunkEntry& entry = file->entry(chunk);
  std::vector<PagePtr> pages(entry.pages.size());
  SKALLA_ASSIGN_OR_RETURN(
      PinCounts counts,
      buffers_->Pin(owner_id_, chunk, columns,
                    [file, chunk](const std::vector<size_t>& missing) {
                      return file->ReadPages(chunk, missing);
                    },
                    &pages));
  // The stats live in the file's directory; the view shares them.
  ColumnStatsPtr stats(file_, &entry.column_stats);
  return PinnedChunk(Chunk::FromPages(file->schema(), entry.row_begin,
                                      entry.row_count, std::move(pages),
                                      std::move(stats)),
                     buffers_, owner_id_, chunk, counts);
}

const ChunkColumnStats* ChunkFileDataProvider::chunk_column_stats(
    size_t chunk, size_t col) const {
  if (chunk >= file_->num_chunks()) return nullptr;
  const ChunkEntry& entry = file_->entry(chunk);
  if (col >= entry.column_stats.size()) return nullptr;
  return &entry.column_stats[col];
}

// --- ConcatDataProvider ----------------------------------------------------

ConcatDataProvider::ConcatDataProvider(std::vector<DataProviderPtr> parts)
    : parts_(std::move(parts)) {
  for (size_t p = 0; p < parts_.size(); ++p) {
    const DataProvider& part = *parts_[p];
    for (size_t c = 0; c < part.num_chunks(); ++c) {
      chunk_map_.push_back(
          ChunkRef{p, c, num_rows_ + part.chunk_row_begin(c)});
    }
    num_rows_ += part.num_rows();
  }
}

size_t ConcatDataProvider::chunk_row_begin(size_t chunk) const {
  return chunk_map_[chunk].row_begin;
}

size_t ConcatDataProvider::chunk_rows(size_t chunk) const {
  const ChunkRef& ref = chunk_map_[chunk];
  return parts_[ref.part]->chunk_rows(ref.local_chunk);
}

Result<PinnedChunk> ConcatDataProvider::PinColumns(
    size_t chunk, const std::vector<size_t>& columns) const {
  const ChunkRef& ref = chunk_map_[chunk];
  return parts_[ref.part]->Pin(ref.local_chunk, columns);
}

const ChunkColumnStats* ConcatDataProvider::chunk_column_stats(
    size_t chunk, size_t col) const {
  if (chunk >= chunk_map_.size()) return nullptr;
  const ChunkRef& ref = chunk_map_[chunk];
  return parts_[ref.part]->chunk_column_stats(ref.local_chunk, col);
}

// --- Materialization -------------------------------------------------------

Result<Table> MaterializeProvider(const DataProvider& provider,
                                  PinCounts* pins) {
  Table out(provider.schema());
  out.Reserve(provider.num_rows());
  for (size_t c = 0; c < provider.num_chunks(); ++c) {
    SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin, provider.Pin(c));
    if (pins != nullptr) *pins += pin.counts();
    for (size_t r = 0; r < pin->num_rows(); ++r) {
      out.AppendUnchecked(pin->BoxRow(r));
    }
  }
  return out;
}

}  // namespace skalla
