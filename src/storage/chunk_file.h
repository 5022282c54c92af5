// On-disk chunk files: the persistent form of one relation partition,
// written as a sequence of independently loadable column pages plus a
// CRC-checked footer describing them.
//
// Layout, format 2 (little-endian):
//
//   file   := magic "SKALLAC2" chunk* footer
//             footer_len:u32 footer_crc:u32
//   chunk  := page*                   one per column, in column order
//   page   := row_count cells of one column, one WriteValue cell each
//   footer := schema (serde field encoding)
//             num_rows:varint nchunks:varint entry*
//   entry  := row_begin:varint row_count:varint offset:varint
//             length:varint page_entry*          one per column
//   page_entry := offset:varint length:varint crc:u32 colstats
//   colstats   := has_range:u8 [min:f64 max:f64] null_count:varint
//
// Offsets are absolute. A chunk's entry records the region its pages
// occupy; each page lies inside that region, after the previous page,
// and carries its own CRC-32 (the rpc framing polynomial), so one
// column of one chunk — the unit the BufferManager pages — reads with
// one pread and verifies on its own. The footer has a CRC too: a bit
// flip anywhere is detected at open or read time rather than silently
// corrupting results. Format 1 (magic "SKALLAC1", one CRC per whole
// chunk) is not read; opening such a file is an IOError that says to
// re-save it.
//
// ChunkFileWriter streams rows through a bounded buffer: a chunk's rows
// are the only ones resident while writing, which is what lets
// skalla-dataset generate the paper-scale relation without holding it in
// memory.

#ifndef SKALLA_STORAGE_CHUNK_FILE_H_
#define SKALLA_STORAGE_CHUNK_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"
#include "storage/table.h"

namespace skalla {

/// Where one column page lives in a chunk file.
struct PageExtent {
  uint64_t offset = 0;  // absolute file offset of the page
  uint64_t length = 0;  // page bytes
  uint32_t crc = 0;     // CRC-32 of the page
};

/// Directory entry for one chunk of a chunk file.
struct ChunkEntry {
  size_t row_begin = 0;
  size_t row_count = 0;
  uint64_t offset = 0;  // absolute file offset of the chunk's first page
  uint64_t length = 0;  // bytes of all its pages
  std::vector<PageExtent> pages;               // one per column
  std::vector<ChunkColumnStats> column_stats;  // one per column
};

/// Streams rows into a chunk file, flushing a chunk every `chunk_rows`
/// rows. Usage: construct, Append rows (or tables), then Finish — the
/// footer is only written by Finish, so an unfinished file never opens.
class ChunkFileWriter {
 public:
  ChunkFileWriter(std::string path, SchemaPtr schema,
                  size_t chunk_rows = kDefaultChunkRows);
  ~ChunkFileWriter();

  ChunkFileWriter(const ChunkFileWriter&) = delete;
  ChunkFileWriter& operator=(const ChunkFileWriter&) = delete;

  Status Append(const Row& row);
  Status AppendTable(const Table& table);

  /// Flushes the tail chunk and writes the footer. Must be called
  /// exactly once; no Append after.
  Status Finish();

  size_t rows_written() const { return rows_written_; }

 private:
  Status EnsureOpen();
  Status FlushBuffered();

  std::string path_;
  SchemaPtr schema_;
  size_t chunk_rows_;
  Table buffer_;
  size_t rows_written_ = 0;
  uint64_t write_offset_ = 0;
  std::vector<ChunkEntry> entries_;
  void* out_ = nullptr;  // std::ofstream, kept out of the header
  bool finished_ = false;
};

/// Writes a whole table as one chunk file.
Status WriteChunkFile(const Table& table, const std::string& path,
                      size_t chunk_rows = kDefaultChunkRows);

/// An opened chunk file: the parsed footer plus one read-only descriptor
/// held for the file's lifetime. Page reads are positioned (pread), so
/// concurrent reads from buffer-manager loaders are safe.
class ChunkFile {
 public:
  ChunkFile() = default;
  ~ChunkFile();
  ChunkFile(const ChunkFile&) = delete;
  ChunkFile& operator=(const ChunkFile&) = delete;

  /// Opens `path` and parses its footer. A directory entry whose chunk
  /// lies outside the file's page region or overlaps the previous
  /// chunk, a page outside its chunk or overlapping the previous page,
  /// a page too short for its row count, or row ranges that do not tile
  /// num_rows is an IOError here rather than a huge buffer later.
  static Result<std::shared_ptr<const ChunkFile>> Open(std::string path);

  const std::string& path() const { return path_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return entries_.size(); }
  const ChunkEntry& entry(size_t i) const { return entries_[i]; }

  /// Reads the pages of `columns` of chunk `i`, in request order. Each
  /// page is read with one pread, checked against its CRC and decoded
  /// straight into a typed column. A page that is not exactly row_count
  /// cells, or holds a cell its column cannot store, is a typed error,
  /// never a crash.
  Result<std::vector<PagePtr>> ReadPages(
      size_t i, const std::vector<size_t>& columns) const;

  /// Reads every page of chunk `i` into a full chunk.
  Result<ChunkPtr> ReadChunk(size_t i) const;

 private:
  Result<PagePtr> ReadPage(size_t i, size_t column) const;

  std::string path_;
  int fd_ = -1;
  SchemaPtr schema_;
  size_t num_rows_ = 0;
  std::vector<ChunkEntry> entries_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_CHUNK_FILE_H_
