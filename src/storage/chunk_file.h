// On-disk chunk files: the persistent form of one relation partition,
// written as a sequence of independently loadable columnar chunks plus a
// CRC-checked footer describing them.
//
// Layout (little-endian):
//
//   file   := magic "SKALLAC1" chunk_payload* footer
//             footer_len:u32 footer_crc:u32
//   footer := schema (serde field encoding)
//             num_rows:varint nchunks:varint entry*
//   entry  := row_begin:varint row_count:varint offset:varint
//             length:varint payload_crc:u32 colstats*
//   colstats := has_range:u8 [min:f64 max:f64] null_count:varint
//   chunk_payload := cells column-major, one WriteValue cell each
//
// Both the footer and every chunk payload carry a CRC-32 (the rpc
// framing polynomial); a bit flip anywhere is detected at open / read
// time rather than silently corrupting results. Offsets are absolute, so
// a chunk reads with one seek — the unit the BufferManager pages.
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

/// Directory entry for one chunk of a chunk file.
struct ChunkEntry {
  size_t row_begin = 0;
  size_t row_count = 0;
  uint64_t offset = 0;  // absolute file offset of the payload
  uint64_t length = 0;  // payload bytes
  uint32_t crc = 0;     // CRC-32 of the payload
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

/// An opened chunk file: the parsed footer plus the ability to read any
/// chunk. Reads are independent (each opens its own stream), so
/// concurrent ReadChunk calls from buffer-manager loaders are safe.
class ChunkFile {
 public:
  /// Opens `path` and parses its footer. A directory entry whose
  /// payload lies outside the file's payload region, or is too short
  /// for its row count, is an IOError here rather than a huge buffer in
  /// ReadChunk.
  static Result<std::shared_ptr<const ChunkFile>> Open(std::string path);

  const std::string& path() const { return path_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const { return entries_.size(); }
  const ChunkEntry& entry(size_t i) const { return entries_[i]; }

  /// Reads chunk `i`, checks its CRC and decodes its cells straight
  /// into typed columns. A payload that is not exactly row_count cells
  /// per column, or holds a cell its column cannot store, is a typed
  /// error, never a crash.
  Result<ChunkPtr> ReadChunk(size_t i) const;

 private:
  std::string path_;
  SchemaPtr schema_;
  size_t num_rows_ = 0;
  std::vector<ChunkEntry> entries_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_CHUNK_FILE_H_
