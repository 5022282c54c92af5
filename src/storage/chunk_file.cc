#include "storage/chunk_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "net/serde.h"
#include "rpc/frame.h"

namespace skalla {

namespace {

constexpr char kChunkMagic[8] = {'S', 'K', 'A', 'L', 'L', 'A', 'C', '2'};
constexpr char kChunkMagicV1[8] = {'S', 'K', 'A', 'L', 'L', 'A', 'C', '1'};

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint8_t raw[8];
  std::memcpy(raw, &v, 8);
  out->insert(out->end(), raw, raw + 8);
}

Result<double> ReadF64(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(const uint8_t* p, reader->ReadBytes(8));
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

void EncodeSchema(const Schema& schema, std::vector<uint8_t>* out) {
  PutVarint(out, schema.num_fields());
  for (const Field& field : schema.fields()) {
    PutVarint(out, field.name.size());
    out->insert(out->end(), field.name.begin(), field.name.end());
    out->push_back(static_cast<uint8_t>(field.type));
  }
}

Result<SchemaPtr> DecodeSchema(ByteReader* reader) {
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_fields, reader->ReadVarint());
  if (num_fields > reader->remaining()) {
    return Status::IOError(StrCat("schema announces ", num_fields, " fields"));
  }
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    SKALLA_ASSIGN_OR_RETURN(uint64_t name_len, reader->ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(const uint8_t* name_bytes,
                            reader->ReadBytes(name_len));
    SKALLA_ASSIGN_OR_RETURN(uint8_t type, reader->ReadByte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IOError(StrCat("bad column type tag ", type));
    }
    fields.push_back(Field{
        std::string(reinterpret_cast<const char*>(name_bytes), name_len),
        static_cast<ValueType>(type)});
  }
  return Schema::Make(std::move(fields));
}

// Serializes column `c` of `chunk` as one page: its cells in order.
void EncodePage(const Chunk& chunk, size_t c, std::vector<uint8_t>* out) {
  const Column& col = chunk.column(c);
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    WriteValue(out, col.GetValue(r));
  }
}

// Reads exactly `n` bytes at `offset`, retrying short reads.
Status PreadFully(int fd, uint8_t* buf, uint64_t n, uint64_t offset,
                  const std::string& path) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, buf, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      return Status::IOError(StrCat("failed reading '", path, "' at ",
                                    offset));
    }
    buf += got;
    n -= static_cast<uint64_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

}  // namespace

// --- ChunkFileWriter -------------------------------------------------------

ChunkFileWriter::ChunkFileWriter(std::string path, SchemaPtr schema,
                                 size_t chunk_rows)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      chunk_rows_(chunk_rows == 0 ? kDefaultChunkRows : chunk_rows),
      buffer_(schema_) {}

ChunkFileWriter::~ChunkFileWriter() {
  delete static_cast<std::ofstream*>(out_);
}

Status ChunkFileWriter::EnsureOpen() {
  if (out_ != nullptr) return Status::OK();
  auto* out = new std::ofstream(path_, std::ios::binary | std::ios::trunc);
  out_ = out;
  if (!*out) {
    return Status::IOError(StrCat("cannot open '", path_, "' for writing"));
  }
  out->write(kChunkMagic, sizeof(kChunkMagic));
  write_offset_ = sizeof(kChunkMagic);
  return Status::OK();
}

Status ChunkFileWriter::Append(const Row& row) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SKALLA_RETURN_NOT_OK(buffer_.Append(row));
  ++rows_written_;
  if (buffer_.num_rows() >= chunk_rows_) return FlushBuffered();
  return Status::OK();
}

Status ChunkFileWriter::AppendTable(const Table& table) {
  for (size_t r = 0; r < table.num_rows(); ++r) {
    SKALLA_RETURN_NOT_OK(Append(table.row(r)));
  }
  return Status::OK();
}

Status ChunkFileWriter::FlushBuffered() {
  const size_t n = buffer_.num_rows();
  if (n == 0) return Status::OK();
  SKALLA_RETURN_NOT_OK(EnsureOpen());
  SKALLA_ASSIGN_OR_RETURN(ChunkPtr chunk, Chunk::Build(buffer_, 0, n));
  ChunkEntry entry;
  entry.row_begin = rows_written_ - n;
  entry.row_count = n;
  entry.offset = write_offset_;
  std::vector<uint8_t> payload;
  for (size_t c = 0; c < chunk->num_columns(); ++c) {
    const size_t page_begin = payload.size();
    EncodePage(*chunk, c, &payload);
    PageExtent page;
    page.offset = write_offset_ + page_begin;
    page.length = payload.size() - page_begin;
    page.crc = rpc::Crc32(payload.data() + page_begin, page.length);
    entry.pages.push_back(page);
    entry.column_stats.push_back(chunk->column_stats(c));
  }
  entry.length = payload.size();
  entries_.push_back(std::move(entry));

  auto* out = static_cast<std::ofstream*>(out_);
  out->write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  if (!*out) return Status::IOError(StrCat("failed writing '", path_, "'"));
  write_offset_ += payload.size();
  buffer_.Clear();
  return Status::OK();
}

Status ChunkFileWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  SKALLA_RETURN_NOT_OK(FlushBuffered());
  SKALLA_RETURN_NOT_OK(EnsureOpen());  // zero-row relations still get a file
  finished_ = true;

  std::vector<uint8_t> footer;
  EncodeSchema(*schema_, &footer);
  PutVarint(&footer, rows_written_);
  PutVarint(&footer, entries_.size());
  for (const ChunkEntry& entry : entries_) {
    PutVarint(&footer, entry.row_begin);
    PutVarint(&footer, entry.row_count);
    PutVarint(&footer, entry.offset);
    PutVarint(&footer, entry.length);
    for (size_t c = 0; c < entry.pages.size(); ++c) {
      const PageExtent& page = entry.pages[c];
      const ChunkColumnStats& s = entry.column_stats[c];
      PutVarint(&footer, page.offset);
      PutVarint(&footer, page.length);
      PutU32(&footer, page.crc);
      footer.push_back(s.has_range ? 1 : 0);
      if (s.has_range) {
        PutF64(&footer, s.min);
        PutF64(&footer, s.max);
      }
      PutVarint(&footer, s.null_count);
    }
  }
  std::vector<uint8_t> trailer;
  PutU32(&trailer, static_cast<uint32_t>(footer.size()));
  PutU32(&trailer, rpc::Crc32(footer.data(), footer.size()));

  auto* out = static_cast<std::ofstream*>(out_);
  out->write(reinterpret_cast<const char*>(footer.data()),
             static_cast<std::streamsize>(footer.size()));
  out->write(reinterpret_cast<const char*>(trailer.data()),
             static_cast<std::streamsize>(trailer.size()));
  out->close();
  if (!*out) return Status::IOError(StrCat("failed finishing '", path_, "'"));
  return Status::OK();
}

Status WriteChunkFile(const Table& table, const std::string& path,
                      size_t chunk_rows) {
  ChunkFileWriter writer(path, table.schema(), chunk_rows);
  SKALLA_RETURN_NOT_OK(writer.AppendTable(table));
  return writer.Finish();
}

// --- ChunkFile -------------------------------------------------------------

ChunkFile::~ChunkFile() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::shared_ptr<const ChunkFile>> ChunkFile::Open(std::string path) {
  auto file = std::make_shared<ChunkFile>();
  file->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file->fd_ < 0) {
    return Status::IOError(StrCat("cannot open '", path, "' for reading"));
  }
  file->path_ = std::move(path);
  const std::string& name = file->path_;
  struct stat st;
  if (::fstat(file->fd_, &st) != 0) {
    return Status::IOError(StrCat("cannot stat '", name, "'"));
  }
  const auto file_size = static_cast<uint64_t>(st.st_size);
  char magic[sizeof(kChunkMagic)];
  if (file_size < sizeof(kChunkMagic) + 8 ||
      !PreadFully(file->fd_, reinterpret_cast<uint8_t*>(magic),
                  sizeof(magic), 0, name)
           .ok()) {
    return Status::IOError(StrCat("'", name, "' is not a chunk file"));
  }
  if (std::memcmp(magic, kChunkMagicV1, sizeof(magic)) == 0) {
    return Status::IOError(
        StrCat("'", name, "' is a format 1 chunk file; this build reads "
                          "format 2 only: re-save it (skalla-dataset or "
                          "DistributedWarehouse::SaveChunked)"));
  }
  if (std::memcmp(magic, kChunkMagic, sizeof(magic)) != 0) {
    return Status::IOError(StrCat("'", name, "' is not a chunk file"));
  }
  uint8_t trailer[8];
  SKALLA_RETURN_NOT_OK(
      PreadFully(file->fd_, trailer, 8, file_size - 8, name));
  const uint32_t footer_len = GetU32(trailer);
  const uint32_t footer_crc = GetU32(trailer + 4);
  if (footer_len + 8ull + sizeof(kChunkMagic) > file_size) {
    return Status::IOError(StrCat("'", name, "' has a truncated footer"));
  }
  const uint64_t payload_end = file_size - 8 - footer_len;
  std::vector<uint8_t> footer(footer_len);
  SKALLA_RETURN_NOT_OK(
      PreadFully(file->fd_, footer.data(), footer_len, payload_end, name));
  if (rpc::Crc32(footer.data(), footer.size()) != footer_crc) {
    return Status::IOError(
        StrCat("footer checksum mismatch in '", name, "'"));
  }

  ByteReader reader(footer.data(), footer.size());
  SKALLA_ASSIGN_OR_RETURN(file->schema_, DecodeSchema(&reader));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  file->num_rows_ = num_rows;
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_chunks, reader.ReadVarint());
  const size_t num_columns = file->schema_->num_fields();
  // Every directory entry takes more than one footer byte.
  if (num_chunks > reader.remaining()) {
    return Status::IOError(
        StrCat("'", name, "' announces ", num_chunks, " chunks"));
  }
  auto bad_entry = [&](uint64_t i, const char* what) {
    return Status::IOError(
        StrCat("chunk ", i, " of '", name, "' has an impossible directory "
                                           "entry: ",
               what));
  };
  file->entries_.reserve(num_chunks);
  uint64_t next_row = 0;
  uint64_t chunk_floor = sizeof(kChunkMagic);  // end of the previous chunk
  for (uint64_t i = 0; i < num_chunks; ++i) {
    ChunkEntry entry;
    SKALLA_ASSIGN_OR_RETURN(uint64_t row_begin, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(uint64_t row_count, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(entry.offset, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(entry.length, reader.ReadVarint());
    if (row_begin != next_row || row_count > num_rows - next_row) {
      return bad_entry(i, "rows do not continue the previous chunk's");
    }
    // Chunk regions lie in ascending order between the magic and the
    // footer, before any page sizes anything from them.
    if (entry.offset < chunk_floor || entry.offset > payload_end ||
        entry.length > payload_end - entry.offset) {
      return bad_entry(i, "chunk outside the page region");
    }
    const uint64_t chunk_end = entry.offset + entry.length;
    if (num_columns == 0 && row_count != 0) {
      return bad_entry(i, "rows without columns");
    }
    entry.row_begin = row_begin;
    entry.row_count = row_count;
    entry.pages.resize(num_columns);
    entry.column_stats.resize(num_columns);
    uint64_t page_floor = entry.offset;  // end of the previous page
    for (size_t c = 0; c < num_columns; ++c) {
      PageExtent& page = entry.pages[c];
      SKALLA_ASSIGN_OR_RETURN(page.offset, reader.ReadVarint());
      SKALLA_ASSIGN_OR_RETURN(page.length, reader.ReadVarint());
      if (page.offset < page_floor) {
        return bad_entry(i, "page overlaps the previous page");
      }
      if (page.offset > chunk_end || page.length > chunk_end - page.offset) {
        return bad_entry(i, "page outside its chunk");
      }
      // At least one byte per cell.
      if (row_count > page.length) {
        return bad_entry(i, "more cells than page bytes");
      }
      page_floor = page.offset + page.length;
      SKALLA_ASSIGN_OR_RETURN(const uint8_t* crc_bytes, reader.ReadBytes(4));
      page.crc = GetU32(crc_bytes);
      ChunkColumnStats& s = entry.column_stats[c];
      SKALLA_ASSIGN_OR_RETURN(uint8_t has_range, reader.ReadByte());
      s.has_range = has_range != 0;
      if (s.has_range) {
        SKALLA_ASSIGN_OR_RETURN(s.min, ReadF64(&reader));
        SKALLA_ASSIGN_OR_RETURN(s.max, ReadF64(&reader));
      }
      SKALLA_ASSIGN_OR_RETURN(s.null_count, reader.ReadVarint());
    }
    next_row += row_count;
    chunk_floor = chunk_end;
    file->entries_.push_back(std::move(entry));
  }
  if (next_row != num_rows) {
    return Status::IOError(StrCat("'", name, "' announces ", num_rows,
                                  " rows but its chunks hold ", next_row));
  }
  if (reader.remaining() != 0) {
    return Status::IOError(StrCat("trailing footer bytes in '", name, "'"));
  }
  return std::shared_ptr<const ChunkFile>(std::move(file));
}

Result<PagePtr> ChunkFile::ReadPage(size_t i, size_t column) const {
  const ChunkEntry& entry = entries_[i];
  const PageExtent& extent = entry.pages[column];
  std::vector<uint8_t> payload(extent.length);
  SKALLA_RETURN_NOT_OK(PreadFully(fd_, payload.data(), extent.length,
                                  extent.offset, path_));
  if (rpc::Crc32(payload.data(), payload.size()) != extent.crc) {
    return Status::IOError(StrCat("checksum mismatch in column ", column,
                                  " of chunk ", i, " of '", path_, "'"));
  }
  ByteReader reader(payload.data(), payload.size());
  Column col(schema_->field(column).type);
  col.Reserve(entry.row_count);
  for (size_t r = 0; r < entry.row_count; ++r) {
    SKALLA_RETURN_NOT_OK(ReadCell(&reader, &col));
  }
  if (reader.remaining() != 0) {
    return Status::IOError(StrCat("trailing bytes after column ", column,
                                  " of chunk ", i, " of '", path_, "'"));
  }
  return std::make_shared<const ColumnPage>(std::move(col));
}

Result<std::vector<PagePtr>> ChunkFile::ReadPages(
    size_t i, const std::vector<size_t>& columns) const {
  if (i >= entries_.size()) {
    return Status::InvalidArgument(
        StrCat("chunk ", i, " out of range (file has ", entries_.size(),
               " chunks)"));
  }
  std::vector<PagePtr> pages;
  pages.reserve(columns.size());
  for (size_t c : columns) {
    if (c >= schema_->num_fields()) {
      return Status::InvalidArgument(
          StrCat("column ", c, " out of range in '", path_, "'"));
    }
    SKALLA_ASSIGN_OR_RETURN(PagePtr page, ReadPage(i, c));
    pages.push_back(std::move(page));
  }
  return pages;
}

Result<ChunkPtr> ChunkFile::ReadChunk(size_t i) const {
  std::vector<size_t> all(schema_->num_fields());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  SKALLA_ASSIGN_OR_RETURN(std::vector<PagePtr> pages, ReadPages(i, all));
  const ChunkEntry& entry = entries_[i];
  return Chunk::FromPages(
      schema_, entry.row_begin, entry.row_count, std::move(pages),
      std::make_shared<const std::vector<ChunkColumnStats>>(
          entry.column_stats));
}

}  // namespace skalla
