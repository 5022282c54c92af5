#include "storage/chunk_file.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "net/serde.h"
#include "rpc/frame.h"

namespace skalla {

namespace {

constexpr char kChunkMagic[8] = {'S', 'K', 'A', 'L', 'L', 'A', 'C', '1'};

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

// Serializes chunk `payload` (cells column-major) from typed pages.
void EncodeChunkPayload(const Chunk& chunk, std::vector<uint8_t>* out) {
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const Column& col = chunk.column(c);
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      WriteValue(out, col.GetValue(r));
    }
  }
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
  std::vector<uint8_t> payload;
  EncodeChunkPayload(*chunk, &payload);

  ChunkEntry entry;
  entry.row_begin = rows_written_ - n;
  entry.row_count = n;
  entry.offset = write_offset_;
  entry.length = payload.size();
  entry.crc = rpc::Crc32(payload.data(), payload.size());
  entry.column_stats.reserve(chunk->num_columns());
  for (size_t c = 0; c < chunk->num_columns(); ++c) {
    entry.column_stats.push_back(chunk->column_stats(c));
  }
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
    PutU32(&footer, entry.crc);
    for (const ChunkColumnStats& s : entry.column_stats) {
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

Result<std::shared_ptr<const ChunkFile>> ChunkFile::Open(std::string path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrCat("cannot open '", path, "' for reading"));
  }
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<uint64_t>(in.tellg());
  if (file_size < sizeof(kChunkMagic) + 8) {
    return Status::IOError(StrCat("'", path, "' is not a chunk file"));
  }
  char magic[sizeof(kChunkMagic)];
  in.seekg(0);
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kChunkMagic, sizeof(magic)) != 0) {
    return Status::IOError(StrCat("'", path, "' is not a chunk file"));
  }
  uint8_t trailer[8];
  in.seekg(static_cast<std::streamoff>(file_size - 8));
  in.read(reinterpret_cast<char*>(trailer), 8);
  if (!in) return Status::IOError(StrCat("failed reading '", path, "'"));
  const uint32_t footer_len = GetU32(trailer);
  const uint32_t footer_crc = GetU32(trailer + 4);
  if (footer_len + 8ull + sizeof(kChunkMagic) > file_size) {
    return Status::IOError(StrCat("'", path, "' has a truncated footer"));
  }
  std::vector<uint8_t> footer(footer_len);
  in.seekg(static_cast<std::streamoff>(file_size - 8 - footer_len));
  in.read(reinterpret_cast<char*>(footer.data()), footer_len);
  if (!in) return Status::IOError(StrCat("failed reading '", path, "'"));
  if (rpc::Crc32(footer.data(), footer.size()) != footer_crc) {
    return Status::IOError(
        StrCat("footer checksum mismatch in '", path, "'"));
  }

  auto file = std::make_shared<ChunkFile>();
  file->path_ = std::move(path);
  ByteReader reader(footer.data(), footer.size());
  SKALLA_ASSIGN_OR_RETURN(file->schema_, DecodeSchema(&reader));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  file->num_rows_ = num_rows;
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_chunks, reader.ReadVarint());
  const size_t num_columns = file->schema_->num_fields();
  // Every directory entry takes more than one footer byte.
  if (num_chunks > reader.remaining()) {
    return Status::IOError(
        StrCat("'", file->path_, "' announces ", num_chunks, " chunks"));
  }
  const uint64_t payload_end = file_size - 8 - footer_len;
  file->entries_.reserve(num_chunks);
  for (uint64_t i = 0; i < num_chunks; ++i) {
    ChunkEntry entry;
    SKALLA_ASSIGN_OR_RETURN(uint64_t row_begin, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(uint64_t row_count, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(entry.offset, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(entry.length, reader.ReadVarint());
    // The payload must lie between the magic and the footer, and hold at
    // least one byte per cell, before ReadChunk sizes anything from it.
    if (entry.offset < sizeof(kChunkMagic) || entry.offset > payload_end ||
        entry.length > payload_end - entry.offset ||
        (num_columns != 0 && row_count > entry.length / num_columns)) {
      return Status::IOError(StrCat("chunk ", i, " of '", file->path_,
                                    "' has an impossible directory entry"));
    }
    entry.row_begin = row_begin;
    entry.row_count = row_count;
    SKALLA_ASSIGN_OR_RETURN(const uint8_t* crc_bytes, reader.ReadBytes(4));
    entry.crc = GetU32(crc_bytes);
    entry.column_stats.resize(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      ChunkColumnStats& s = entry.column_stats[c];
      SKALLA_ASSIGN_OR_RETURN(uint8_t has_range, reader.ReadByte());
      s.has_range = has_range != 0;
      if (s.has_range) {
        SKALLA_ASSIGN_OR_RETURN(s.min, ReadF64(&reader));
        SKALLA_ASSIGN_OR_RETURN(s.max, ReadF64(&reader));
      }
      SKALLA_ASSIGN_OR_RETURN(s.null_count, reader.ReadVarint());
    }
    file->entries_.push_back(std::move(entry));
  }
  return std::shared_ptr<const ChunkFile>(std::move(file));
}

Result<ChunkPtr> ChunkFile::ReadChunk(size_t i) const {
  if (i >= entries_.size()) {
    return Status::InvalidArgument(
        StrCat("chunk ", i, " out of range (file has ", entries_.size(),
               " chunks)"));
  }
  const ChunkEntry& entry = entries_[i];
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    return Status::IOError(StrCat("cannot open '", path_, "' for reading"));
  }
  std::vector<uint8_t> payload(entry.length);
  in.seekg(static_cast<std::streamoff>(entry.offset));
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(entry.length));
  if (!in) {
    return Status::IOError(
        StrCat("failed reading chunk ", i, " of '", path_, "'"));
  }
  if (rpc::Crc32(payload.data(), payload.size()) != entry.crc) {
    return Status::IOError(
        StrCat("checksum mismatch in chunk ", i, " of '", path_, "'"));
  }
  ByteReader reader(payload.data(), payload.size());
  std::vector<Column> columns;
  columns.reserve(schema_->num_fields());
  for (size_t c = 0; c < schema_->num_fields(); ++c) {
    Column col(schema_->field(c).type);
    col.Reserve(entry.row_count);
    for (size_t r = 0; r < entry.row_count; ++r) {
      SKALLA_RETURN_NOT_OK(ReadCell(&reader, &col));
    }
    columns.push_back(std::move(col));
  }
  if (reader.remaining() != 0) {
    return Status::IOError(
        StrCat("trailing bytes after chunk ", i, " of '", path_, "'"));
  }
  return Chunk::FromColumns(schema_, entry.row_begin, std::move(columns),
                            entry.column_stats);
}

}  // namespace skalla
