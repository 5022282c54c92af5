// Binary (de)serialization of rows and tables. Every transfer between
// Skalla sites and the coordinator serializes through this module, so the
// byte counts reported by the simulated network are real encoded sizes,
// not estimates.
//
// Wire format (little-endian, varint-based):
//   table   := field_count:varint field* row_count:varint row*
//   field   := name_len:varint name_bytes type:u8
//   row     := cell*                          (arity from schema)
//   cell    := type:u8 payload
//   payload := (null: empty) | (int64: zigzag varint)
//            | (float64: 8 raw bytes) | (string: len:varint bytes)

#ifndef SKALLA_NET_SERDE_H_
#define SKALLA_NET_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "storage/table.h"

namespace skalla {

/// Appends a varint-encoded unsigned integer to `out`.
void PutVarint(std::vector<uint8_t>* out, uint64_t v);

/// Zigzag encoding for signed integers.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Cursor over an encoded buffer. The reads are inline: chunk decode
/// calls them once or twice per cell.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Status::IOError("truncated varint");
      uint8_t b = data_[pos_++];
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      if (shift >= 64) return Status::IOError("varint too long");
    }
  }
  Result<uint8_t> ReadByte() {
    if (pos_ >= size_) return Status::IOError("truncated buffer");
    return data_[pos_++];
  }
  /// Reads a varint element count that sizes an allocation. Every
  /// element takes at least one byte, so a count larger than the bytes
  /// left is a corrupt or hostile length: IOError, never a huge reserve.
  Result<uint64_t> ReadCount() {
    Result<uint64_t> count = ReadVarint();
    if (count.ok() && *count > remaining()) {
      return Status::IOError("element count exceeds the remaining bytes");
    }
    return count;
  }
  /// Reads `n` raw bytes; the returned pointer aliases the buffer.
  Result<const uint8_t*> ReadBytes(size_t n) {
    if (n > size_ - pos_) return Status::IOError("truncated buffer");
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Appends one value (type tag + payload per the cell format above).
void WriteValue(std::vector<uint8_t>* out, const Value& v);

/// The IOError for a cell whose type tag names no ValueType.
Status BadValueTagError(uint8_t tag);

/// Decodes one cell written by WriteValue and hands its payload to the
/// matching `sink` method: AppendNull(), AppendInt64(int64_t),
/// AppendFloat64(double) or AppendString(std::string_view). Truncation,
/// bad tags and over-long varints are IOError; a sink's own Status is
/// returned as is. A Column is a sink, so chunk decode fills typed
/// vectors with no Value in between.
template <typename Sink>
Status ReadCell(ByteReader* reader, Sink* sink) {
  SKALLA_ASSIGN_OR_RETURN(uint8_t tag, reader->ReadByte());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      sink->AppendNull();
      return Status::OK();
    case ValueType::kInt64: {
      SKALLA_ASSIGN_OR_RETURN(uint64_t raw, reader->ReadVarint());
      return sink->AppendInt64(ZigzagDecode(raw));
    }
    case ValueType::kFloat64: {
      SKALLA_ASSIGN_OR_RETURN(const uint8_t* raw, reader->ReadBytes(8));
      double d;
      std::memcpy(&d, raw, 8);
      return sink->AppendFloat64(d);
    }
    case ValueType::kString: {
      SKALLA_ASSIGN_OR_RETURN(uint64_t len, reader->ReadVarint());
      SKALLA_ASSIGN_OR_RETURN(const uint8_t* bytes, reader->ReadBytes(len));
      return sink->AppendString(
          std::string_view(reinterpret_cast<const char*>(bytes), len));
    }
  }
  return BadValueTagError(tag);
}

/// Reads one value written by WriteValue.
Result<Value> ReadValue(ByteReader* reader);

/// Serializes a full table (schema + rows).
void WriteTable(const Table& table, std::vector<uint8_t>* out);

/// Deserializes a table written by WriteTable.
Result<Table> ReadTable(const uint8_t* data, size_t size);

/// The exact encoded size of `table`, without materializing the buffer
/// (used for byte accounting on the hot path).
uint64_t SerializedTableSize(const Table& table);

}  // namespace skalla

#endif  // SKALLA_NET_SERDE_H_
