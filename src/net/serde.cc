#include "net/serde.h"

#include <cstring>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

namespace {

// The most rows ReadTable accepts for a table without columns.
constexpr uint64_t kMaxZeroColumnRows = uint64_t{1} << 20;

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

uint64_t ValueSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
      return 1 + VarintSize(ZigzagEncode(v.int64()));
    case ValueType::kFloat64:
      return 1 + 8;
    case ValueType::kString:
      return 1 + VarintSize(v.str().size()) + v.str().size();
  }
  return 1;
}

// The ReadCell sink behind ReadValue: boxes the one cell it receives.
struct ValueSink {
  Value value;

  void AppendNull() {}
  Status AppendInt64(int64_t v) {
    value = Value(v);
    return Status::OK();
  }
  Status AppendFloat64(double v) {
    value = Value(v);
    return Status::OK();
  }
  Status AppendString(std::string_view v) {
    value = Value(std::string(v));
    return Status::OK();
  }
};

}  // namespace

void WriteValue(std::vector<uint8_t>* out, const Value& v) {
  out->push_back(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      return;
    case ValueType::kInt64:
      PutVarint(out, ZigzagEncode(v.int64()));
      return;
    case ValueType::kFloat64: {
      double d = v.float64();
      uint8_t raw[8];
      std::memcpy(raw, &d, 8);
      out->insert(out->end(), raw, raw + 8);
      return;
    }
    case ValueType::kString: {
      const std::string& s = v.str();
      PutVarint(out, s.size());
      out->insert(out->end(), s.begin(), s.end());
      return;
    }
  }
}

Status BadValueTagError(uint8_t tag) {
  return Status::IOError(StrCat("bad value type tag ", int{tag}));
}

Result<Value> ReadValue(ByteReader* reader) {
  ValueSink sink;
  SKALLA_RETURN_NOT_OK(ReadCell(reader, &sink));
  return std::move(sink.value);
}

void WriteTable(const Table& table, std::vector<uint8_t>* out) {
  const Schema& schema = *table.schema();
  PutVarint(out, schema.num_fields());
  for (const Field& f : schema.fields()) {
    PutVarint(out, f.name.size());
    out->insert(out->end(), f.name.begin(), f.name.end());
    out->push_back(static_cast<uint8_t>(f.type));
  }
  PutVarint(out, table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const Value& v : table.row(r)) WriteValue(out, v);
  }
}

Result<Table> ReadTable(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_fields, reader.ReadVarint());
  if (num_fields > 1u << 20) return Status::IOError("implausible field count");
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    SKALLA_ASSIGN_OR_RETURN(uint64_t name_len, reader.ReadVarint());
    SKALLA_ASSIGN_OR_RETURN(const uint8_t* name_bytes,
                            reader.ReadBytes(name_len));
    SKALLA_ASSIGN_OR_RETURN(uint8_t type, reader.ReadByte());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IOError(StrCat("bad field type tag ", int{type}));
    }
    fields.push_back(
        Field{std::string(reinterpret_cast<const char*>(name_bytes),
                          name_len),
              static_cast<ValueType>(type)});
  }
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr schema, Schema::Make(std::move(fields)));
  SKALLA_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadVarint());
  // Every cell takes at least one byte, so a row count the remaining
  // bytes cannot hold is rejected before it sizes an allocation. Rows of
  // a zero-column table take no bytes at all; their count gets a fixed
  // cap instead.
  const uint64_t max_rows = num_fields == 0
                                ? kMaxZeroColumnRows
                                : reader.remaining() / num_fields;
  if (num_rows > max_rows) {
    return Status::IOError(StrCat("table announces ", num_rows, " rows of ",
                                  num_fields, " cells in ",
                                  reader.remaining(), " bytes"));
  }
  Table table(schema);
  table.Reserve(num_rows);
  for (uint64_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(num_fields);
    for (uint64_t c = 0; c < num_fields; ++c) {
      SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(&reader));
      row.push_back(std::move(v));
    }
    table.AppendUnchecked(std::move(row));
  }
  if (reader.remaining() != 0) {
    return Status::IOError("trailing bytes after table payload");
  }
  return table;
}

uint64_t SerializedTableSize(const Table& table) {
  const Schema& schema = *table.schema();
  uint64_t size = VarintSize(schema.num_fields());
  for (const Field& f : schema.fields()) {
    size += VarintSize(f.name.size()) + f.name.size() + 1;
  }
  size += VarintSize(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (const Value& v : table.row(r)) size += ValueSize(v);
  }
  return size;
}

}  // namespace skalla
