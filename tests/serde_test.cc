// Serialization round-trips, exact size accounting, and corrupted-input
// handling, including lengths that would size an allocation past the
// bytes actually present.

#include "net/serde.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/tpcr_gen.h"

namespace skalla {
namespace {

Table SampleTable() {
  SchemaPtr schema = Schema::Make({{"id", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"score", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  t.Append({Value(1), Value("alpha"), Value(1.5)}).Check();
  t.Append({Value(-42), Value(""), Value::Null()}).Check();
  t.Append({Value::Null(), Value("beta"), Value(-0.25)}).Check();
  return t;
}

TEST(SerdeTest, ZigzagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 40,
                    -(int64_t{1} << 40), INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Zigzag keeps small magnitudes small.
  EXPECT_LT(ZigzagEncode(-1), 2u);
  EXPECT_LT(ZigzagEncode(1), 3u);
}

TEST(SerdeTest, TableRoundTrip) {
  Table original = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(original, &buffer);
  Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
  EXPECT_TRUE(decoded.SameRows(original));
  EXPECT_TRUE(decoded.schema()->Equals(*original.schema()));
}

TEST(SerdeTest, EmptyTableRoundTrip) {
  Table empty(SampleTable().schema());
  std::vector<uint8_t> buffer;
  WriteTable(empty, &buffer);
  Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
  EXPECT_EQ(decoded.num_rows(), 0u);
  EXPECT_EQ(decoded.num_columns(), 3u);
}

TEST(SerdeTest, SerializedTableSizeIsExact) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  EXPECT_EQ(SerializedTableSize(t), buffer.size());

  TpcrConfig config;
  config.num_rows = 500;
  Table tpcr = GenerateTpcr(config);
  buffer.clear();
  WriteTable(tpcr, &buffer);
  EXPECT_EQ(SerializedTableSize(tpcr), buffer.size());
}

TEST(SerdeTest, TruncatedBufferFails) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  for (size_t cut : {buffer.size() - 1, buffer.size() / 2, size_t{1},
                     size_t{0}}) {
    auto decoded = ReadTable(buffer.data(), cut);
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_TRUE(decoded.status().IsIOError()) << "cut=" << cut;
  }
}

TEST(SerdeTest, TrailingGarbageFails) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  buffer.push_back(0x00);
  auto decoded = ReadTable(buffer.data(), buffer.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(SerdeTest, BadTypeTagFails) {
  Table t = SampleTable();
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  // Find the first cell type tag after the header and corrupt it. The
  // header is: nfields varint, then per field name-len + name + type. We
  // instead corrupt every byte in turn and require "no crash, and either
  // failure or a decode" — a light fuzz.
  int failures = 0;
  for (size_t i = 0; i < buffer.size(); ++i) {
    std::vector<uint8_t> corrupted = buffer;
    corrupted[i] = 0xff;
    auto decoded = ReadTable(corrupted.data(), corrupted.size());
    if (!decoded.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

// The encoded header of a table with `num_fields` INT64 columns and no
// rows yet; the caller appends the row count and the cells.
std::vector<uint8_t> Int64TableHeader(size_t num_fields) {
  std::vector<uint8_t> buffer;
  PutVarint(&buffer, num_fields);
  for (size_t f = 0; f < num_fields; ++f) {
    PutVarint(&buffer, 1);
    buffer.push_back(static_cast<uint8_t>('a' + f));
    buffer.push_back(static_cast<uint8_t>(ValueType::kInt64));
  }
  return buffer;
}

TEST(SerdeTest, RowCountBeyondRemainingBytesFailsBeforeAllocating) {
  // Two columns, three bytes of cells, 2^40 rows announced: rejected from
  // the count, before a 2^40-row reservation could be attempted.
  std::vector<uint8_t> buffer = Int64TableHeader(2);
  PutVarint(&buffer, uint64_t{1} << 40);
  buffer.insert(buffer.end(), {static_cast<uint8_t>(ValueType::kInt64), 2,
                               static_cast<uint8_t>(ValueType::kNull)});
  auto decoded = ReadTable(buffer.data(), buffer.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status().ToString();

  // The same cells under an honest count decode.
  buffer = Int64TableHeader(2);
  PutVarint(&buffer, 1);
  buffer.insert(buffer.end(), {static_cast<uint8_t>(ValueType::kInt64), 2,
                               static_cast<uint8_t>(ValueType::kNull)});
  decoded = ReadTable(buffer.data(), buffer.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_rows(), 1u);
  EXPECT_EQ(decoded->at(0, 0).int64(), 1);
  EXPECT_TRUE(decoded->at(0, 1).is_null());
}

TEST(SerdeTest, ZeroColumnTables) {
  // A zero-column table's rows take no bytes: a plausible count
  // round-trips, an absurd one is refused instead of looping.
  SchemaPtr schema = Schema::Make({}).ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({});
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
  EXPECT_EQ(decoded.num_rows(), 1u);
  EXPECT_EQ(decoded.num_columns(), 0u);

  buffer = Int64TableHeader(0);
  PutVarint(&buffer, uint64_t{1} << 62);
  auto absurd = ReadTable(buffer.data(), buffer.size());
  ASSERT_FALSE(absurd.ok());
  EXPECT_TRUE(absurd.status().IsIOError());
}

TEST(SerdeTest, StringLengthPastTheEndFails) {
  // Lengths near 2^64 must not wrap the reader's bounds check.
  for (uint64_t len : {uint64_t{100}, ~uint64_t{0}, ~uint64_t{0} - 2}) {
    std::vector<uint8_t> cell = {static_cast<uint8_t>(ValueType::kString)};
    PutVarint(&cell, len);
    cell.insert(cell.end(), {'x', 'y'});
    ByteReader reader(cell.data(), cell.size());
    Result<Value> v = ReadValue(&reader);
    ASSERT_FALSE(v.ok()) << len;
    EXPECT_TRUE(v.status().IsIOError()) << v.status().ToString();
  }
}

TEST(SerdeTest, RandomTablesRoundTrip) {
  Random rng(99);
  for (int iter = 0; iter < 10; ++iter) {
    size_t cols = 1 + rng.Uniform(5);
    std::vector<Field> fields;
    for (size_t c = 0; c < cols; ++c) {
      ValueType t = static_cast<ValueType>(1 + rng.Uniform(3));
      fields.push_back(Field{std::string(1, static_cast<char>('a' + c)), t});
    }
    Table table(Schema::Make(std::move(fields)).ValueOrDie());
    size_t rows = rng.Uniform(60);
    for (size_t r = 0; r < rows; ++r) {
      Row row;
      for (size_t c = 0; c < cols; ++c) {
        if (rng.Bernoulli(0.15)) {
          row.push_back(Value::Null());
          continue;
        }
        switch (table.schema()->field(c).type) {
          case ValueType::kInt64:
            row.push_back(Value(static_cast<int64_t>(rng.Next())));
            break;
          case ValueType::kFloat64:
            row.push_back(Value(rng.NextDouble() * 1e6 - 5e5));
            break;
          default:
            row.push_back(Value(rng.NextString(rng.Uniform(20))));
            break;
        }
      }
      table.AppendUnchecked(std::move(row));
    }
    std::vector<uint8_t> buffer;
    WriteTable(table, &buffer);
    EXPECT_EQ(buffer.size(), SerializedTableSize(table));
    Table decoded = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
    // NB: SameRows treats INT64/FLOAT64 holding the same value as equal,
    // which is fine — serialization preserves the exact representation,
    // checked via schema equality.
    EXPECT_TRUE(decoded.SameRows(table));
    EXPECT_TRUE(decoded.schema()->Equals(*table.schema()));
  }
}

}  // namespace
}  // namespace skalla
