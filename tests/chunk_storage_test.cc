// The disk-backed storage subsystem end to end: chunk file round trips,
// per-page CRC corruption detection, the typed page decoder against
// Chunk::Build and against hostile payloads and directories, kernels
// loading only the column pages they reference, byte-identical
// chunk-paged evaluation at any buffer budget, chunked warehouse
// save/load, and storage-reload data epochs.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/evaluate.h"
#include "core/local_eval.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "rpc/frame.h"
#include "sql/parser.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"
#include "storage/partition.h"

namespace skalla {
namespace {

Table MakeDetail(int64_t salt, size_t rows = 900) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"v", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    int64_t n = salt + static_cast<int64_t>(i);
    t.AppendUnchecked({Value(n % 13), Value("name-" + std::to_string(n % 7)),
                       Value(static_cast<double>(n % 101) / 4.0)});
  }
  return t;
}

std::vector<uint8_t> TableBytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

GmdjExpr TestQuery() {
  return ParseQuery(R"(
    BASE SELECT DISTINCT g FROM d;
    MD USING d COMPUTE COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo
       WHERE r.g = b.g;
    MD USING d COMPUTE COUNT(*) AS above
       WHERE r.g = b.g AND r.v >= b.s / b.c;
  )").ValueOrDie();
}

class ChunkStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_chunk_storage_test";
    mkdir(dir_.c_str(), 0755);
  }

  std::string Path(const std::string& file) { return dir_ + "/" + file; }

  std::string dir_;
};

TEST_F(ChunkStorageTest, ChunkFileRoundTrip) {
  Table original = MakeDetail(5);
  const std::string path = Path("roundtrip.skc");
  WriteChunkFile(original, path, /*chunk_rows=*/128).Check();

  auto file = ChunkFile::Open(path).ValueOrDie();
  EXPECT_EQ(file->num_rows(), original.num_rows());
  EXPECT_EQ(file->num_chunks(), (original.num_rows() + 127) / 128);

  // Boxing every chunk row reproduces the table exactly, in order.
  Table rebuilt(file->schema());
  for (size_t c = 0; c < file->num_chunks(); ++c) {
    ChunkPtr chunk = file->ReadChunk(c).ValueOrDie();
    EXPECT_EQ(chunk->row_begin(), c * 128);
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      rebuilt.AppendUnchecked(chunk->BoxRow(r));
    }
  }
  EXPECT_EQ(TableBytes(rebuilt), TableBytes(original));

  // Numeric column stats survive the round trip.
  ChunkPtr first = file->ReadChunk(0).ValueOrDie();
  const ChunkColumnStats& g_stats = first->column_stats(0);
  EXPECT_TRUE(g_stats.has_range);
  EXPECT_GE(g_stats.min, 0.0);
  EXPECT_LE(g_stats.max, 12.0);
  EXPECT_FALSE(first->column_stats(1).has_range);  // string column
}

TEST_F(ChunkStorageTest, CorruptionIsDetected) {
  Table original = MakeDetail(9, 300);
  const std::string path = Path("corrupt.skc");
  WriteChunkFile(original, path, /*chunk_rows=*/100).Check();
  auto clean = ChunkFile::Open(path).ValueOrDie();
  const ChunkEntry& target = clean->entry(1);

  // Flip one payload byte: that chunk (and only that chunk) fails CRC.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(target.offset + target.length / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(target.offset + target.length / 2));
    f.write(&byte, 1);
  }
  auto damaged = ChunkFile::Open(path).ValueOrDie();  // footer still fine
  EXPECT_TRUE(damaged->ReadChunk(0).ok());
  EXPECT_TRUE(damaged->ReadChunk(1).status().IsIOError());

  // Each page carries its own CRC: flipping a byte of one column's page
  // fails exactly that page, and the chunk's other pages still read.
  WriteChunkFile(original, path, /*chunk_rows=*/100).Check();
  const PageExtent page = clean->entry(1).pages[2];
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(page.offset + page.length / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(page.offset + page.length / 2));
    f.write(&byte, 1);
  }
  auto one_page = ChunkFile::Open(path).ValueOrDie();
  EXPECT_TRUE(one_page->ReadPages(1, {2}).status().IsIOError());
  EXPECT_TRUE(one_page->ReadPages(1, {0, 1}).ok());
  EXPECT_TRUE(one_page->ReadPages(0, {2}).ok());
  EXPECT_TRUE(one_page->ReadPages(1, {3}).status().IsInvalidArgument());

  // Truncate into the footer: the file no longer opens at all.
  const std::string truncated = Path("truncated.skc");
  WriteChunkFile(original, truncated, /*chunk_rows=*/100).Check();
  {
    std::ifstream in(truncated, std::ios::binary | std::ios::ate);
    auto size = static_cast<size_t>(in.tellg());
    in.seekg(0);
    std::vector<char> bytes(size - 6);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(truncated, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ChunkFile::Open(truncated).ok());
}

// Every cell of `chunk`, column-major, in the chunk payload encoding:
// equal bytes mean equal types, NULLs and bit patterns (NaN, -0.0).
std::vector<uint8_t> CellBytes(const Chunk& chunk) {
  std::vector<uint8_t> bytes;
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      WriteValue(&bytes, chunk.column(c).GetValue(r));
    }
  }
  return bytes;
}

TEST_F(ChunkStorageTest, TypedDecodeMatchesChunkBuildForEveryType) {
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                   {"f", ValueType::kFloat64},
                                   {"s", ValueType::kString}})
                         .ValueOrDie();
  Table t(schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  t.AppendUnchecked({Value(INT64_MIN), Value(-0.0), Value("")});
  t.AppendUnchecked({Value(INT64_MAX), Value(nan), Value::Null()});
  t.AppendUnchecked({Value::Null(), Value::Null(), Value("x")});
  t.AppendUnchecked({Value(0), Value(1e308), Value(std::string(300, 'z'))});
  t.AppendUnchecked({Value(-1), Value(-5e-324), Value("tab\there")});
  // Cross-type cells Column::Append accepts: an integral FLOAT64 in the
  // INT64 column, an INT64 in the FLOAT64 column.
  t.AppendUnchecked({Value(42.0), Value(int64_t{7}), Value("y")});
  const std::string path = Path("types.skc");
  WriteChunkFile(t, path, /*chunk_rows=*/4).Check();

  auto file = ChunkFile::Open(path).ValueOrDie();
  ASSERT_EQ(file->num_chunks(), 2u);
  for (size_t c = 0; c < file->num_chunks(); ++c) {
    ChunkPtr read = file->ReadChunk(c).ValueOrDie();
    ChunkPtr built =
        Chunk::Build(t, c * 4, std::min<size_t>(4, t.num_rows() - c * 4))
            .ValueOrDie();
    ASSERT_EQ(read->num_rows(), built->num_rows());
    EXPECT_EQ(CellBytes(*read), CellBytes(*built)) << "chunk " << c;
    EXPECT_EQ(read->byte_size(), built->byte_size());
    for (size_t col = 0; col < read->num_columns(); ++col) {
      EXPECT_EQ(read->column(col).type(), built->column(col).type());
      EXPECT_EQ(read->column_stats(col).null_count,
                built->column_stats(col).null_count);
    }
  }
}

// Directory overrides for WriteRawChunkFile; unset fields take the
// values the writer would record.
struct RawOverrides {
  std::optional<uint64_t> num_rows;
  std::optional<uint64_t> row_begin;
  std::optional<uint64_t> chunk_offset;
  std::optional<uint64_t> chunk_length;
  size_t page = 0;  // the page the two fields below override
  std::optional<uint64_t> page_offset;
  std::optional<uint64_t> page_length;
};

// Writes a format 2 file with one chunk of `row_count` rows around
// hand-made pages (one per column), with the page and footer CRCs
// computed as the writer would.
void WriteRawChunkFile(const std::string& path, const Schema& schema,
                       size_t row_count,
                       const std::vector<std::vector<uint8_t>>& pages,
                       const RawOverrides& o = {}) {
  auto put_u32 = [](std::vector<uint8_t>* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<uint8_t>(v >> 8 * i));
    }
  };
  std::vector<uint8_t> file = {'S', 'K', 'A', 'L', 'L', 'A', 'C', '2'};
  std::vector<uint64_t> offsets;
  for (const std::vector<uint8_t>& page : pages) {
    offsets.push_back(file.size());
    file.insert(file.end(), page.begin(), page.end());
  }
  std::vector<uint8_t> footer;
  PutVarint(&footer, schema.num_fields());
  for (const Field& field : schema.fields()) {
    PutVarint(&footer, field.name.size());
    footer.insert(footer.end(), field.name.begin(), field.name.end());
    footer.push_back(static_cast<uint8_t>(field.type));
  }
  PutVarint(&footer, o.num_rows.value_or(row_count));
  PutVarint(&footer, 1);  // one chunk
  PutVarint(&footer, o.row_begin.value_or(0));
  PutVarint(&footer, row_count);
  PutVarint(&footer, o.chunk_offset.value_or(8));
  PutVarint(&footer, o.chunk_length.value_or(file.size() - 8));
  for (size_t c = 0; c < pages.size(); ++c) {
    const bool override = c == o.page;
    PutVarint(&footer, override ? o.page_offset.value_or(offsets[c])
                                : offsets[c]);
    PutVarint(&footer, override ? o.page_length.value_or(pages[c].size())
                                : pages[c].size());
    put_u32(&footer, rpc::Crc32(pages[c].data(), pages[c].size()));
    footer.push_back(0);    // no range
    PutVarint(&footer, 0);  // null count
  }
  file.insert(file.end(), footer.begin(), footer.end());
  put_u32(&file, static_cast<uint32_t>(footer.size()));
  put_u32(&file, rpc::Crc32(footer.data(), footer.size()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
}

TEST_F(ChunkStorageTest, HostilePayloadsGiveTypedStatus) {
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                   {"s", ValueType::kString}})
                         .ValueOrDie();
  const uint8_t kInt = static_cast<uint8_t>(ValueType::kInt64);
  const uint8_t kFloat = static_cast<uint8_t>(ValueType::kFloat64);
  const uint8_t kStr = static_cast<uint8_t>(ValueType::kString);
  const uint8_t kNull = static_cast<uint8_t>(ValueType::kNull);
  // Two rows: i = {1, NULL}, s = {"ab", ""}.
  const std::vector<uint8_t> valid_i = {kInt, 2, kNull};
  const std::vector<uint8_t> valid_s = {kStr, 2, 'a', 'b', kStr, 0};
  const std::vector<uint8_t> empty_s = {kStr, 0, kStr, 0};
  const std::string path = Path("hostile.skc");
  WriteRawChunkFile(path, *schema, 2, {valid_i, valid_s});
  {
    ChunkPtr chunk =
        ChunkFile::Open(path).ValueOrDie()->ReadChunk(0).ValueOrDie();
    EXPECT_EQ(chunk->column(0).Int64At(0), 1);
    EXPECT_TRUE(chunk->column(0).IsNull(1));
    EXPECT_EQ(chunk->column(1).StringAt(0), "ab");
    EXPECT_EQ(chunk->column(1).StringAt(1), "");
  }

  const std::vector<uint8_t> non_integral = [&] {
    std::vector<uint8_t> p = {kFloat};
    const double half = 2.5;
    uint8_t raw[8];
    std::memcpy(raw, &half, 8);
    p.insert(p.end(), raw, raw + 8);
    p.push_back(kNull);
    return p;
  }();
  struct Case {
    const char* name;
    std::vector<uint8_t> page_i;
    std::vector<uint8_t> page_s;
    StatusCode code;
  };
  const std::vector<Case> cases = {
      {"unknown tag", {kInt, 2, 9}, empty_s, StatusCode::kIOError},
      {"truncated varint", {kInt, 2, kInt, 0x80}, empty_s,
       StatusCode::kIOError},
      {"over-long varint",
       {kInt, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        kNull},
       empty_s, StatusCode::kIOError},
      {"string length past the end", valid_i,
       {kStr, 50, 'a', 'b', kStr, 0}, StatusCode::kIOError},
      {"string length near 2^64", valid_i,
       {kStr, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
       StatusCode::kIOError},
      {"STRING cell in an INT64 column", {kStr, 1, 'q', kNull}, empty_s,
       StatusCode::kTypeError},
      {"INT64 cell in a STRING column", valid_i, {kInt, 2, kStr, 0},
       StatusCode::kTypeError},
      {"non-integral FLOAT64 in an INT64 column", non_integral, empty_s,
       StatusCode::kTypeError},
      {"trailing bytes", [&] {
         std::vector<uint8_t> p = valid_i;
         p.push_back(kNull);
         return p;
       }(),
       valid_s, StatusCode::kIOError},
  };
  for (const Case& c : cases) {
    WriteRawChunkFile(path, *schema, 2, {c.page_i, c.page_s});
    auto file = ChunkFile::Open(path);
    ASSERT_TRUE(file.ok()) << c.name << ": " << file.status().ToString();
    Result<ChunkPtr> chunk = (*file)->ReadChunk(0);
    ASSERT_FALSE(chunk.ok()) << c.name;
    EXPECT_EQ(chunk.status().code(), c.code)
        << c.name << ": " << chunk.status().ToString();
  }
}

TEST_F(ChunkStorageTest, OpenRejectsImpossibleDirectoryEntries) {
  SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64}}).ValueOrDie();
  const uint8_t kInt = static_cast<uint8_t>(ValueType::kInt64);
  const std::vector<uint8_t> page = {kInt, 2, kInt, 4};
  const std::string path = Path("directory.skc");
  WriteRawChunkFile(path, *schema, 2, {page});
  ASSERT_TRUE(ChunkFile::Open(path).ok());

  // The chunk's region and its only page, moved together.
  struct Case {
    const char* name;
    size_t row_count;
    uint64_t offset;
    uint64_t length;
  };
  const std::vector<Case> cases = {
      {"offset inside the magic", 2, 4, 4},
      {"payload running into the footer", 2, 8, 5},
      {"length of 2^40", 2, 8, uint64_t{1} << 40},
      {"offset past the file", 2, uint64_t{1} << 40, 4},
      {"offset + length wrapping 2^64", 2, 8, ~uint64_t{0} - 4},
      {"more cells than payload bytes", 5, 8, 4},
  };
  for (const Case& c : cases) {
    RawOverrides o;
    o.chunk_offset = o.page_offset = c.offset;
    o.chunk_length = o.page_length = c.length;
    WriteRawChunkFile(path, *schema, c.row_count, {page}, o);
    auto file = ChunkFile::Open(path);
    ASSERT_FALSE(file.ok()) << c.name;
    EXPECT_TRUE(file.status().IsIOError())
        << c.name << ": " << file.status().ToString();
  }

  // Format 2's own invariants, over two INT64 columns.
  SchemaPtr two = Schema::Make({{"i", ValueType::kInt64},
                                {"j", ValueType::kInt64}})
                      .ValueOrDie();
  const std::vector<uint8_t> page_j = {kInt, 6, kInt, 8};
  WriteRawChunkFile(path, *two, 2, {page, page_j});
  ASSERT_TRUE(ChunkFile::Open(path).ok());
  auto with = [](auto set) {
    RawOverrides o;
    set(&o);
    return o;
  };
  struct Case2 {
    const char* name;
    RawOverrides o;
  };
  const std::vector<Case2> cases2 = {
      {"column extent outside its chunk",
       with([](RawOverrides* o) { o->chunk_length = 6; })},
      {"page before its chunk", with([](RawOverrides* o) {
         o->page = 0;
         o->page_offset = 7;
       })},
      {"overlapping extents", with([](RawOverrides* o) {
         o->page = 1;
         o->page_offset = 10;
       })},
      {"rows do not add up to num_rows",
       with([](RawOverrides* o) { o->num_rows = 3; })},
      {"first chunk does not start at row 0",
       with([](RawOverrides* o) { o->row_begin = 1; })},
  };
  for (const Case2& c : cases2) {
    WriteRawChunkFile(path, *two, 2, {page, page_j}, c.o);
    auto file = ChunkFile::Open(path);
    ASSERT_FALSE(file.ok()) << c.name;
    EXPECT_TRUE(file.status().IsIOError())
        << c.name << ": " << file.status().ToString();
  }

  // A format 1 file (same bytes, old magic) is a typed error that says
  // how to fix it.
  WriteRawChunkFile(path, *two, 2, {page, page_j});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(7);
    f.put('1');
  }
  auto v1 = ChunkFile::Open(path);
  ASSERT_FALSE(v1.ok());
  EXPECT_TRUE(v1.status().IsIOError());
  EXPECT_NE(v1.status().ToString().find("re-save"), std::string::npos)
      << v1.status().ToString();
}

// A detail relation wider than any query below reads: `pad` and `note`
// are never referenced, so a paged kernel must never load their pages.
Table MakeWideDetail(int64_t salt, size_t rows = 900) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"v", ValueType::kFloat64},
                                   {"pad", ValueType::kFloat64},
                                   {"note", ValueType::kString}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    int64_t n = salt + static_cast<int64_t>(i);
    t.AppendUnchecked({Value(n % 13), Value("name-" + std::to_string(n % 7)),
                       Value(static_cast<double>(n % 101) / 4.0),
                       Value(static_cast<double>(n) * 0.5),
                       Value("note-" + std::string(40, 'a' + n % 26))});
  }
  return t;
}

// One block on each columnar path: grouped, candidates, and a scan whose
// detail conjunct can prune chunks.
GmdjExpr ThreePathQuery() {
  return ParseQuery(R"(
    BASE SELECT DISTINCT g FROM d;
    MD USING d COMPUTE COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo
       WHERE r.g = b.g;
    MD USING d COMPUTE COUNT(*) AS above
       WHERE r.g = b.g AND r.v >= b.s / b.c;
    MD USING d COMPUTE COUNT(*) AS n, MAX(v) AS hi
       WHERE r.v > 20.0 AND r.g < b.g;
  )").ValueOrDie();
}

// The base query, then each GMDJ through core::EvaluateGmdj (the engine
// `context` picks), finalizing like EvalCentralized.
Result<Table> EvalThroughKernels(const GmdjExpr& query,
                                 const Catalog& catalog,
                                 EvalContext context) {
  context.sub_aggregates = false;
  context.compute_rng = false;
  SKALLA_ASSIGN_OR_RETURN(Table current, query.base.Execute(catalog));
  for (const GmdjOp& op : query.ops) {
    SKALLA_ASSIGN_OR_RETURN(current,
                            EvaluateGmdj(current, op, catalog, context));
  }
  return current;
}

// Column pages, not chunks: a kernel run over a chunk file loads exactly
// the pages of the columns the query references, and the EvalProfile
// accounts the pages the kernels themselves pinned and loaded. The row
// oracle (kRow) reads a paged relation by materializing it, so it pins
// every column, and its profile says so.
TEST_F(ChunkStorageTest, KernelsLoadOnlyReferencedColumnPages) {
  Table detail = MakeWideDetail(3);
  const std::string path = Path("pages.skc");
  const size_t chunk_rows = 64;
  WriteChunkFile(detail, path, chunk_rows).Check();

  const size_t num_chunks = (detail.num_rows() - 1) / chunk_rows + 1;
  uint64_t g_bytes = 0, v_bytes = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = c * chunk_rows;
    ChunkPtr built =
        Chunk::Build(detail, begin,
                     std::min(chunk_rows, detail.num_rows() - begin))
            .ValueOrDie();
    g_bytes += EstimateColumnBytes(built->column(0));
    v_bytes += EstimateColumnBytes(built->column(2));
  }

  Catalog eager;
  eager.Register("d", detail);
  const GmdjExpr query = ThreePathQuery();
  const std::vector<uint8_t> expected =
      TableBytes(EvalCentralized(query, eager).ValueOrDie());

  for (EvalEngine engine : {EvalEngine::kAuto, EvalEngine::kRow}) {
    auto buffers = std::make_shared<BufferManager>(0);  // unlimited
    Catalog paged;
    paged.RegisterProvider(
        "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
    EvalProfile profile;
    EvalContext context;
    context.engine = engine;
    context.profile = &profile;
    const std::string label = StrCat("engine=", EvalEngineName(engine));
    Table got = EvalThroughKernels(query, paged, context).ValueOrDie();
    EXPECT_EQ(TableBytes(got), expected) << label;

    BufferStats stats = buffers->stats();
    if (engine == EvalEngine::kAuto) {
      EXPECT_EQ(profile.engines_used.load(), kEngineBitColumnar);
      // The base scan loads g; the kernels load v; nothing loads name,
      // pad or note, and nothing loads a page twice.
      EXPECT_EQ(stats.misses, 2 * num_chunks);
      EXPECT_EQ(stats.miss_bytes, g_bytes + v_bytes);
      EXPECT_EQ(profile.pages_missed.load(), num_chunks);
      EXPECT_EQ(profile.page_bytes_loaded.load(), v_bytes);
      EXPECT_GT(profile.pages_pinned.load(), 2 * num_chunks);
      EXPECT_GT(profile.chunks_pruned.load(), 0u);
    } else {
      EXPECT_EQ(profile.engines_used.load(), kEngineBitRow);
      // Each operator materializes the relation: every column of every
      // chunk is pinned three times, and every page the base scan did
      // not load misses once.
      const size_t width = detail.schema()->num_fields();
      EXPECT_EQ(profile.pages_pinned.load(),
                query.ops.size() * width * num_chunks);
      EXPECT_EQ(profile.pages_missed.load(), (width - 1) * num_chunks);
      EXPECT_EQ(stats.misses, width * num_chunks);
      EXPECT_EQ(profile.page_bytes_loaded.load(), stats.miss_bytes - g_bytes);
      EXPECT_EQ(profile.chunks_pruned.load(), 0u);
    }
  }
}

// The tentpole contract: evaluating through a paged provider is
// byte-identical to the row oracle over the resident relation at every
// buffer budget — one byte (every release evicts), one page, a partial
// pool, unlimited — on every engine, with chunk pruning on and off.
TEST_F(ChunkStorageTest, ChunkPagedEvalIsByteIdenticalAtAnyBudget) {
  Table detail = MakeWideDetail(3);
  const std::string path = Path("eval.skc");
  WriteChunkFile(detail, path, /*chunk_rows=*/64).Check();

  Catalog eager;
  eager.Register("d", detail);
  GmdjExpr query = ThreePathQuery();
  const std::vector<uint8_t> expected =
      TableBytes(EvalCentralized(query, eager).ValueOrDie());

  ChunkPtr first = Chunk::Build(detail, 0, 64).ValueOrDie();
  uint64_t one_page = 0;
  for (size_t c = 0; c < first->num_columns(); ++c) {
    one_page = std::max(one_page, EstimateColumnBytes(first->column(c)));
  }
  for (uint64_t budget :
       {uint64_t{1}, one_page, first->byte_size() * 3, uint64_t{0}}) {
    for (EvalEngine engine :
         {EvalEngine::kAuto, EvalEngine::kRow, EvalEngine::kColumnar}) {
      for (bool pruning : {true, false}) {
        auto buffers = std::make_shared<BufferManager>(budget);
        Catalog paged;
        paged.RegisterProvider(
            "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
        EXPECT_TRUE(paged.IsChunkBacked("d"));
        EvalContext context;
        context.engine = engine;
        context.chunk_pruning = pruning;
        const std::string label =
            StrCat("budget=", budget, " engine=", EvalEngineName(engine),
                   " pruning=", pruning);

        Table got = EvalThroughKernels(query, paged, context).ValueOrDie();
        EXPECT_EQ(TableBytes(got), expected) << label;
        EXPECT_EQ(TableBytes(EvalCentralized(query, paged).ValueOrDie()),
                  expected)
            << label;

        BufferStats stats = buffers->stats();
        EXPECT_GT(stats.misses, 0u) << label;
        EXPECT_EQ(stats.pinned_pages, 0u) << label;
        if (budget != 0) {
          EXPECT_LE(stats.resident_bytes, budget) << label;
        }
        if (budget == 1) {
          // Nothing fits: every release evicts, nothing stays resident.
          EXPECT_GT(stats.evictions, 0u) << label;
          EXPECT_EQ(stats.resident_pages, 0u) << label;
        }
      }
    }
  }
}

// Threads pin overlapping column sets of the same chunks of one file at
// once: every pin sees the right cells and every page loads once.
TEST_F(ChunkStorageTest, ConcurrentOverlappingPinsLoadEachPageOnce) {
  Table detail = MakeWideDetail(5, 256);
  const std::string path = Path("threads.skc");
  WriteChunkFile(detail, path, /*chunk_rows=*/64).Check();
  auto buffers = std::make_shared<BufferManager>(0);
  auto provider = ChunkFileDataProvider::Open(path, buffers).ValueOrDie();

  const std::vector<std::vector<size_t>> sets = {
      {0, 2}, {2, 4}, {0, 1, 2}, {1, 3}, {0, 4}, {3, 4}};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (const std::vector<size_t>& set : sets) {
    threads.emplace_back([&, set] {
      for (size_t c = 0; c < provider->num_chunks(); ++c) {
        Result<PinnedChunk> pin = provider->Pin(c, set);
        if (!pin.ok()) return;
        const Chunk& chunk = **pin;
        for (size_t col : set) {
          if (!chunk.has_column(col)) return;
          for (size_t r = 0; r < chunk.num_rows(); ++r) {
            if (!chunk.column(col).GetValue(r).Equals(
                    detail.at(chunk.row_begin() + r, col))) {
              return;
            }
          }
        }
      }
      ++ok;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), static_cast<int>(sets.size()));
  BufferStats stats = buffers->stats();
  EXPECT_EQ(stats.misses, provider->num_chunks() * 5);
  EXPECT_EQ(stats.pinned_pages, 0u);
}

// The oracle (nested-loop) path must match too, at a pathological
// budget.
TEST_F(ChunkStorageTest, NestedLoopChunkedMatchesResident) {
  Table detail = MakeDetail(11, 400);
  const std::string path = Path("oracle.skc");
  WriteChunkFile(detail, path, /*chunk_rows=*/53).Check();

  Catalog eager;
  eager.Register("d", detail);
  EvalContext oracle;
  oracle.use_index = false;
  GmdjExpr query = TestQuery();
  const std::vector<uint8_t> expected =
      TableBytes(EvalCentralized(query, eager, oracle).ValueOrDie());

  auto buffers = std::make_shared<BufferManager>(1);
  Catalog paged;
  paged.RegisterProvider(
      "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
  EXPECT_EQ(TableBytes(EvalCentralized(query, paged, oracle).ValueOrDie()),
            expected);
}

TEST_F(ChunkStorageTest, ChunkedWarehouseRoundTripAndReload) {
  TpcrConfig config;
  config.num_rows = 2000;
  config.num_customers = 120;
  config.num_clerks = 9;
  Table tpcr = GenerateTpcr(config);

  DistributedWarehouse eager(3);
  eager
      .AddTablePartitionedBy("tpcr", tpcr, "NationKey",
                             {"CustKey", "Clerk", "Quantity"})
      .Check();
  eager.SaveChunked(dir_, /*chunk_rows=*/256).Check();

  GmdjExpr query = ParseQuery(R"(
    BASE SELECT DISTINCT Clerk FROM tpcr;
    MD USING tpcr COMPUTE COUNT(*) AS c, SUM(Quantity) AS q
       WHERE r.Clerk = b.Clerk;
  )").ValueOrDie();
  ExecStats eager_stats;
  Table expected =
      eager.Execute(query, OptimizerOptions::All(), &eager_stats)
          .ValueOrDie();

  // Load with a budget far below any partition: the whole pipeline runs
  // paged and still matches the eager warehouse byte for byte, with the
  // same plan economics (STATS preserved the distribution knowledge).
  StorageOptions storage;
  storage.buffer_bytes = 64 * 1024;
  DistributedWarehouse lazy =
      DistributedWarehouse::Load(dir_, {}, {}, storage).ValueOrDie();
  EXPECT_EQ(lazy.num_sites(), 3u);
  EXPECT_NE(lazy.buffer_manager(), nullptr);
  ASSERT_NE(lazy.partition_info("tpcr"), nullptr);
  EXPECT_TRUE(
      lazy.partition_info("tpcr")->IsPartitionAttribute("NationKey"));

  ExecStats lazy_stats;
  Table got =
      lazy.Execute(query, OptimizerOptions::All(), &lazy_stats).ValueOrDie();
  EXPECT_EQ(TableBytes(got), TableBytes(expected));
  EXPECT_EQ(lazy_stats.TotalBytes(), eager_stats.TotalBytes());
  EXPECT_EQ(lazy_stats.NumSyncRounds(), eager_stats.NumSyncRounds());

  // Centralized reference evaluation pages through the concatenated
  // providers and matches too.
  EXPECT_EQ(TableBytes(lazy.ExecuteCentralized(query).ValueOrDie()),
            TableBytes(eager.ExecuteCentralized(query).ValueOrDie()));

  // ReloadTable re-opens the chunk files and bumps the data epoch.
  EXPECT_EQ(lazy.data_epoch(), 0u);
  lazy.ReloadTable("tpcr").Check();
  EXPECT_EQ(lazy.data_epoch(), 1u);
  EXPECT_EQ(TableBytes(lazy.ExecuteCentralized(query).ValueOrDie()),
            TableBytes(eager.ExecuteCentralized(query).ValueOrDie()));

  EXPECT_TRUE(lazy.ReloadTable("nope").IsNotFound());
  DistributedWarehouse resident(2);
  EXPECT_TRUE(resident.ReloadTable("tpcr").IsFailedPrecondition());
}

TEST_F(ChunkStorageTest, LoadSiteCatalogServesChunkedPartitions) {
  Table detail = MakeDetail(21, 500);
  DistributedWarehouse dw(2);
  dw.AddTablePartitionedBy("d", detail, "g").Check();
  dw.SaveChunked(dir_, /*chunk_rows=*/64).Check();

  StorageOptions storage;
  storage.buffer_bytes = 1;  // pathological: page everything
  Catalog site0 = LoadSiteCatalog(dir_, 0, storage).ValueOrDie();
  EXPECT_TRUE(site0.IsChunkBacked("d"));
  // Get() refuses chunk-backed entries; the provider path serves them.
  EXPECT_TRUE(site0.Get("d").status().IsFailedPrecondition());

  // A base query over the paged partition matches the resident one.
  Catalog eager0;
  {
    auto parts = PartitionByValue(detail, "g", 2).ValueOrDie();
    eager0.Register("d", std::move(parts[0]));
  }
  BaseQuery query;
  query.table = "d";
  query.columns = {"g"};
  query.distinct = true;
  EXPECT_EQ(TableBytes(query.Execute(site0).ValueOrDie()),
            TableBytes(query.Execute(eager0).ValueOrDie()));

  // Without a predicate the paged scan boxes only the key columns; with
  // one it filters whole rows. Both match the resident scan, distinct or
  // not.
  for (bool distinct : {true, false}) {
    for (ExprPtr where : {ExprPtr(), Gt(RCol("v"), Lit(Value(10.0)))}) {
      query.columns = {"name", "g"};
      query.distinct = distinct;
      query.where = where;
      EXPECT_EQ(TableBytes(query.Execute(site0).ValueOrDie()),
                TableBytes(query.Execute(eager0).ValueOrDie()))
          << query.ToString();
    }
  }
}

}  // namespace
}  // namespace skalla
