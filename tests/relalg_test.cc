#include "relalg/operators.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "expr/builder.h"
#include "net/serde.h"
#include "storage/buffer_manager.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"

namespace skalla {
namespace {

Table SampleTable() {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kString},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value(1), Value("a"), Value(10)});
  t.AppendUnchecked({Value(1), Value("a"), Value(20)});
  t.AppendUnchecked({Value(2), Value("b"), Value(30)});
  t.AppendUnchecked({Value(2), Value("a"), Value::Null()});
  return t;
}

TEST(RelalgTest, ProjectKeepsDuplicatesWithoutDistinct) {
  Table t = SampleTable();
  Table p = Project(t, {"g"}, /*distinct=*/false).ValueOrDie();
  EXPECT_EQ(p.num_rows(), 4u);
  EXPECT_EQ(p.num_columns(), 1u);
}

TEST(RelalgTest, ProjectDistinct) {
  Table t = SampleTable();
  Table p = Project(t, {"g", "h"}, /*distinct=*/true).ValueOrDie();
  EXPECT_EQ(p.num_rows(), 3u);  // (1,a), (2,b), (2,a).
}

TEST(RelalgTest, ProjectReordersColumns) {
  Table t = SampleTable();
  Table p = Project(t, {"v", "g"}, false).ValueOrDie();
  EXPECT_EQ(p.schema()->field(0).name, "v");
  EXPECT_EQ(p.at(0, 0).int64(), 10);
  EXPECT_EQ(p.at(0, 1).int64(), 1);
}

TEST(RelalgTest, ProjectUnknownColumnFails) {
  Table t = SampleTable();
  EXPECT_TRUE(Project(t, {"nope"}, false).status().IsNotFound());
}

TEST(RelalgTest, SelectFiltersWithNullSemantics) {
  Table t = SampleTable();
  Table s = Select(t, Ge(RCol("v"), Lit(Value(20)))).ValueOrDie();
  EXPECT_EQ(s.num_rows(), 2u);  // NULL v row excluded.
}

TEST(RelalgTest, UnionAllChecksArity) {
  Table t = SampleTable();
  Table p = Project(t, {"g"}, false).ValueOrDie();
  EXPECT_TRUE(UnionAll(t, p).status().IsInvalidArgument());
  Table u = UnionAll(t, t).ValueOrDie();
  EXPECT_EQ(u.num_rows(), 8u);
}

TEST(RelalgTest, DistinctGroupsNulls) {
  SchemaPtr schema = Schema::Make({{"x", ValueType::kInt64}}).ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value(1)});
  Table d = Distinct(t);
  EXPECT_EQ(d.num_rows(), 2u);
}

TEST(RelalgTest, SortBy) {
  Table t = SampleTable();
  Table s = SortBy(t, {"v"}).ValueOrDie();
  // NULL sorts first.
  EXPECT_TRUE(s.at(0, 2).is_null());
  EXPECT_EQ(s.at(1, 2).int64(), 10);
  EXPECT_EQ(s.at(3, 2).int64(), 30);
}

TEST(RelalgTest, TopKDescendingAndAscending) {
  SchemaPtr schema = Schema::Make({{"name", ValueType::kString},
                                   {"bytes", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value("a"), Value(30)});
  t.AppendUnchecked({Value("b"), Value(10)});
  t.AppendUnchecked({Value("c"), Value(50)});
  t.AppendUnchecked({Value("d"), Value(20)});
  t.AppendUnchecked({Value("e"), Value(50)});

  Table top2 = TopK(t, "bytes", 2).ValueOrDie();
  ASSERT_EQ(top2.num_rows(), 2u);
  EXPECT_EQ(top2.at(0, 1).int64(), 50);
  EXPECT_EQ(top2.at(1, 1).int64(), 50);
  // Tie broken deterministically ("c" < "e").
  EXPECT_EQ(top2.at(0, 0).str(), "c");

  Table bottom1 = TopK(t, "bytes", 1, /*descending=*/false).ValueOrDie();
  ASSERT_EQ(bottom1.num_rows(), 1u);
  EXPECT_EQ(bottom1.at(0, 0).str(), "b");

  // k larger than the table returns everything, ordered.
  Table all = TopK(t, "bytes", 99).ValueOrDie();
  EXPECT_EQ(all.num_rows(), 5u);
  EXPECT_EQ(all.at(4, 1).int64(), 10);

  EXPECT_TRUE(TopK(t, "nope", 2).status().IsNotFound());
}

TEST(RelalgTest, BaseQueryExecuteWithWhere) {
  Catalog catalog;
  catalog.Register("t", SampleTable());
  BaseQuery q{"t", {"g"}, true, Eq(RCol("h"), Lit(Value("a")))};
  Table result = q.Execute(catalog).ValueOrDie();
  EXPECT_EQ(result.num_rows(), 2u);  // g in {1, 2} among h='a' rows.
  EXPECT_EQ(q.ToString(),
            "SELECT DISTINCT g FROM t WHERE (r.h = 'a')");
}

TEST(RelalgTest, BaseQueryUnknownTableFails) {
  Catalog catalog;
  BaseQuery q{"missing", {"g"}, true, nullptr};
  EXPECT_TRUE(q.Execute(catalog).status().IsNotFound());
}

TEST(RelalgTest, BaseQueryOutputSchema) {
  Table t = SampleTable();
  BaseQuery q{"t", {"h", "g"}, true, nullptr};
  SchemaPtr s = q.OutputSchema(*t.schema()).ValueOrDie();
  ASSERT_EQ(s->num_fields(), 2u);
  EXPECT_EQ(s->field(0).name, "h");
  EXPECT_EQ(s->field(0).type, ValueType::kString);
  EXPECT_EQ(s->field(1).name, "g");
}

// Every key shape the streaming DISTINCT must dedup exactly like
// Distinct() over boxed rows: NULL keys, a FLOAT64 column holding
// integral values, non-integral ones, NaN and both zeros, and duplicates
// that recur across 3-row chunks.
Table DistinctSample() {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kString},
                                   {"f", ValueType::kFloat64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Value fs[] = {Value(1.0), Value(2.0), Value(nan), Value::Null(),
                      Value(2.5), Value(-0.0), Value(0.0)};
  const Value hs[] = {Value("a"), Value("b"), Value::Null()};
  Table t(schema);
  for (int64_t i = 0; i < 26; ++i) {
    t.AppendUnchecked({i % 3 == 2 ? Value::Null() : Value(i % 3), hs[i / 2 % 3],
                       fs[i % 7], Value(i)});
  }
  return t;
}

std::vector<uint8_t> TableBytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

TEST(RelalgTest, BaseQueryStreamingMatchesProjectDistinct) {
  const Table t = DistinctSample();
  MemoryDataProvider resident(std::make_shared<const Table>(t),
                              /*chunk_rows=*/3);
  const std::string path = ::testing::TempDir() + "relalg_base_query_" +
                           std::to_string(::getpid()) + ".skc";
  WriteChunkFile(t, path, /*chunk_rows=*/3).Check();
  auto paged = ChunkFileDataProvider::Open(
                   path, std::make_shared<BufferManager>(0))
                   .ValueOrDie();
  Catalog catalog;
  catalog.Register("t", t);

  const ExprPtr where = Gt(RCol("v"), Lit(Value(5)));
  const BaseQuery queries[] = {
      {"t", {"g"}, true, nullptr},
      {"t", {"f"}, true, nullptr},
      {"t", {"g", "h"}, true, nullptr},
      {"t", {"h", "f"}, true, where},
      {"t", {"f", "g"}, true, Eq(RCol("h"), Lit(Value("a")))},
      {"t", {"g", "h"}, false, where},
      {"t", {}, true, nullptr},
  };
  for (const BaseQuery& q : queries) {
    SCOPED_TRACE(q.ToString());
    Table source = t;
    if (q.where != nullptr) source = Select(t, q.where).ValueOrDie();
    const std::vector<uint8_t> expected =
        TableBytes(Project(source, q.columns, q.distinct).ValueOrDie());
    EXPECT_EQ(TableBytes(q.Execute(resident).ValueOrDie()), expected);
    EXPECT_EQ(TableBytes(q.Execute(*paged).ValueOrDie()), expected);
    EXPECT_EQ(TableBytes(q.Execute(catalog).ValueOrDie()), expected);
  }
  // NaN never equals itself, so each NaN key is its own row; -0.0 and
  // 0.0 are one key, kept as first seen.
  Table floats = queries[1].Execute(resident).ValueOrDie();
  size_t nans = 0, zeros = 0;
  for (size_t r = 0; r < floats.num_rows(); ++r) {
    const Value& f = floats.at(r, 0);
    if (f.is_float64() && std::isnan(f.float64())) ++nans;
    if (f.is_float64() && f.float64() == 0.0) {
      ++zeros;
      EXPECT_TRUE(std::signbit(f.float64()));
    }
  }
  EXPECT_EQ(nans, 4u);  // Rows 2, 9, 16 and 23.
  EXPECT_EQ(zeros, 1u);
  std::remove(path.c_str());
}

TEST(RelalgTest, EmptyProjectionYieldsSingleEmptyRowUnderDistinct) {
  // The grand-total cuboid relies on this: distinct over zero columns is
  // one empty row for a non-empty input, zero rows for an empty input.
  Table t = SampleTable();
  Table p = Project(t, {}, true).ValueOrDie();
  EXPECT_EQ(p.num_rows(), 1u);
  EXPECT_EQ(p.num_columns(), 0u);

  Table empty(t.schema());
  Table pe = Project(empty, {}, true).ValueOrDie();
  EXPECT_EQ(pe.num_rows(), 0u);
}

}  // namespace
}  // namespace skalla
