// Columnar storage and the vectorized GMDJ evaluator: a resident
// relation's per-column pages (built only for the pinned columns, also
// under concurrent pins), exact agreement with the row engine across
// random data (including NULLs), engine routing through
// core::EvaluateGmdj, and end-to-end distributed execution with sites on
// the columnar engine.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "columnar/predicate_eval.h"
#include "columnar/vector_eval.h"
#include "common/random.h"
#include "core/evaluate.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "relalg/operators.h"
#include "storage/catalog.h"

namespace skalla {
namespace {

Table MakeDetail(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kString},
                                   {"iv", ValueType::kInt64},
                                   {"dv", ValueType::kFloat64}})
                         .ValueOrDie();
  const char* labels[] = {"x", "y", "z"};
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row = {Value(rng.UniformInt(0, 7)),
               Value(std::string(labels[rng.Uniform(3)])),
               Value(rng.UniformInt(-50, 50)),
               Value(rng.NextDouble() * 10 - 5)};
    if (rng.Bernoulli(0.1)) row[2] = Value::Null();
    if (rng.Bernoulli(0.1)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

// A resident relation's chunk views — the form the columnar kernels
// read resident data in — at 64 rows per chunk, so the tables here span
// several chunks.
MemoryDataProvider ChunkViews(const Table& detail) {
  return MemoryDataProvider(std::make_shared<const Table>(detail),
                            /*chunk_rows=*/64);
}

TEST(ColumnTest, TypedStorageAndBoxing) {
  Column c(ValueType::kInt64);
  c.Append(Value(42)).Check();
  c.Append(Value::Null()).Check();
  c.Append(Value(7.0)).Check();  // Integral double is fine.
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.Int64At(0), 42);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.Int64At(2), 7);
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.GetValue(0).int64(), 42);

  EXPECT_TRUE(c.Append(Value(2.5)).IsTypeError());
  EXPECT_TRUE(c.Append(Value("no")).IsTypeError());

  Column s(ValueType::kString);
  s.Append(Value("abc")).Check();
  EXPECT_TRUE(s.Append(Value(1)).IsTypeError());
  EXPECT_EQ(s.StringAt(0), "abc");
}

TEST(ColumnTest, HashMatchesValueHash) {
  Column i(ValueType::kInt64);
  i.Append(Value(99)).Check();
  i.Append(Value::Null()).Check();
  EXPECT_EQ(i.HashAt(0), Value(99).Hash());
  EXPECT_EQ(i.HashAt(1), Value::Null().Hash());
  Column d(ValueType::kFloat64);
  d.Append(Value(99.0)).Check();
  d.Append(Value(2.5)).Check();
  EXPECT_EQ(d.HashAt(0), Value(99).Hash());  // Integral double == int.
  EXPECT_EQ(d.HashAt(1), Value(2.5).Hash());
  Column s(ValueType::kString);
  s.Append(Value("k")).Check();
  EXPECT_EQ(s.HashAt(0), Value("k").Hash());
}

TEST(ColumnTest, EqualsAtMatchesBoxedEquals) {
  // Every cell type (NULL cells included) against every value type:
  // EqualsAt is exactly Value::Equals of the boxed cell, so numbers
  // compare across INT64/FLOAT64, NULL equals only NULL, NaN nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = (int64_t{1} << 53) + 1;  // Not exact as a double.
  const std::vector<Value> values = {
      Value::Null(), Value(int64_t{0}), Value(int64_t{3}),
      Value(int64_t{-7}), Value(big),
      Value(std::numeric_limits<int64_t>::max()), Value(3.0), Value(2.5),
      Value(nan), Value(-0.0), Value(0.0), Value(9007199254740992.0),
      Value(""), Value("a"), Value("3")};
  Column ints(ValueType::kInt64);
  Column doubles(ValueType::kFloat64);
  Column strings(ValueType::kString);
  for (const Value& v : values) {
    if (v.is_null() || v.is_int64()) ints.Append(v).Check();
    if (v.is_null() || v.is_numeric()) doubles.Append(v).Check();
    if (v.is_null() || v.is_string()) strings.Append(v).Check();
  }
  for (const Column* column : {&ints, &doubles, &strings}) {
    for (size_t i = 0; i < column->size(); ++i) {
      for (const Value& v : values) {
        EXPECT_EQ(column->EqualsAt(i, v), column->GetValue(i).Equals(v))
            << ValueTypeToString(column->type()) << " cell "
            << column->GetValue(i).ToString() << " vs " << v.ToString();
      }
    }
  }
}

TEST(ChunkBuildTest, RoundTrip) {
  // Boxing the rows of a built chunk reproduces the table range exactly,
  // NULLs included — the row-identity contract every columnar path over
  // a resident relation relies on.
  Table t = MakeDetail(1, 200);
  ChunkPtr chunk = Chunk::Build(t, 0, t.num_rows()).ValueOrDie();
  EXPECT_EQ(chunk->num_rows(), 200u);
  EXPECT_EQ(chunk->num_columns(), 4u);
  Table back(t.schema());
  for (size_t r = 0; r < chunk->num_rows(); ++r) {
    back.AppendUnchecked(chunk->BoxRow(r));
  }
  EXPECT_TRUE(back.SameRows(t));
}

TEST(MemoryDataProviderTest, PinBuildsOnlyThePinnedColumns) {
  // A resident relation's views cost only what a pin asks for: pinning
  // column {0} of a chunk builds that one page and its stats, a later
  // pin sees exactly its own columns, and the columnar kernels over the
  // partly built views still answer byte-identically to the row engine.
  Table detail = MakeDetail(7, 150);
  MemoryDataProvider provider = ChunkViews(detail);
  EXPECT_EQ(provider.chunk_column_stats(0, 0), nullptr);

  Result<PinnedChunk> first = provider.Pin(0, {0});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const Chunk& g_view = **first;
  EXPECT_TRUE(g_view.has_column(0));
  for (size_t c = 1; c < g_view.num_columns(); ++c) {
    EXPECT_FALSE(g_view.has_column(c)) << "column " << c;
  }
  EXPECT_EQ(g_view.byte_size(), EstimateColumnBytes(g_view.column(0)));
  ChunkPtr whole = Chunk::Build(detail, 0, 64).ValueOrDie();
  for (size_t r = 0; r < g_view.num_rows(); ++r) {
    EXPECT_TRUE(g_view.column(0).GetValue(r).Equals(detail.at(r, 0)));
  }
  const ChunkColumnStats* g_stats = provider.chunk_column_stats(0, 0);
  ASSERT_NE(g_stats, nullptr);
  EXPECT_TRUE(g_stats->has_range);
  EXPECT_EQ(g_stats->min, whole->column_stats(0).min);
  EXPECT_EQ(g_stats->max, whole->column_stats(0).max);
  EXPECT_EQ(provider.chunk_column_stats(0, 1), nullptr);
  EXPECT_EQ(provider.chunk_column_stats(1, 0), nullptr);

  Result<PinnedChunk> second = provider.Pin(0, {2, 3});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE((*second)->has_column(0));
  EXPECT_FALSE((*second)->has_column(1));
  EXPECT_TRUE((*second)->has_column(3));
  EXPECT_EQ(provider.chunk_column_stats(0, 1), nullptr);
  ASSERT_NE(provider.chunk_column_stats(0, 3), nullptr);
  EXPECT_EQ(provider.chunk_column_stats(0, 3)->null_count,
            whole->column_stats(3).null_count);

  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kSum, "dv", "s"}},
      And(Eq(RCol("g"), BCol("g")), Gt(RCol("iv"), Lit(Value(0))))});
  std::vector<uint8_t> row_bytes, col_bytes;
  WriteTable(EvalGmdj(base, detail, op).ValueOrDie(), &row_bytes);
  WriteTable(EvalGmdjColumnar(base, provider, op).ValueOrDie(), &col_bytes);
  EXPECT_EQ(col_bytes, row_bytes);
}

TEST(MemoryDataProviderTest, ConcurrentOverlappingPinsBuildEachPageOnce) {
  // Morsel workers pin a resident relation's chunks concurrently, with
  // overlapping column sets: every view holds the right cells, and each
  // page is built once, so every later pin of it shares that page.
  Table detail = MakeDetail(11, 300);
  MemoryDataProvider provider = ChunkViews(detail);
  const std::vector<std::vector<size_t>> sets = {
      {0, 2}, {2, 3}, {0, 1, 2}, {1, 3}, {0, 3}, {1}};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (const std::vector<size_t>& set : sets) {
    threads.emplace_back([&, set] {
      for (size_t c = 0; c < provider.num_chunks(); ++c) {
        Result<PinnedChunk> pin = provider.Pin(c, set);
        if (!pin.ok()) return;
        const Chunk& chunk = **pin;
        for (size_t col : set) {
          if (!chunk.has_column(col) ||
              provider.chunk_column_stats(c, col) == nullptr) {
            return;
          }
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
  for (size_t c = 0; c < provider.num_chunks(); ++c) {
    PinnedChunk a = provider.Pin(c, {0, 1, 2, 3}).ValueOrDie();
    PinnedChunk b = provider.Pin(c, {0, 1, 2, 3}).ValueOrDie();
    for (size_t col = 0; col < 4; ++col) {
      EXPECT_EQ(a->pages()[col], b->pages()[col]) << "chunk " << c;
    }
  }
}

TEST(EvaluateGmdjTest, ColumnarRejectsUntypedColumns) {
  // A resident relation with a column of no concrete type has no typed
  // chunk view: the columnar engine fails with a typed error instead of
  // evaluating, while the row engine still serves it.
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"x", ValueType::kNull}})
                         .ValueOrDie();
  Table detail(schema);
  detail.AppendUnchecked({Value(int64_t{1}), Value::Null()});
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Catalog catalog;
  catalog.Register("d", detail);
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"}},
                                Eq(RCol("g"), BCol("g"))});
  EvalContext context;
  context.engine = EvalEngine::kColumnar;
  Status status = EvaluateGmdj(base, op, catalog, context).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  context.engine = EvalEngine::kRow;
  EXPECT_TRUE(EvaluateGmdj(base, op, catalog, context).ok());
}

TEST(EvaluateGmdjTest, AutoRoutesUntypedRelationsToTheRowEngine) {
  // A relation with an untyped column has no chunk form: kAuto answers
  // through the row engine, and its base query still answers, equal to
  // σ/π over its rows.
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"x", ValueType::kNull}})
                         .ValueOrDie();
  Table detail(schema);
  detail.AppendUnchecked({Value(int64_t{1}), Value::Null()});
  detail.AppendUnchecked({Value(int64_t{2}), Value("s")});
  detail.AppendUnchecked({Value(int64_t{1}), Value(2.5)});
  detail.AppendUnchecked({Value(int64_t{2}), Value("s")});
  Catalog catalog;
  catalog.Register("d", detail);
  auto bytes = [](const Table& t) {
    std::vector<uint8_t> out;
    WriteTable(t, &out);
    return out;
  };
  for (const std::vector<std::string>& columns :
       {std::vector<std::string>{"g"}, std::vector<std::string>{"x", "g"}}) {
    BaseQuery query{"d", columns, true, nullptr};
    EXPECT_EQ(bytes(query.Execute(catalog).ValueOrDie()),
              bytes(Project(detail, columns, true).ValueOrDie()));
  }
  BaseQuery filtered{"d", {"x"}, true, Gt(RCol("g"), Lit(Value(1)))};
  EXPECT_EQ(bytes(filtered.Execute(catalog).ValueOrDie()),
            bytes(Project(Select(detail, filtered.where).ValueOrDie(), {"x"},
                          true)
                      .ValueOrDie()));

  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"}},
                                Eq(RCol("g"), BCol("g"))});
  EvalProfile profile;
  EvalContext context;
  context.profile = &profile;
  Table out = EvaluateGmdj(base, op, catalog, context).ValueOrDie();
  EXPECT_EQ(profile.engines_used.load(), kEngineBitRow);
  context.engine = EvalEngine::kRow;
  context.profile = nullptr;
  EXPECT_EQ(bytes(out),
            bytes(EvaluateGmdj(base, op, catalog, context).ValueOrDie()));
}

TEST(EvaluateGmdjTest, EngineRoutingAndReporting) {
  Table detail = MakeDetail(5, 120);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Catalog catalog;
  catalog.Register("d", detail);
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kSum, "iv", "s"}},
      And(Eq(RCol("g"), BCol("g")), Gt(RCol("iv"), Lit(Value(0))))});

  auto run = [&](EvalEngine engine, bool use_index) {
    EvalProfile profile;
    EvalContext context;
    context.engine = engine;
    context.use_index = use_index;
    context.profile = &profile;
    Table out = EvaluateGmdj(base, op, catalog, context).ValueOrDie();
    return std::make_pair(std::move(out),
                          profile.engines_used.load());
  };

  // kRow always runs the row engine; kColumnar the columnar kernels
  // (over the provider's lazily built chunks — no warm needed).
  auto [row_out, row_bits] = run(EvalEngine::kRow, true);
  EXPECT_EQ(row_bits, kEngineBitRow);
  auto [col_out, col_bits] = run(EvalEngine::kColumnar, true);
  EXPECT_EQ(col_bits, kEngineBitColumnar);
  EXPECT_TRUE(col_out.SameRows(row_out));

  // kAuto picks the columnar kernels on a resident relation (its cached
  // column pages)...
  auto [auto_out, auto_bits] = run(EvalEngine::kAuto, true);
  EXPECT_EQ(auto_bits, kEngineBitColumnar);
  EXPECT_TRUE(auto_out.SameRows(row_out));
  // ...and on the same rows behind a paged provider (a concatenation
  // exposes no ResidentTable()).
  Catalog paged;
  paged.RegisterProvider(
      "d", std::make_shared<ConcatDataProvider>(std::vector<DataProviderPtr>{
               std::make_shared<MemoryDataProvider>(
                   std::make_shared<const Table>(detail), 32)}));
  EvalProfile paged_profile;
  EvalContext paged_context;
  paged_context.profile = &paged_profile;
  Table paged_out =
      EvaluateGmdj(base, op, paged, paged_context).ValueOrDie();
  EXPECT_EQ(paged_profile.engines_used.load(), kEngineBitColumnar);
  EXPECT_TRUE(paged_out.SameRows(row_out));

  // use_index = false has no columnar mode: every engine setting falls
  // back to the row engine transparently and reports it.
  for (EvalEngine engine :
       {EvalEngine::kAuto, EvalEngine::kRow, EvalEngine::kColumnar}) {
    auto [oracle_out, oracle_bits] = run(engine, false);
    EXPECT_EQ(oracle_bits, kEngineBitRow);
    EXPECT_TRUE(oracle_out.SameRows(row_out));
  }
}

class VectorEvalEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(VectorEvalEquivalenceTest, MatchesRowEngine) {
  Table detail = MakeDetail(GetParam(), 150 + GetParam() * 13);
  MemoryDataProvider columnar = ChunkViews(detail);
  Table base = Project(detail, {"g", "h"}, true).ValueOrDie();
  // Add a base row with no matches.
  base.AppendUnchecked({Value(int64_t{999}), Value("none")});

  GmdjOp op;
  op.detail_table = "d";
  ExprPtr theta = And(Eq(RCol("g"), BCol("g")), Eq(RCol("h"), BCol("h")));
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"},
                                 {AggKind::kCount, "iv", "ci"},
                                 {AggKind::kSum, "iv", "si"},
                                 {AggKind::kSum, "dv", "sd"},
                                 {AggKind::kAvg, "iv", "ai"},
                                 {AggKind::kMin, "dv", "lo"},
                                 {AggKind::kMax, "iv", "hi"},
                                 {AggKind::kVarPop, "iv", "vp"},
                                 {AggKind::kStdDevPop, "iv", "sp"}},
                                theta});
  op.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "per_g"}},
                Eq(RCol("g"), BCol("g"))});

  for (bool sub : {false, true}) {
    for (bool rng : {false, true}) {
      EvalContext options;
      options.sub_aggregates = sub;
      options.compute_rng = rng;
      Table row_result = EvalGmdj(base, detail, op, options).ValueOrDie();
      Table col_result =
          EvalGmdjColumnar(base, columnar, op, options).ValueOrDie();
      EXPECT_TRUE(col_result.SameRows(row_result))
          << "sub=" << sub << " rng=" << rng << "\nrow:\n"
          << row_result.ToString(40) << "columnar:\n"
          << col_result.ToString(40);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorEvalEquivalenceTest,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

TEST(VectorEvalTest, ResidualConjunctsMatchRowEngine) {
  Table detail = MakeDetail(3, 50);
  MemoryDataProvider columnar = ChunkViews(detail);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}},
      And(Eq(RCol("g"), BCol("g")), Gt(RCol("iv"), Lit(Value(0))))});
  Table row_result = EvalGmdj(base, detail, op).ValueOrDie();
  Table col_result = EvalGmdjColumnar(base, columnar, op).ValueOrDie();
  EXPECT_TRUE(col_result.SameRows(row_result));
}

TEST(VectorEvalTest, RejectsNestedLoopOracleMode) {
  // The direct kernel entry point has no nested-loop mode; only
  // core::EvaluateGmdj performs the transparent row fallback.
  Table detail = MakeDetail(3, 50);
  MemoryDataProvider columnar = ChunkViews(detail);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"}},
                                Eq(RCol("g"), BCol("g"))});
  EvalContext context;
  context.use_index = false;
  auto result = EvalGmdjColumnar(base, columnar, op, context);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(PredicateCompileTest, PartitionInfoSuppliesRangeHints) {
  // A site's ColumnDistribution [min, max] flows through
  // ColRangeFromPartition into conjunct selectivity ordering.
  PartitionInfo info(2);
  ColumnDistribution iv;
  iv.min = 0.0;
  iv.max = 100.0;
  info.SetDistribution(0, "iv", iv);
  auto hints = ColRangeFromPartition(info, 0);
  ASSERT_TRUE(hints("iv").has_value());
  EXPECT_EQ(hints("iv")->lo, 0.0);
  EXPECT_EQ(hints("iv")->hi, 100.0);
  EXPECT_FALSE(hints("missing").has_value());
  // Site 1 recorded nothing.
  EXPECT_FALSE(ColRangeFromPartition(info, 1)("iv").has_value());

  // With the hint, `iv > 95` (accepts 5%) must order before `iv > 10`
  // (accepts 90%) in the compiled predicate.
  SchemaPtr detail_schema = Schema::Make({{"g", ValueType::kInt64},
                                          {"iv", ValueType::kInt64}})
                                .ValueOrDie();
  SchemaPtr base_schema =
      Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  ExprPtr theta = And(And(Eq(RCol("g"), BCol("g")),
                          Gt(RCol("iv"), Lit(Value(int64_t{10})))),
                      Gt(RCol("iv"), Lit(Value(int64_t{95}))));
  CompiledPredicate pred =
      CompilePredicate(ClassifyCondition(theta), *base_schema, *detail_schema,
                       hints)
          .ValueOrDie();
  ASSERT_EQ(pred.detail.size(), 2u);
  EXPECT_EQ(pred.detail[0].ilit, 95);
  EXPECT_EQ(pred.detail[1].ilit, 10);
  EXPECT_LT(pred.detail[0].selectivity, pred.detail[1].selectivity);
}

TEST(ColumnarEngineTest, DistributedExecutionMatches) {
  Table detail = MakeDetail(17, 900);
  ExecutorOptions columnar_options;
  columnar_options.engine = EvalEngine::kColumnar;
  DistributedWarehouse row_dw(4);
  DistributedWarehouse col_dw(4, NetworkConfig{}, columnar_options);
  row_dw.AddTablePartitionedBy("d", detail, "g", {"h", "iv"}).Check();
  col_dw.AddTablePartitionedBy("d", detail, "g", {"h", "iv"}).Check();

  // Mixed query: md1 pure equality (grouped kernels at the sites), md2
  // correlated (candidate-filter kernels) — both vectorized now.
  GmdjExpr expr;
  expr.base = BaseQuery{"d", {"g"}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "d";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c1"}, {AggKind::kSum, "iv", "s1"}},
      Eq(RCol("g"), BCol("g"))});
  GmdjOp md2;
  md2.detail_table = "d";
  md2.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c2"}},
      And(Eq(RCol("g"), BCol("g")), Ge(RCol("iv"), BCol("s1")))});
  expr.ops = {md1, md2};

  for (const OptimizerOptions& opts :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    Table row_result = row_dw.Execute(expr, opts).ValueOrDie();
    Table col_result = col_dw.Execute(expr, opts).ValueOrDie();
    EXPECT_TRUE(col_result.SameRows(row_result))
        << "opts=" << opts.ToString();
  }
}

}  // namespace
}  // namespace skalla
