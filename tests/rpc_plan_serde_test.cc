// Round trips for the plan-shaped rpc payloads: expressions, schemas,
// statuses (error codes must survive the wire), base queries, GMDJ
// operators, and the request/response structs built from them.

#include "rpc/plan_serde.h"

#include <gtest/gtest.h>

#include "expr/builder.h"
#include "types/value.h"

namespace skalla {
namespace rpc {
namespace {

TEST(PlanSerdeTest, StringsRoundTrip) {
  std::vector<uint8_t> buffer;
  WriteString(&buffer, "flow");
  WriteString(&buffer, "");
  WriteString(&buffer, std::string("emb\0edded", 9));
  ByteReader reader(buffer.data(), buffer.size());
  EXPECT_EQ(ReadString(&reader).ValueOrDie(), "flow");
  EXPECT_EQ(ReadString(&reader).ValueOrDie(), "");
  EXPECT_EQ(ReadString(&reader).ValueOrDie(), std::string("emb\0edded", 9));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(PlanSerdeTest, ExpressionsRoundTrip) {
  ExprPtr expr = And(Eq(RCol("SourceAS"), BCol("SourceAS")),
                     Ge(RCol("NumBytes"), Div(BCol("sum1"), BCol("cnt1"))));
  std::vector<uint8_t> buffer;
  WriteExpr(&buffer, expr);
  ByteReader reader(buffer.data(), buffer.size());
  ExprPtr decoded = ReadExpr(&reader).ValueOrDie();
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->Equals(*expr))
      << decoded->ToString() << " vs " << expr->ToString();
}

TEST(PlanSerdeTest, LiteralsSurviveEncoding) {
  ExprPtr expr = Or(Eq(RCol("DestPort"), Lit(Value(int64_t{443}))),
                    Gt(RCol("ratio"), Lit(Value(2.5))));
  std::vector<uint8_t> buffer;
  WriteExpr(&buffer, expr);
  ByteReader reader(buffer.data(), buffer.size());
  ExprPtr decoded = ReadExpr(&reader).ValueOrDie();
  EXPECT_TRUE(decoded->Equals(*expr));
}

TEST(PlanSerdeTest, NullExpressionRoundTrips) {
  std::vector<uint8_t> buffer;
  WriteExpr(&buffer, nullptr);
  ByteReader reader(buffer.data(), buffer.size());
  ExprPtr decoded = ReadExpr(&reader).ValueOrDie();
  EXPECT_EQ(decoded, nullptr);
}

TEST(PlanSerdeTest, SchemasRoundTrip) {
  SchemaPtr schema = Schema::Make({{"SourceAS", ValueType::kInt64},
                                   {"name", ValueType::kString},
                                   {"avg", ValueType::kFloat64}})
                         .ValueOrDie();
  std::vector<uint8_t> buffer;
  WriteSchema(&buffer, *schema);
  ByteReader reader(buffer.data(), buffer.size());
  SchemaPtr decoded = ReadSchema(&reader).ValueOrDie();
  EXPECT_TRUE(decoded->Equals(*schema));
}

TEST(PlanSerdeTest, StatusCodesSurviveTheWire) {
  // The kError payload must reproduce the site's exact code — this is
  // what lets a coordinator distinguish a site-side NotFound from a
  // transport failure.
  const Status statuses[] = {
      Status::InvalidArgument("bad arg"), Status::NotFound("no table"),
      Status::Internal("boom"),           Status::IOError("disk"),
      Status::TypeError("t"),             Status::VersionMismatch("v"),
      Status::DeadlineExceeded("round budget spent"),
  };
  for (const Status& status : statuses) {
    std::vector<uint8_t> payload;
    WriteStatusPayload(&payload, status);
    Status decoded = ReadStatusPayload(payload);
    EXPECT_EQ(decoded.code(), status.code()) << status.ToString();
    EXPECT_EQ(decoded.message(), status.message());
  }
}

TEST(PlanSerdeTest, MalformedStatusPayloadIsIOError) {
  EXPECT_TRUE(ReadStatusPayload({}).IsIOError());
  EXPECT_TRUE(ReadStatusPayload({0xFF, 0xFF, 0xFF}).IsIOError());
}

TEST(PlanSerdeTest, BaseQueriesRoundTrip) {
  BaseQuery query;
  query.table = "flow";
  query.columns = {"SourceAS", "DestAS"};
  query.distinct = true;
  query.where = Gt(RCol("NumPackets"), Lit(Value(int64_t{100})));

  std::vector<uint8_t> buffer;
  WriteBaseQuery(&buffer, query);
  ByteReader reader(buffer.data(), buffer.size());
  BaseQuery decoded = ReadBaseQuery(&reader).ValueOrDie();
  EXPECT_EQ(decoded.table, query.table);
  EXPECT_EQ(decoded.columns, query.columns);
  EXPECT_EQ(decoded.distinct, query.distinct);
  ASSERT_NE(decoded.where, nullptr);
  EXPECT_TRUE(decoded.where->Equals(*query.where));

  // And without a predicate.
  BaseQuery bare{"tpcr", {"Clerk"}, false, nullptr};
  buffer.clear();
  WriteBaseQuery(&buffer, bare);
  ByteReader bare_reader(buffer.data(), buffer.size());
  BaseQuery bare_decoded = ReadBaseQuery(&bare_reader).ValueOrDie();
  EXPECT_EQ(bare_decoded.table, "tpcr");
  EXPECT_FALSE(bare_decoded.distinct);
  EXPECT_EQ(bare_decoded.where, nullptr);
}

GmdjOp ExampleOp() {
  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt"}, {AggKind::kSum, "NumBytes", "sum"}},
      Eq(RCol("SourceAS"), BCol("SourceAS"))});
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kAvg, "NumPackets", "avg_pkts"}},
      And(Eq(RCol("SourceAS"), BCol("SourceAS")),
          Ge(RCol("NumBytes"), BCol("sum")))});
  return op;
}

TEST(PlanSerdeTest, GmdjOpsRoundTrip) {
  GmdjOp op = ExampleOp();
  std::vector<uint8_t> buffer;
  WriteGmdjOp(&buffer, op);
  ByteReader reader(buffer.data(), buffer.size());
  GmdjOp decoded = ReadGmdjOp(&reader).ValueOrDie();
  EXPECT_EQ(decoded.detail_table, op.detail_table);
  ASSERT_EQ(decoded.blocks.size(), op.blocks.size());
  for (size_t b = 0; b < op.blocks.size(); ++b) {
    ASSERT_EQ(decoded.blocks[b].aggs.size(), op.blocks[b].aggs.size());
    for (size_t a = 0; a < op.blocks[b].aggs.size(); ++a) {
      EXPECT_EQ(decoded.blocks[b].aggs[a].kind, op.blocks[b].aggs[a].kind);
      EXPECT_EQ(decoded.blocks[b].aggs[a].input, op.blocks[b].aggs[a].input);
      EXPECT_EQ(decoded.blocks[b].aggs[a].output,
                op.blocks[b].aggs[a].output);
    }
    EXPECT_TRUE(decoded.blocks[b].theta->Equals(*op.blocks[b].theta));
  }
}

TEST(PlanSerdeTest, BeginPlanRequestRoundTrips) {
  for (size_t eval_threads : {size_t{0}, size_t{1}, size_t{8}}) {
    for (uint64_t query_id : {uint64_t{0}, uint64_t{7}, uint64_t{1} << 40}) {
      for (EvalEngine engine :
           {EvalEngine::kAuto, EvalEngine::kRow, EvalEngine::kColumnar}) {
        BeginPlanRequest request;
        request.eval_threads = eval_threads;
        request.query_id = query_id;
        request.engine = engine;
        std::vector<uint8_t> payload = EncodeBeginPlanRequest(request);
        BeginPlanRequest decoded =
            DecodeBeginPlanRequest(payload).ValueOrDie();
        EXPECT_EQ(decoded.eval_threads, eval_threads);
        EXPECT_EQ(decoded.query_id, query_id);
        EXPECT_EQ(decoded.engine, engine);
        // v8 has no flags byte: a v7-shaped payload (a leading flags
        // byte) and trailing bytes do not decode.
        std::vector<uint8_t> v7 = payload;
        v7.insert(v7.begin(), uint8_t{0});
        EXPECT_FALSE(DecodeBeginPlanRequest(v7).ok());
        payload.push_back(0);
        EXPECT_FALSE(DecodeBeginPlanRequest(payload).ok());
      }
    }
  }
}

TEST(PlanSerdeTest, EndPlanRequestRoundTrips) {
  for (uint64_t query_id : {uint64_t{0}, uint64_t{42}, uint64_t{1} << 50}) {
    uint64_t decoded =
        DecodeEndPlanRequest(EncodeEndPlanRequest(query_id)).ValueOrDie();
    EXPECT_EQ(decoded, query_id);
  }
  EXPECT_FALSE(DecodeEndPlanRequest({}).ok());
}

TEST(PlanSerdeTest, BeginPlanRequestRejectsUnknownEngine) {
  // v6 appended the engine varint; values past kColumnar are foreign.
  BeginPlanRequest request;
  request.engine = EvalEngine::kColumnar;
  std::vector<uint8_t> wire = EncodeBeginPlanRequest(request);
  ASSERT_EQ(wire.back(), 2);  // kColumnar, single-byte varint.
  wire.back() = 7;
  EXPECT_FALSE(DecodeBeginPlanRequest(wire).ok());
}

TEST(PlanSerdeTest, BeginPlanRequestRejectsTruncatedPayload) {
  // A payload cut short (eval_threads only, no query id or engine) must
  // not decode silently, nor must an empty one.
  EXPECT_FALSE(DecodeBeginPlanRequest({0}).ok());
  EXPECT_FALSE(DecodeBeginPlanRequest({}).ok());
}

TEST(PlanSerdeTest, BaseRoundRequestRoundTrips) {
  BaseRoundRequest request;
  request.query = BaseQuery{"flow", {"SourceAS"}, true, nullptr};
  request.ship_result = false;
  BaseRoundRequest decoded =
      DecodeBaseRoundRequest(EncodeBaseRoundRequest(request)).ValueOrDie();
  EXPECT_EQ(decoded.query.table, "flow");
  EXPECT_EQ(decoded.query.columns, request.query.columns);
  EXPECT_FALSE(decoded.ship_result);
  EXPECT_EQ(decoded.deadline_ms, 0u);
}

TEST(PlanSerdeTest, RoundRequestDeadlinesSurviveTheWire) {
  // deadline_ms is how a coordinator's round/query budget reaches the
  // site-side cancellation token (protocol v3).
  for (uint64_t deadline : {uint64_t{1}, uint64_t{250}, uint64_t{1} << 40}) {
    BaseRoundRequest base;
    base.query = BaseQuery{"flow", {"SourceAS"}, true, nullptr};
    base.deadline_ms = deadline;
    BaseRoundRequest base_decoded =
        DecodeBaseRoundRequest(EncodeBaseRoundRequest(base)).ValueOrDie();
    EXPECT_EQ(base_decoded.deadline_ms, deadline);

    GmdjRoundRequest gmdj;
    gmdj.op = ExampleOp();
    gmdj.label = "md1";
    gmdj.deadline_ms = deadline;
    GmdjRoundRequest gmdj_decoded =
        DecodeGmdjRoundRequest(EncodeGmdjRoundRequest(gmdj, {}))
            .ValueOrDie();
    EXPECT_EQ(gmdj_decoded.deadline_ms, deadline);
  }
}

TEST(PlanSerdeTest, RoundRequestRejectsPayloadTruncatedAtDeadline) {
  // A flags byte with nothing after it (a version-2 BaseRound shape)
  // must not decode: the deadline varint is required in v3.
  EXPECT_FALSE(DecodeBaseRoundRequest({0}).ok());
  EXPECT_FALSE(DecodeGmdjRoundRequest({0}).ok());
}

TEST(PlanSerdeTest, GmdjRoundRequestRoundTripsWithBaseTable) {
  SchemaPtr schema = Schema::Make({{"SourceAS", ValueType::kInt64}})
                         .ValueOrDie();
  Table base(schema);
  base.AppendUnchecked({Value(int64_t{4})});
  base.AppendUnchecked({Value(int64_t{9})});
  std::vector<uint8_t> base_bytes;
  WriteTable(base, &base_bytes);

  GmdjRoundRequest request;
  request.op = ExampleOp();
  request.label = "md2";
  request.sub_aggregates = true;
  request.apply_rng = true;
  request.ship_result = true;
  request.has_base = true;
  GmdjRoundRequest decoded =
      DecodeGmdjRoundRequest(EncodeGmdjRoundRequest(request, base_bytes))
          .ValueOrDie();
  EXPECT_EQ(decoded.label, "md2");
  EXPECT_TRUE(decoded.sub_aggregates);
  EXPECT_TRUE(decoded.apply_rng);
  EXPECT_TRUE(decoded.ship_result);
  ASSERT_TRUE(decoded.has_base);
  ASSERT_EQ(decoded.base.num_rows(), 2u);
  EXPECT_EQ(decoded.base.at(1, 0).int64(), 9);
  EXPECT_EQ(decoded.op.detail_table, "flow");
}

TEST(PlanSerdeTest, GmdjRoundRequestWithoutBase) {
  GmdjRoundRequest request;
  request.op = ExampleOp();
  request.label = "md1";
  request.has_base = false;
  GmdjRoundRequest decoded =
      DecodeGmdjRoundRequest(EncodeGmdjRoundRequest(request, {}))
          .ValueOrDie();
  EXPECT_FALSE(decoded.has_base);
  EXPECT_EQ(decoded.base.num_rows(), 0u);
}

TEST(PlanSerdeTest, CatalogResponseRoundTrips) {
  std::vector<CatalogEntry> entries;
  entries.push_back(
      {"flow", Schema::Make({{"SourceAS", ValueType::kInt64},
                             {"NumBytes", ValueType::kInt64}})
                   .ValueOrDie()});
  entries.push_back(
      {"tpcr", Schema::Make({{"Clerk", ValueType::kString}}).ValueOrDie()});
  std::vector<CatalogEntry> decoded =
      DecodeCatalogResponse(EncodeCatalogResponse(entries)).ValueOrDie();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "flow");
  EXPECT_TRUE(decoded[0].schema->Equals(*entries[0].schema));
  EXPECT_EQ(decoded[1].name, "tpcr");
  EXPECT_TRUE(decoded[1].schema->Equals(*entries[1].schema));
}

TEST(PlanSerdeTest, HelloRoundTrips) {
  for (int site : {0, 3, 4096}) {
    EXPECT_EQ(DecodeHello(EncodeHello(site)).ValueOrDie(), site);
  }
}

TEST(PlanSerdeTest, TraceContextRidesEveryRoundRequest) {
  // v4: both round request shapes carry the trace context after the
  // deadline; zeros (the untraced default) round-trip too.
  for (uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
    TraceContext trace;
    trace.trace_id = seed * 1000003;
    trace.parent_span_id = seed * 17;
    trace.query_id = seed * 3;

    BaseRoundRequest base;
    base.query = BaseQuery{"flow", {"SourceAS"}, true, nullptr};
    base.trace = trace;
    BaseRoundRequest base_decoded =
        DecodeBaseRoundRequest(EncodeBaseRoundRequest(base)).ValueOrDie();
    EXPECT_EQ(base_decoded.trace.trace_id, trace.trace_id);
    EXPECT_EQ(base_decoded.trace.parent_span_id, trace.parent_span_id);
    EXPECT_EQ(base_decoded.trace.query_id, trace.query_id);

    GmdjRoundRequest gmdj;
    gmdj.op = ExampleOp();
    gmdj.label = "md1";
    gmdj.trace = trace;
    GmdjRoundRequest gmdj_decoded =
        DecodeGmdjRoundRequest(EncodeGmdjRoundRequest(gmdj, {}))
            .ValueOrDie();
    EXPECT_EQ(gmdj_decoded.trace.trace_id, trace.trace_id);
    EXPECT_EQ(gmdj_decoded.trace.parent_span_id, trace.parent_span_id);
    EXPECT_EQ(gmdj_decoded.trace.query_id, trace.query_id);
  }
}

TEST(PlanSerdeTest, GmdjRoundRequestReportsBaseTableBytes) {
  SchemaPtr schema =
      Schema::Make({{"SourceAS", ValueType::kInt64}}).ValueOrDie();
  Table base(schema);
  base.AppendUnchecked({Value(int64_t{4})});
  std::vector<uint8_t> base_bytes;
  WriteTable(base, &base_bytes);

  GmdjRoundRequest request;
  request.op = ExampleOp();
  request.has_base = true;
  GmdjRoundRequest decoded =
      DecodeGmdjRoundRequest(EncodeGmdjRoundRequest(request, base_bytes))
          .ValueOrDie();
  // The decoder reports the table tail's size so the site can account
  // its inbound payload bytes without re-serializing.
  EXPECT_EQ(decoded.base_table_bytes, base_bytes.size());

  GmdjRoundRequest no_base;
  no_base.op = ExampleOp();
  no_base.has_base = false;
  EXPECT_EQ(DecodeGmdjRoundRequest(EncodeGmdjRoundRequest(no_base, {}))
                .ValueOrDie()
                .base_table_bytes,
            0u);
}

RoundProfile ExampleProfile() {
  RoundProfile profile;
  profile.site_id = 3;
  profile.wall_us = 1234;
  profile.eval_us = 1100;
  profile.morsel_us = 2048;
  profile.rows_scanned = 50000;
  profile.rows_matched = 1212;
  profile.index_hits = 47;
  profile.bytes_in = 888;
  profile.bytes_out = 999;
  profile.result_rows = 21;
  profile.duplicate_rounds = 1;
  profile.chaos_faults = 2;
  profile.engines_used = kEngineBitRow | kEngineBitColumnar;
  profile.chunks_pruned = 6;
  profile.pages_pinned = 420;
  profile.pages_missed = 57;
  profile.page_bytes_loaded = 1311000;
  obs::TraceEvent span;
  span.name = "site.round:md1";
  span.category = "site";
  span.ts_us = 10;
  span.dur_us = 90;
  span.id = 77;
  span.parent_id = 0;
  span.tid = 5;
  span.attrs = {{"site", "3"}, {"label", "md1"}};
  profile.spans.push_back(span);
  obs::TraceEvent child = span;
  child.name = "morsel";
  child.id = 78;
  child.parent_id = 77;
  child.attrs.clear();
  profile.spans.push_back(child);
  return profile;
}

void ExpectProfileEq(const RoundProfile& a, const RoundProfile& b) {
  EXPECT_EQ(a.site_id, b.site_id);
  EXPECT_EQ(a.wall_us, b.wall_us);
  EXPECT_EQ(a.eval_us, b.eval_us);
  EXPECT_EQ(a.morsel_us, b.morsel_us);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.rows_matched, b.rows_matched);
  EXPECT_EQ(a.index_hits, b.index_hits);
  EXPECT_EQ(a.bytes_in, b.bytes_in);
  EXPECT_EQ(a.bytes_out, b.bytes_out);
  EXPECT_EQ(a.result_rows, b.result_rows);
  EXPECT_EQ(a.duplicate_rounds, b.duplicate_rounds);
  EXPECT_EQ(a.chaos_faults, b.chaos_faults);
  EXPECT_EQ(a.engines_used, b.engines_used);
  EXPECT_EQ(a.chunks_pruned, b.chunks_pruned);
  EXPECT_EQ(a.pages_pinned, b.pages_pinned);
  EXPECT_EQ(a.pages_missed, b.pages_missed);
  EXPECT_EQ(a.page_bytes_loaded, b.page_bytes_loaded);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].name, b.spans[i].name);
    EXPECT_EQ(a.spans[i].category, b.spans[i].category);
    EXPECT_EQ(a.spans[i].ts_us, b.spans[i].ts_us);
    EXPECT_EQ(a.spans[i].dur_us, b.spans[i].dur_us);
    EXPECT_EQ(a.spans[i].id, b.spans[i].id);
    EXPECT_EQ(a.spans[i].parent_id, b.spans[i].parent_id);
    EXPECT_EQ(a.spans[i].tid, b.spans[i].tid);
    EXPECT_EQ(a.spans[i].attrs, b.spans[i].attrs);
  }
}

TEST(PlanSerdeTest, RoundProfileRoundTrips) {
  RoundProfile profile = ExampleProfile();
  std::vector<uint8_t> buffer;
  WriteRoundProfile(&buffer, profile);
  ByteReader reader(buffer.data(), buffer.size());
  RoundProfile decoded = ReadRoundProfile(&reader).ValueOrDie();
  EXPECT_EQ(reader.remaining(), 0u);
  ExpectProfileEq(decoded, profile);
}

// Protocol v7: the page counts ride after engines_used as four varints.
// Large values survive, and a v6-shaped profile (nothing after
// engines_used but the span count) no longer decodes.
TEST(PlanSerdeTest, RoundProfilePageCountsRoundTrip) {
  RoundProfile profile;
  profile.site_id = 1;
  profile.engines_used = kEngineBitColumnar;
  profile.chunks_pruned = 3;
  profile.pages_pinned = uint64_t{1} << 40;
  profile.pages_missed = (uint64_t{1} << 33) + 1;
  profile.page_bytes_loaded = ~uint64_t{0};
  std::vector<uint8_t> buffer;
  WriteRoundProfile(&buffer, profile);
  ByteReader reader(buffer.data(), buffer.size());
  RoundProfile decoded = ReadRoundProfile(&reader).ValueOrDie();
  EXPECT_EQ(reader.remaining(), 0u);
  ExpectProfileEq(decoded, profile);

  RoundProfile zero;
  std::vector<uint8_t> v6;
  WriteRoundProfile(&v6, zero);
  v6.resize(v6.size() - 4);  // drop the four zero page-count varints
  ByteReader v6_reader(v6.data(), v6.size());
  EXPECT_FALSE(ReadRoundProfile(&v6_reader).ok());
}

TEST(PlanSerdeTest, RoundResultRoundTripsWithAndWithoutTable) {
  SchemaPtr schema =
      Schema::Make({{"SourceAS", ValueType::kInt64}}).ValueOrDie();
  Table table(schema);
  table.AppendUnchecked({Value(int64_t{4})});
  table.AppendUnchecked({Value(int64_t{9})});
  std::vector<uint8_t> table_bytes;
  WriteTable(table, &table_bytes);

  RoundProfile profile = ExampleProfile();
  RoundResult with_table =
      DecodeRoundResult(EncodeRoundResult(profile, &table_bytes))
          .ValueOrDie();
  ExpectProfileEq(with_table.profile, profile);
  ASSERT_TRUE(with_table.has_table);
  // The table tail must account byte-for-byte: this is what feeds
  // bytes_to_coord, pinned equal across all four engines.
  EXPECT_EQ(with_table.table_bytes, table_bytes.size());
  ASSERT_EQ(with_table.table.num_rows(), 2u);
  EXPECT_EQ(with_table.table.at(1, 0).int64(), 9);

  RoundResult without =
      DecodeRoundResult(EncodeRoundResult(profile, nullptr)).ValueOrDie();
  ExpectProfileEq(without.profile, profile);
  EXPECT_FALSE(without.has_table);
  EXPECT_EQ(without.table_bytes, 0u);
}

TEST(PlanSerdeTest, RoundResultRejectsTruncation) {
  RoundProfile profile = ExampleProfile();
  std::vector<uint8_t> payload = EncodeRoundResult(profile, nullptr);
  for (size_t cut : {size_t{0}, payload.size() / 2, payload.size() - 1}) {
    std::vector<uint8_t> truncated(payload.begin(),
                                   payload.begin() + cut);
    EXPECT_FALSE(DecodeRoundResult(truncated).ok()) << "cut at " << cut;
  }
}

TEST(PlanSerdeTest, StatsResultRoundTrips) {
  StatsResult stats;
  stats.site_id = 6;
  stats.metrics_json = "{\"counters\":{\"skalla.rpc.bytes.sent\":123}}";
  StatsResult decoded =
      DecodeStatsResult(EncodeStatsResult(stats)).ValueOrDie();
  EXPECT_EQ(decoded.site_id, 6);
  EXPECT_EQ(decoded.metrics_json, stats.metrics_json);
  EXPECT_FALSE(DecodeStatsResult({}).ok());
}

TEST(PlanSerdeTest, TruncatedPayloadsFailCleanly) {
  GmdjRoundRequest request;
  request.op = ExampleOp();
  std::vector<uint8_t> payload = EncodeGmdjRoundRequest(request, {});
  payload.resize(payload.size() / 2);
  EXPECT_FALSE(DecodeGmdjRoundRequest(payload).ok());
  EXPECT_FALSE(DecodeBeginPlanRequest({}).ok());
  EXPECT_FALSE(DecodeHello({}).ok());
}

// A single hostile length must come back as IOError, not abort the site
// with std::bad_alloc: every count that sizes an allocation is bounded by
// the bytes left in the payload.
TEST(PlanSerdeTest, HostileBaseQueryColumnCountIsIOError) {
  std::vector<uint8_t> payload = {0x00,              // flags
                                  0x00,              // deadline_ms
                                  0x00, 0x00, 0x00,  // empty trace context
                                  0x01, 't'};        // table "t"
  PutVarint(&payload, uint64_t{1} << 40);            // num_columns
  ASSERT_EQ(payload.size(), 13u);
  Result<BaseRoundRequest> decoded = DecodeBaseRoundRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status().ToString();
}

TEST(PlanSerdeTest, HostileGmdjOpCountsAreIOError) {
  const std::vector<uint8_t> prefix = {0x00,              // flags
                                       0x00,              // deadline_ms
                                       0x00, 0x00, 0x00,  // trace context
                                       0x00,              // label ""
                                       0x01, 'd'};        // detail table "d"
  std::vector<uint8_t> blocks = prefix;
  PutVarint(&blocks, uint64_t{1} << 40);  // num_blocks
  std::vector<uint8_t> aggs = prefix;
  PutVarint(&aggs, 1);                    // num_blocks
  PutVarint(&aggs, uint64_t{1} << 40);    // num_aggs
  for (const std::vector<uint8_t>& payload : {blocks, aggs}) {
    Result<GmdjRoundRequest> decoded = DecodeGmdjRoundRequest(payload);
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status().ToString();
  }
}

TEST(PlanSerdeTest, HostileCatalogEntryCountIsIOError) {
  std::vector<uint8_t> payload;
  PutVarint(&payload, uint64_t{1} << 40);  // entries
  Result<std::vector<CatalogEntry>> decoded = DecodeCatalogResponse(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsIOError()) << decoded.status().ToString();
}

// Counts that pass their caps but not the bytes left must fail on the
// count itself, before they size a reserve: a 21-byte round result
// announcing 2^20 spans (136-byte TraceEvents each) once reserved
// ~136 MiB before failing on its first span.
bool FailsOnCount(const Status& status) {
  return status.IsIOError() &&
         status.ToString().find("exceeds the remaining bytes") !=
             std::string::npos;
}

TEST(PlanSerdeTest, HostileProfileSpanCountIsIOError) {
  std::vector<uint8_t> payload = EncodeRoundResult(RoundProfile{}, nullptr);
  payload.pop_back();                       // the zero span count
  PutVarint(&payload, uint64_t{1} << 20);   // kMaxProfileSpans
  ASSERT_EQ(payload.size(), 21u);
  Result<RoundResult> decoded = DecodeRoundResult(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(FailsOnCount(decoded.status())) << decoded.status().ToString();
}

TEST(PlanSerdeTest, HostileAttributeAndFieldCountsAreIOError) {
  // One span of empty strings and zeros whose attribute count is
  // kMaxSpanAttrs, with nothing after it.
  RoundProfile profile;
  profile.spans.emplace_back();
  std::vector<uint8_t> spans;
  WriteRoundProfile(&spans, profile);
  spans.pop_back();  // the zero attribute count
  PutVarint(&spans, uint64_t{1} << 12);
  ByteReader span_reader(spans.data(), spans.size());
  Result<RoundProfile> decoded_profile = ReadRoundProfile(&span_reader);
  ASSERT_FALSE(decoded_profile.ok());
  EXPECT_TRUE(FailsOnCount(decoded_profile.status()))
      << decoded_profile.status().ToString();

  // A schema, and a table payload, announcing 2^20 fields in 3 bytes.
  std::vector<uint8_t> fields;
  PutVarint(&fields, uint64_t{1} << 20);
  ByteReader schema_reader(fields.data(), fields.size());
  Result<SchemaPtr> schema = ReadSchema(&schema_reader);
  ASSERT_FALSE(schema.ok());
  EXPECT_TRUE(FailsOnCount(schema.status())) << schema.status().ToString();
  Result<Table> table = ReadTable(fields.data(), fields.size());
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(FailsOnCount(table.status())) << table.status().ToString();
}

}  // namespace
}  // namespace rpc
}  // namespace skalla
