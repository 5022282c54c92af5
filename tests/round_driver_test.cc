// RoundDriver: every active site of a round is dispatched at once and the
// fragments merge in site order. Covers the overlap itself (a round lasts
// about as long as its slowest site, not the sum), byte-identity when
// sites finish out of order, error propagation while other sites are
// still running (no task outlives Execute), and determinism across runs.
// Run under TSan and ASan/UBSan in CI.

#include "dist/round_driver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "common/random.h"
#include "dist/exec.h"
#include "dist/fault.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "rpc/rpc_executor.h"
#include "rpc/transport.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;

Table MakeFlow(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"DAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64},
                                   {"W", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 15)),
                       Value(rng.UniformInt(0, 5)),
                       Value(rng.UniformInt(1, 400)),
                       Value(rng.NextDouble() * 1e3)});
  }
  return t;
}

// Example 1 of the paper plus a floating-point sum: merge order shows in
// the last bits of `w` if fragments were merged in arrival order.
GmdjExpr Example1() {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS", "DAS"}, true, nullptr};
  ExprPtr group = And(Eq(RCol("SAS"), BCol("SAS")),
                      Eq(RCol("DAS"), BCol("DAS")));
  GmdjOp md1;
  md1.detail_table = "flow";
  md1.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "cnt1"},
                                  {AggKind::kSum, "NB", "sum1"},
                                  {AggKind::kSum, "W", "w"}},
                                 group});
  GmdjOp md2;
  md2.detail_table = "flow";
  md2.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "cnt2"}},
                And(group, Ge(RCol("NB"), Div(BCol("sum1"), BCol("cnt1"))))});
  expr.ops = {md1, md2};
  return expr;
}

std::vector<Site> MakeSites(const std::vector<Table>& parts) {
  std::vector<Site> sites;
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("flow", parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  return sites;
}

bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

// Sleeps in BeforeSiteRound at the listed sites (all sites when empty);
// fails every attempt at `failing_site` right away. Counts attempts that
// started and finished, so a test can tell whether any is still running.
class SleepInjector : public FaultInjector {
 public:
  SleepInjector(int ms, std::set<int> slow_sites, int failing_site = -1)
      : ms_(ms), slow_(std::move(slow_sites)), failing_(failing_site) {}

  Status BeforeSiteRound(int site, const std::string& round) override {
    (void)round;
    ++started_;
    if (site == failing_) return Status::IOError("site failed");
    if (slow_.empty() || slow_.count(site) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    }
    return Status::OK();
  }

  Status AfterSiteRound(int site, const std::string& round,
                        const Status& status) override {
    (void)site;
    (void)round;
    (void)status;
    ++finished_;
    return Status::OK();
  }

  int started() const { return started_.load(); }
  int finished() const { return finished_.load(); }

 private:
  int ms_;
  std::set<int> slow_;
  int failing_;
  std::atomic<int> started_{0};
  std::atomic<int> finished_{0};
};

struct Fixture {
  Fixture() {
    flow = MakeFlow(71, 800);
    parts = PartitionByValue(flow, "SAS", kSites).ValueOrDie();
    DistributedWarehouse dw(kSites);
    dw.AddPartitionedTable("flow", parts, {"SAS", "DAS", "NB"}).Check();
    plan = dw.Plan(Example1(), OptimizerOptions::None()).ValueOrDie();
    expected = dw.ExecuteCentralized(Example1()).ValueOrDie();
  }
  Table flow;
  std::vector<Table> parts;
  DistributedPlan plan;
  Table expected;
};

ExecutorOptions InjectorOptions(FaultInjector* injector) {
  ExecutorOptions options;
  options.fault_injector = injector;
  return options;
}

TEST(RoundDriverTest, StarRoundLastsAboutAsLongAsItsSlowestSite) {
  Fixture fx;
  SleepInjector injector(/*ms=*/30, {});
  DistributedExecutor executor(MakeSites(fx.parts), NetworkConfig{},
                               InjectorOptions(&injector));
  ExecStats stats;
  Table result = executor.Execute(fx.plan, &stats).ValueOrDie();
  EXPECT_TRUE(result.SameRows(fx.expected));
  for (const RoundStats& r : stats.rounds) {
    SCOPED_TRACE(r.label);
    EXPECT_GE(r.site_time_sum, kSites * 0.030);
    EXPECT_LT(r.wall_time, r.site_time_sum / 2);
    EXPECT_GE(r.wall_time, r.site_time_max);
  }
}

TEST(RoundDriverTest, RpcRoundLastsAboutAsLongAsItsSlowestSite) {
  Fixture fx;
  SleepInjector injector(/*ms=*/30, {});
  rpc::RpcExecutor executor(
      std::make_unique<rpc::InProcessTransport>(MakeSites(fx.parts)),
      InjectorOptions(&injector));
  ExecStats stats;
  Table result = executor.Execute(fx.plan, &stats).ValueOrDie();
  EXPECT_TRUE(result.SameRows(fx.expected));
  for (const RoundStats& r : stats.rounds) {
    SCOPED_TRACE(r.label);
    EXPECT_LT(r.wall_time, r.site_time_sum / 2);
  }
}

TEST(RoundDriverTest, OutOfOrderCompletionIsByteIdentical) {
  Fixture fx;
  DistributedExecutor plain(MakeSites(fx.parts));
  ExecStats plain_stats;
  Table reference = plain.Execute(fx.plan, &plain_stats).ValueOrDie();
  ASSERT_TRUE(reference.SameRows(fx.expected));

  // Site 0 finishing last makes every other fragment wait for it; the
  // last site finishing last is the arrival order a sequential loop has.
  for (int slow : {0, static_cast<int>(kSites) - 1}) {
    SCOPED_TRACE(slow);
    SleepInjector injector(/*ms=*/40, {slow});
    DistributedExecutor executor(MakeSites(fx.parts), NetworkConfig{},
                                 InjectorOptions(&injector));
    ExecStats stats;
    Table result = executor.Execute(fx.plan, &stats).ValueOrDie();
    EXPECT_TRUE(ExactlyEqual(result, reference));
    ASSERT_EQ(stats.rounds.size(), plain_stats.rounds.size());
    for (size_t k = 0; k < stats.rounds.size(); ++k) {
      const RoundStats& a = stats.rounds[k];
      const RoundStats& b = plain_stats.rounds[k];
      SCOPED_TRACE(a.label);
      EXPECT_EQ(a.bytes_to_sites, b.bytes_to_sites);
      EXPECT_EQ(a.bytes_to_coord, b.bytes_to_coord);
      EXPECT_EQ(a.tuples_to_sites, b.tuples_to_sites);
      EXPECT_EQ(a.tuples_to_coord, b.tuples_to_coord);
      EXPECT_DOUBLE_EQ(a.comm_time, b.comm_time);
      ASSERT_EQ(a.site_profiles.size(), b.site_profiles.size());
      for (size_t i = 0; i < a.site_profiles.size(); ++i) {
        EXPECT_EQ(a.site_profiles[i].site_id, b.site_profiles[i].site_id);
        EXPECT_EQ(a.site_profiles[i].bytes_in, b.site_profiles[i].bytes_in);
        EXPECT_EQ(a.site_profiles[i].bytes_out, b.site_profiles[i].bytes_out);
        EXPECT_EQ(a.site_profiles[i].result_rows,
                  b.site_profiles[i].result_rows);
      }
    }
  }
}

TEST(RoundDriverTest, SiteErrorWhileOthersRunIsReturnedAndJoined) {
  Fixture fx;
  for (int failing : {0, 2}) {
    SCOPED_TRACE(failing);
    SleepInjector injector(/*ms=*/50, {}, failing);
    DistributedExecutor executor(MakeSites(fx.parts), NetworkConfig{},
                                 InjectorOptions(&injector));
    Result<Table> result = executor.Execute(fx.plan, nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
    // Every attempt that started has finished: no site task outlives
    // Execute, even the ones still sleeping when the error surfaced.
    EXPECT_EQ(injector.started(), injector.finished());
  }
}

TEST(RoundDriverTest, SiteErrorsPropagate) {
  // Site 1's catalog is missing the detail relation: the error must
  // surface, not hang or crash.
  Fixture fx;
  std::vector<Site> sites;
  for (size_t i = 0; i < kSites; ++i) {
    Catalog catalog;
    if (i != 1) catalog.Register("flow", fx.parts[i]);
    sites.emplace_back(static_cast<int>(i), std::move(catalog));
  }
  DistributedExecutor executor(std::move(sites));
  Result<Table> result = executor.Execute(fx.plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
}

TEST(RoundDriverTest, RepeatedRunsAreDeterministic) {
  // Completion order varies across runs; merged results must not, row
  // order included — on one executor and across fresh ones.
  Fixture fx;
  DistributedExecutor executor(MakeSites(fx.parts));
  Table first = executor.Execute(fx.plan, nullptr).ValueOrDie();
  for (int run = 0; run < 5; ++run) {
    SCOPED_TRACE(run);
    EXPECT_TRUE(ExactlyEqual(executor.Execute(fx.plan, nullptr).ValueOrDie(),
                             first));
    DistributedExecutor fresh(MakeSites(fx.parts));
    EXPECT_TRUE(
        ExactlyEqual(fresh.Execute(fx.plan, nullptr).ValueOrDie(), first));
  }
}

TEST(RoundDriverTest, ConcurrentQueriesShareThePool) {
  Fixture fx;
  DistributedExecutor executor(MakeSites(fx.parts));
  Table reference = executor.Execute(fx.plan, nullptr).ValueOrDie();
  std::vector<Table> results(6);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < results.size(); ++c) {
    clients.emplace_back([&, c] {
      results[c] = executor.Execute(fx.plan, nullptr).ValueOrDie();
    });
  }
  for (std::thread& t : clients) t.join();
  for (const Table& result : results) {
    EXPECT_TRUE(ExactlyEqual(result, reference));
  }
}

TEST(RoundDriverTest, ValidatePlanRejectsBadShapes) {
  Fixture fx;
  EXPECT_TRUE(ValidatePlan(fx.plan, kSites).ok());
  EXPECT_TRUE(ValidatePlan(fx.plan, 0).IsInvalidArgument());
  DistributedPlan unsynced = fx.plan;
  unsynced.stages.back().sync_after = false;
  EXPECT_TRUE(ValidatePlan(unsynced, kSites).IsInvalidArgument());
  DistributedPlan filtered = fx.plan;
  filtered.stages[0].site_base_filters.assign(kSites + 1, nullptr);
  EXPECT_TRUE(ValidatePlan(filtered, kSites).IsInvalidArgument());
}

}  // namespace
}  // namespace skalla
