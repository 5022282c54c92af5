// Warehouse persistence: Save/Load round-trips partitions, tracked
// distribution knowledge, and query behavior.

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>

#include "data/flow_gen.h"
#include "dist/warehouse.h"
#include "sql/parser.h"

namespace skalla {
namespace {

class WarehousePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_warehouse_test";
    mkdir(dir_.c_str(), 0755);
  }

  void TearDown() override {
    // Best-effort cleanup of the files this test writes.
    std::remove((dir_ + "/MANIFEST").c_str());
    for (int i = 0; i < 8; ++i) {
      std::remove(
          (dir_ + "/flow.part" + std::to_string(i) + ".skt").c_str());
    }
  }

  std::string dir_;
};

TEST_F(WarehousePersistenceTest, SaveLoadRoundTrip) {
  FlowConfig config;
  config.num_flows = 3000;
  config.num_routers = 3;
  Table flow = GenerateFlows(config);

  DistributedWarehouse original(3);
  original
      .AddTablePartitionedBy("flow", flow, "RouterId",
                             {"SourceAS", "NumBytes"})
      .Check();
  original.Save(dir_).Check();

  DistributedWarehouse loaded =
      DistributedWarehouse::Load(dir_).ValueOrDie();
  EXPECT_EQ(loaded.num_sites(), 3u);

  // Distribution knowledge was recomputed from the manifest's tracked
  // columns, so the optimizer behaves identically.
  ASSERT_NE(loaded.partition_info("flow"), nullptr);
  EXPECT_TRUE(loaded.partition_info("flow")->IsPartitionAttribute(
      "SourceAS"));

  GmdjExpr query = ParseQuery(R"(
    BASE SELECT DISTINCT SourceAS FROM flow;
    MD USING flow
       COMPUTE COUNT(*) AS c, SUM(NumBytes) AS s
       WHERE r.SourceAS = b.SourceAS;
  )").ValueOrDie();

  ExecStats original_stats;
  ExecStats loaded_stats;
  Table original_result =
      original.Execute(query, OptimizerOptions::All(), &original_stats)
          .ValueOrDie();
  Table loaded_result =
      loaded.Execute(query, OptimizerOptions::All(), &loaded_stats)
          .ValueOrDie();
  EXPECT_TRUE(loaded_result.SameRows(original_result));
  EXPECT_EQ(loaded_stats.TotalBytes(), original_stats.TotalBytes());
  EXPECT_EQ(loaded_stats.NumSyncRounds(), original_stats.NumSyncRounds());
}

TEST_F(WarehousePersistenceTest, LoadErrors) {
  EXPECT_TRUE(DistributedWarehouse::Load("/tmp/definitely_missing_dir_x")
                  .status()
                  .IsIOError());
  // Corrupt manifest.
  std::string path = dir_ + "/MANIFEST";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a manifest\n", f);
    std::fclose(f);
  }
  EXPECT_TRUE(DistributedWarehouse::Load(dir_).status().IsIOError());
}

// The site count sizes per-site state before any partition is read, so
// a hostile MANIFEST must be refused before anything is allocated: a
// 40-byte file announcing 10^12 sites used to abort the process with an
// uncaught std::bad_alloc.
TEST_F(WarehousePersistenceTest, HostileSiteCountIsIOError) {
  const std::string path = dir_ + "/MANIFEST";
  auto write_manifest = [&](const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text.c_str(), f);
    std::fclose(f);
  };
  const char* const counts[] = {
      "1000000000000",            // far beyond kMaxWarehouseSites
      "99999999999999999999999",  // overflows 64 bits
      "65537",                    // one past kMaxWarehouseSites
      "3x",                       // trailing garbage
      "3 ",                       // trailing space
      "-1",                       // not a count
      " 3",                       // leading space
      "",                         // missing
      "0",                        // zero sites
  };
  for (const char* header :
       {"skalla-warehouse 1", "skalla-warehouse 2 chunked"}) {
    for (const char* count : counts) {
      write_manifest(std::string(header) + "\nsites " + count + "\n");
      Result<DistributedWarehouse> loaded = DistributedWarehouse::Load(dir_);
      EXPECT_TRUE(loaded.status().IsIOError())
          << header << " / sites '" << count
          << "': " << loaded.status().ToString();
      EXPECT_TRUE(ReadWarehouseManifest(dir_).status().IsIOError())
          << header << " / sites '" << count << "'";
    }
  }

  // The largest allowed count still parses.
  write_manifest("skalla-warehouse 1\nsites 65536\n");
  WarehouseManifest manifest = ReadWarehouseManifest(dir_).ValueOrDie();
  EXPECT_EQ(manifest.num_sites, kMaxWarehouseSites);
}

}  // namespace
}  // namespace skalla
