// DistributedExecutor: Alg. GMDJDistribEval of the paper over in-process
// Skalla sites and a simulated network. A thin shell around the
// RoundDriver (dist/round_driver.h): the executor is the in-process
// SiteLink — it calls Site::ExecuteBaseQuery / EvalGmdjRound directly,
// frames every shipped table exactly as the TCP transport would, and
// charges the shipments to its SimulatedNetwork (bytes and modeled
// time). Implements the unified skalla::Executor interface
// (dist/executor.h).

#ifndef SKALLA_DIST_EXEC_H_
#define SKALLA_DIST_EXEC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/executor.h"
#include "dist/plan.h"
#include "dist/round_driver.h"
#include "dist/site.h"
#include "net/network.h"

namespace skalla {

/// The in-process star executor. Owns the sites and the simulated
/// network; sites evaluate concurrently on the driver's pool.
class DistributedExecutor : public Executor, private SiteLink {
 public:
  explicit DistributedExecutor(std::vector<Site> sites,
                               NetworkConfig net_config = {},
                               ExecutorOptions options = {});

  using Executor::Execute;
  Result<Table> Execute(const DistributedPlan& plan, const QueryRun& run,
                        ExecStats* stats) override;

  /// Registers `replica` as another host of partition `partition`'s data
  /// (same catalog contents, its own site id). When the primary exhausts
  /// its retries, rounds fail over to replicas in registration order.
  void AddReplica(size_t partition, Site replica);

  const char* name() const override { return "star"; }
  size_t num_sites() const override { return sites_.size(); }
  SimulatedNetwork& network() { return network_; }

 private:
  class StarQuery;

  // SiteLink.
  size_t num_partitions() const override { return sites_.size(); }
  Status Prepare() override;
  Result<SchemaPtr> TableSchema(const std::string& table) const override;
  std::vector<int> ReplicaIds(size_t partition,
                              bool self_contained) const override;
  double ModelTransfer(int from, int to, uint64_t bytes) override;
  Result<std::unique_ptr<Query>> BeginQuery(const QueryRun& run,
                                            uint64_t query_id) override;

  SiteSet sites_;
  SimulatedNetwork network_;
  RoundDriver driver_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_EXEC_H_
