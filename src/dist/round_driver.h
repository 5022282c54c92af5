// RoundDriver: the one implementation of Alg. GMDJDistribEval's round
// loop. Every flat engine — the in-process star (DistributedExecutor) and
// the real-process rpc engine (rpc::RpcExecutor) — is a thin shell that
// owns a RoundDriver and implements SiteLink, the small interface through
// which the driver reaches a site. The driver owns everything else:
//
//   - plan and replica validation;
//   - the base round and each GMDJ round, with Theorem-4 filtering of the
//     global structure and site skipping (S_MD ⊂ S_B);
//   - the retry -> failover -> degrade ladder (ExecuteSiteRoundReplicated)
//     and lost-site bookkeeping;
//   - RoundStats / SiteRoundProfile accounting, counters and spans.
//
// A round dispatches every active site at once on the executor's one
// persistent pool (site 0 runs inline on the calling thread) and then
// consumes the results in site-index order: fragment i is merged while
// the sites after i are still computing. Merging in site order keeps
// every result row, every floating-point sum and every byte count equal
// to what a sequential loop over the sites produces. Every task is joined
// on every exit path, early error returns included.

#ifndef SKALLA_DIST_ROUND_DRIVER_H_
#define SKALLA_DIST_ROUND_DRIVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/eval_context.h"
#include "dist/executor.h"
#include "dist/plan.h"
#include "storage/table.h"
#include "types/schema.h"

namespace skalla {

/// Checks the plan shape every engine requires: at least one partition,
/// a synchronizing final stage (or a synchronized base query when there
/// are no stages), and one Theorem-4 site filter per partition when a
/// stage has filters at all.
Status ValidatePlan(const DistributedPlan& plan, size_t num_partitions);

/// One site round, as the driver hands it to a link.
struct RoundSpec {
  std::string label;  // "base", "md1", ...
  /// The base round's query; nullptr in a GMDJ round.
  const BaseQuery* base = nullptr;
  /// The GMDJ round's stage; nullptr in the base round.
  const PlanStage* stage = nullptr;
  /// How sites evaluate a GMDJ round (StageEvalContext, with the round's
  /// cancellation token and query id set; profile unset).
  EvalContext context;
  /// The site's result returns to the coordinator. Otherwise it stays at
  /// the site as the structure the next round evaluates against.
  bool ship_result = false;
  /// GMDJ rounds: the site receives its X_i (serialized in the `base`
  /// argument of SiteLink::Query::Run). Otherwise it evaluates against
  /// the structure it carried over from the previous round.
  bool has_base = false;
  /// Round budget shipped with the request: the tighter of the round
  /// deadline and the query budget left, 0 = none.
  uint64_t deadline_ms = 0;
  uint64_t query_id = 0;
  /// The round span, parent of the per-site spans; 0 = not tracing.
  uint64_t trace_parent = 0;
};

/// What one attempt of a site round reported, written by the link on the
/// site's task.
struct SiteCall {
  /// Table payload bytes of the fragment shipped back (0 when the result
  /// stayed at the site).
  uint64_t table_bytes = 0;
  /// Framed bytes the attempt moved (rpc only).
  uint64_t wire_bytes = 0;
  bool has_profile = false;
  SiteRoundProfile profile;
};

/// How the driver reaches sites. Implementations: the in-process star
/// (DistributedExecutor: calls Site directly, frames tables like the wire
/// does, charges SimulatedNetwork) and the rpc engine (frame exchanges
/// with site processes).
class SiteLink {
 public:
  /// Per-query link state, alive for one Execute call.
  class Query {
   public:
    virtual ~Query() = default;
    /// Runs `spec` at replica `replica` of partition `partition` (replica
    /// 0 is the primary). `base` holds the serialized X_i when
    /// spec.has_base; `carried` is what this partition's last
    /// unsynchronized round returned. Returns the fragment as the
    /// coordinator received it or, when spec.ship_result is false, the
    /// structure to carry into the next round (empty when the site keeps
    /// it itself). Called concurrently for distinct partitions; a failed
    /// or discarded attempt is simply run again.
    virtual Result<Table> Run(const RoundSpec& spec, size_t partition,
                              size_t replica,
                              const std::vector<uint8_t>& base,
                              const Table& carried, SiteCall* call) = 0;
    /// Framed bytes moved outside the rounds (rpc BeginPlan); 0 elsewhere.
    virtual uint64_t setup_wire_bytes() const { return 0; }
  };

  virtual ~SiteLink() = default;

  /// Number of partitions (primaries; replicas are not counted).
  virtual size_t num_partitions() const = 0;

  /// Checks the replica registrations and readies the sites for a query
  /// (rpc: connects; in-process: nothing more to do).
  virtual Status Prepare() = 0;

  /// Schema of a site-resident table, for coordinator schema inference.
  virtual Result<SchemaPtr> TableSchema(const std::string& table) const = 0;

  /// Ids of partition `partition`'s evaluation chain, primary first, as
  /// the fault injector and ExecStats::lost_sites know them. A round that
  /// is not `self_contained` (it consumes a carried-over structure) may
  /// be limited to the primary.
  virtual std::vector<int> ReplicaIds(size_t partition,
                                      bool self_contained) const = 0;

  /// Records a shipment of `bytes` table bytes and returns its modeled
  /// transfer time in seconds; 0 when the link has no network model.
  virtual double ModelTransfer(int from, int to, uint64_t bytes) {
    (void)from;
    (void)to;
    (void)bytes;
    return 0;
  }

  /// Starts one query's link state (rpc: BeginPlan on every endpoint).
  virtual Result<std::unique_ptr<Query>> BeginQuery(const QueryRun& run,
                                                    uint64_t query_id) = 0;
};

/// Drives DistributedPlans over a SiteLink. Thread-safe: concurrent
/// Execute calls keep their per-query state on their own stacks and share
/// the one site pool.
class RoundDriver {
 public:
  /// `link` is not owned and must outlive the driver.
  RoundDriver(SiteLink* link, const ExecutorOptions& options);

  Result<Table> Execute(const DistributedPlan& plan, const QueryRun& run,
                        ExecStats* stats);

  const ExecutorOptions& options() const { return options_; }

 private:
  // The site pool, created on the first Execute with one worker per
  // partition beyond the first (site 0 runs on the calling thread).
  ThreadPool* Pool(size_t num_partitions);

  SiteLink* link_;
  ExecutorOptions options_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_ROUND_DRIVER_H_
