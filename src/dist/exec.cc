#include "dist/exec.h"

#include "common/macros.h"
#include "common/stopwatch.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/frame.h"

namespace skalla {

namespace {

// The receiving end of one framed transfer: wraps the serialized table in
// the versioned wire frame (rpc/frame.h) exactly as the TCP transport
// would, and decodes it again.
Result<Table> Unframe(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> wire =
      rpc::EncodeFrame(rpc::MessageType::kTableResult, payload);
  SKALLA_ASSIGN_OR_RETURN(rpc::Frame frame, rpc::DecodeFrame(wire));
  return ReadTable(frame.payload.data(), frame.payload.size());
}

}  // namespace

// The in-process link has no per-query state: carried structures live
// in the driver, like everything else a round needs.
class DistributedExecutor::StarQuery : public SiteLink::Query {
 public:
  explicit StarQuery(DistributedExecutor* self) : self_(self) {}

  Result<Table> Run(const RoundSpec& spec, size_t partition, size_t replica,
                    const std::vector<uint8_t>& base, const Table& carried,
                    SiteCall* call) override {
    Site& site = self_->sites_.Replica(partition, replica);
    SKALLA_TRACE_SPAN_UNDER(site_span, "site.eval", "site",
                            spec.trace_parent);
    SKALLA_SPAN_ATTR(site_span, "site", static_cast<int64_t>(site.id()));
    SKALLA_SPAN_ATTR(site_span, "round", spec.label);
    Stopwatch timer;
    SiteRoundProfile& profile = call->profile;
    Table result;
    if (spec.base != nullptr) {
      PinCounts pins;
      SKALLA_ASSIGN_OR_RETURN(result,
                              site.ExecuteBaseQuery(*spec.base, &pins));
      profile.pages_pinned = pins.pages;
      profile.pages_missed = pins.misses;
      profile.page_bytes_loaded = pins.miss_bytes;
    } else {
      Table received;
      if (spec.has_base) {
        SKALLA_ASSIGN_OR_RETURN(received, Unframe(base));
      }
      EvalProfile eval;
      EvalContext context = spec.context;
      context.profile = &eval;
      SKALLA_OBS_ONLY(context.trace_parent_span = site_span.id());
      SKALLA_ASSIGN_OR_RETURN(
          result, site.EvalGmdjRound(spec.has_base ? received : carried,
                                     spec.stage->op, context));
      if (context.compute_rng) {
        SKALLA_ASSIGN_OR_RETURN(result, ApplyRngFilter(result));
      }
      profile.morsel_us = eval.morsel_us.load(std::memory_order_relaxed);
      profile.rows_scanned =
          eval.rows_scanned.load(std::memory_order_relaxed);
      profile.rows_matched =
          eval.rows_matched.load(std::memory_order_relaxed);
      profile.index_hits = eval.index_hits.load(std::memory_order_relaxed);
      profile.engines_used =
          eval.engines_used.load(std::memory_order_relaxed);
      profile.chunks_pruned =
          eval.chunks_pruned.load(std::memory_order_relaxed);
      profile.pages_pinned = eval.pages_pinned.load(std::memory_order_relaxed);
      profile.pages_missed = eval.pages_missed.load(std::memory_order_relaxed);
      profile.page_bytes_loaded =
          eval.page_bytes_loaded.load(std::memory_order_relaxed);
    }
    SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us", timer.ElapsedMicros());
    call->has_profile = true;
    profile.site_id = self_->sites_.primary(partition).id();
    profile.wall_us = static_cast<uint64_t>(timer.ElapsedMicros());
    profile.eval_us = profile.wall_us;
    profile.bytes_in = base.size();
    profile.result_rows = result.num_rows();
    if (!spec.ship_result) return result;
    std::vector<uint8_t> payload;
    WriteTable(result, &payload);
    call->table_bytes = payload.size();
    profile.bytes_out = payload.size();
    return Unframe(payload);
  }

 private:
  DistributedExecutor* self_;
};

DistributedExecutor::DistributedExecutor(std::vector<Site> sites,
                                         NetworkConfig net_config,
                                         ExecutorOptions options)
    : sites_(std::move(sites)),
      network_(net_config),
      driver_(this, options) {}

void DistributedExecutor::AddReplica(size_t partition, Site replica) {
  sites_.AddReplica(partition, std::move(replica));
}

Result<Table> DistributedExecutor::Execute(const DistributedPlan& plan,
                                           const QueryRun& run,
                                           ExecStats* stats) {
  return driver_.Execute(plan, run, stats);
}

Status DistributedExecutor::Prepare() {
  return sites_.Prepare();
}

Result<SchemaPtr> DistributedExecutor::TableSchema(
    const std::string& table) const {
  SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                          sites_.primary(0).catalog().GetProvider(table));
  return provider->schema();
}

std::vector<int> DistributedExecutor::ReplicaIds(size_t partition,
                                                 bool self_contained) const {
  // Carried structures live in the driver, so every round may fail over.
  (void)self_contained;
  return sites_.ReplicaIds(partition);
}

double DistributedExecutor::ModelTransfer(int from, int to, uint64_t bytes) {
  return network_.Transfer(from, to, bytes);
}

Result<std::unique_ptr<SiteLink::Query>> DistributedExecutor::BeginQuery(
    const QueryRun& run, uint64_t query_id) {
  (void)run;
  (void)query_id;
  return std::unique_ptr<Query>(new StarQuery(this));
}

}  // namespace skalla
