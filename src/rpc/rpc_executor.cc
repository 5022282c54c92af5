#include "rpc/rpc_executor.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "rpc/plan_serde.h"

namespace skalla {
namespace rpc {

namespace {

SiteRoundProfile ToSiteProfile(const RoundProfile& p) {
  SiteRoundProfile sp;
  sp.site_id = p.site_id;
  sp.wall_us = p.wall_us;
  sp.eval_us = p.eval_us;
  sp.morsel_us = p.morsel_us;
  sp.rows_scanned = p.rows_scanned;
  sp.rows_matched = p.rows_matched;
  sp.index_hits = p.index_hits;
  sp.bytes_in = p.bytes_in;
  sp.bytes_out = p.bytes_out;
  sp.result_rows = p.result_rows;
  sp.duplicate_rounds = p.duplicate_rounds;
  sp.chaos_faults = p.chaos_faults;
  sp.chunks_pruned = p.chunks_pruned;
  sp.pages_pinned = p.pages_pinned;
  sp.pages_missed = p.pages_missed;
  sp.page_bytes_loaded = p.page_bytes_loaded;
  sp.engines_used = p.engines_used;
  return sp;
}

}  // namespace

RpcExecutor::RpcExecutor(std::unique_ptr<Transport> transport,
                         ExecutorOptions options)
    : transport_(std::move(transport)), driver_(this, options) {}

void RpcExecutor::AddReplica(size_t partition, size_t endpoint) {
  replica_endpoints_[partition].push_back(endpoint);
}

std::vector<size_t> RpcExecutor::ReplicaEndpoints(size_t i) const {
  std::vector<size_t> endpoints{i};
  auto it = replica_endpoints_.find(i);
  if (it != replica_endpoints_.end()) {
    endpoints.insert(endpoints.end(), it->second.begin(), it->second.end());
  }
  return endpoints;
}

bool RpcExecutor::TolerableLoss(size_t endpoint) const {
  if (endpoint >= num_sites()) return true;  // a replica: only matters
                                             // if failover reaches it
  if (driver_.options().on_site_loss == OnSiteLoss::kDegrade) return true;
  auto it = replica_endpoints_.find(endpoint);
  return it != replica_endpoints_.end() && !it->second.empty();
}

Status RpcExecutor::Connect() {
  // Serialized: concurrent Executes race to be the first dialer; the
  // loser blocks here, then sees the populated state and returns.
  std::lock_guard<std::mutex> connect_lock(connect_mu_);
  const size_t n = transport_->num_sites();
  if (n == 0) return Status::InvalidArgument("transport has no sites");
  if (connections_.empty()) {
    connections_.resize(n);
    connection_mu_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      connection_mu_[i] = std::make_unique<std::mutex>();
      SKALLA_ASSIGN_OR_RETURN(connections_[i], transport_->Connect(i));
    }
  }
  if (!schemas_.empty()) return Status::OK();
  // The catalog request doubles as the liveness probe: it forces the
  // handshake on every connection before the first round. Sites hold
  // partitions of the same relations, so any live site's schemas serve
  // for coordinator-side schema inference. A dead endpoint fails the
  // probe — fatal unless the retry -> failover -> degrade ladder can
  // absorb the loss (TolerableLoss), in which case the round machinery
  // deals with it.
  for (size_t i = 0; i < n; ++i) {
    Result<Frame> probed =
        connections_[i]->Call(MessageType::kCatalogRequest, {});
    if (!probed.ok()) {
      if (!TolerableLoss(i)) return probed.status();
      continue;
    }
    Frame response = std::move(*probed);
    if (response.type == MessageType::kError) {
      return ReadStatusPayload(response.payload);
    }
    if (response.type != MessageType::kCatalogResponse) {
      return Status::IOError("unexpected catalog response type");
    }
    if (schemas_.empty()) {
      SKALLA_ASSIGN_OR_RETURN(std::vector<CatalogEntry> entries,
                              DecodeCatalogResponse(response.payload));
      for (CatalogEntry& entry : entries) {
        schemas_[entry.name] = std::move(entry.schema);
      }
    }
  }
  if (schemas_.empty()) {
    return Status::IOError("no live site answered the catalog probe");
  }
  return Status::OK();
}

Result<SchemaPtr> RpcExecutor::TableSchema(const std::string& name) const {
  auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    return Status::NotFound(StrCat("no site table named '", name, "'"));
  }
  return it->second;
}

uint64_t RpcExecutor::wire_bytes() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Connection>& connection : connections_) {
    if (connection != nullptr) total += connection->wire_bytes();
  }
  return total;
}

Result<Frame> RpcExecutor::CallLocked(size_t i, MessageType type,
                                      const std::vector<uint8_t>& payload,
                                      uint64_t* wire_delta) {
  std::lock_guard<std::mutex> lock(*connection_mu_[i]);
  uint64_t wire_before = connections_[i]->wire_bytes();
  Result<Frame> response = connections_[i]->Call(type, payload);
  if (wire_delta != nullptr) {
    *wire_delta = connections_[i]->wire_bytes() - wire_before;
  }
  return response;
}

Result<Table> RpcExecutor::CallRound(size_t i, MessageType type,
                                     const std::vector<uint8_t>& payload,
                                     SiteCall* call, uint64_t trace_parent) {
  SKALLA_TRACE_SPAN_UNDER(span, "rpc.round", "rpc", trace_parent);
  SKALLA_SPAN_ATTR(span, "site", static_cast<int64_t>(i));
  (void)trace_parent;
  Stopwatch timer;
  // Coordinator clock just before the request leaves: remote span
  // timestamps are shifted so the site's earliest event aligns here.
  int64_t send_ts_us = 0;
  SKALLA_OBS_ONLY(send_ts_us = obs::Tracer::Global().NowMicros());
  (void)send_ts_us;
  uint64_t wire_delta = 0;
  Result<Frame> response = CallLocked(i, type, payload, &wire_delta);
  if (call != nullptr) call->wire_bytes = wire_delta;
  SKALLA_HISTOGRAM_RECORD("skalla.rpc.round_us",
                          timer.ElapsedSeconds() * 1e6);
  SKALLA_RETURN_NOT_OK(response.status());
  switch (response->type) {
    case MessageType::kError:
      // Decode the site's own status so its error code survives the
      // wire (a site-side NotFound surfaces as NotFound).
      return ReadStatusPayload(response->payload);
    case MessageType::kAck:
      return Table();
    case MessageType::kTableResult:
      if (call != nullptr) call->table_bytes = response->payload.size();
      return ReadTable(response->payload.data(), response->payload.size());
    case MessageType::kRoundResult: {
      SKALLA_ASSIGN_OR_RETURN(RoundResult result,
                              DecodeRoundResult(response->payload));
#if defined(SKALLA_TRACING) && SKALLA_TRACING
      if (!result.profile.spans.empty() &&
          obs::Tracer::Global().enabled()) {
        // Graft the site's span subtree under this call's rpc.round
        // span, in its own process lane.
        int64_t min_ts = result.profile.spans.front().ts_us;
        for (const obs::TraceEvent& e : result.profile.spans) {
          min_ts = std::min(min_ts, e.ts_us);
        }
        obs::Tracer::Global().ImportRemoteSpans(
            result.profile.spans, span.id(), send_ts_us - min_ts,
            static_cast<uint32_t>(result.profile.site_id) + 2,
            StrCat("site ", result.profile.site_id));
      }
#endif
      if (call != nullptr) {
        call->table_bytes = result.table_bytes;
        call->has_profile = true;
        call->profile = ToSiteProfile(result.profile);
      }
      if (!result.has_table) return Table();
      return std::move(result.table);
    }
    default:
      return Status::IOError(
          StrCat("unexpected response type ",
                 static_cast<int>(response->type)));
  }
}

Status RpcExecutor::Prepare() {
  const size_t n = num_sites();
  for (const auto& [partition, endpoints] : replica_endpoints_) {
    if (partition >= n) {
      return Status::InvalidArgument(
          StrCat("replica registered for partition ", partition, " but only ",
                 n, " partitions exist"));
    }
    for (size_t endpoint : endpoints) {
      if (endpoint < n || endpoint >= transport_->num_sites()) {
        return Status::InvalidArgument(
            StrCat("replica endpoint ", endpoint,
                   " must index a transport endpoint in [", n, ", ",
                   transport_->num_sites(), ")"));
      }
    }
  }
  return Connect();
}

std::vector<int> RpcExecutor::ReplicaIds(size_t partition,
                                         bool self_contained) const {
  // A round consuming the site's carried-over local structure must stay
  // on the primary: a replica process never built that structure.
  if (!self_contained) return {static_cast<int>(partition)};
  std::vector<int> ids;
  for (size_t endpoint : ReplicaEndpoints(partition)) {
    ids.push_back(static_cast<int>(endpoint));
  }
  return ids;
}

// Per-query state: the BeginPlan / EndPlan lifecycle of one Execute.
class RpcExecutor::RpcQuery : public SiteLink::Query {
 public:
  RpcQuery(RpcExecutor* self, uint64_t query_id,
           std::vector<uint8_t> begin_payload)
      : self_(self),
        query_id_(query_id),
        begin_payload_(std::move(begin_payload)),
        endpoint_down_(self->transport_->num_sites()) {}

  // Best-effort per-query state release at the sites on every exit path
  // (sites also cap and evict, so a lost coordinator leaks nothing).
  // Excluded from the query's wire accounting: it runs after the stats
  // are finalized.
  ~RpcQuery() override {
    const std::vector<uint8_t> payload = EncodeEndPlanRequest(query_id_);
    for (size_t i = 0; i < endpoint_down_.size(); ++i) {
      if (!endpoint_down_[i].ok()) continue;
      (void)self_->CallLocked(i, MessageType::kEndPlan, payload, nullptr);
    }
  }

  // Resets every endpoint's round state for this query. Broadcast to
  // replicas too: a replica must be in the same per-plan state as its
  // primary to take over a round. Not routed through the retry loop:
  // BeginPlan is not a site round, and it is idempotent anyway. An
  // endpoint unreachable here is marked down instead of failing the
  // query — when the retry -> failover -> degrade ladder can absorb the
  // loss.
  Status Begin() {
    for (size_t i = 0; i < endpoint_down_.size(); ++i) {
      Status begun = CallBegin(i);
      if (begun.ok()) continue;
      if (!self_->TolerableLoss(i)) {
        // Endpoints from i on never began this query: no EndPlan either.
        std::fill(endpoint_down_.begin() + i, endpoint_down_.end(), begun);
        return begun;
      }
      endpoint_down_[i] = std::move(begun);
    }
    return Status::OK();
  }

  Result<Table> Run(const RoundSpec& spec, size_t partition, size_t replica,
                    const std::vector<uint8_t>& base, const Table& carried,
                    SiteCall* call) override {
    (void)carried;  // the site process keeps its own
    const size_t endpoint =
        replica == 0 ? partition
                     : self_->replica_endpoints_.at(partition)[replica - 1];
    SKALLA_RETURN_NOT_OK(EnsureBegun(endpoint));
    TraceContext trace;
    trace.query_id = query_id_;
    if (spec.trace_parent != 0) {
      trace.trace_id = query_id_;
      trace.parent_span_id = spec.trace_parent;
    }
    if (spec.base != nullptr) {
      BaseRoundRequest request;
      request.query = *spec.base;
      request.ship_result = spec.ship_result;
      request.deadline_ms = spec.deadline_ms;
      request.trace = trace;
      return self_->CallRound(endpoint, MessageType::kBaseRound,
                              EncodeBaseRoundRequest(request), call,
                              spec.trace_parent);
    }
    GmdjRoundRequest request;
    request.op = spec.stage->op;
    request.label = spec.label;
    request.sub_aggregates = spec.context.sub_aggregates;
    request.apply_rng = spec.context.compute_rng;
    request.ship_result = spec.ship_result;
    request.has_base = spec.has_base;
    request.deadline_ms = spec.deadline_ms;
    request.trace = trace;
    return self_->CallRound(endpoint, MessageType::kGmdjRound,
                            EncodeGmdjRoundRequest(request, base), call,
                            spec.trace_parent);
  }

  uint64_t setup_wire_bytes() const override { return setup_wire_.load(); }

 private:
  Status CallBegin(size_t endpoint) {
    SiteCall begin_call;
    Status begun = self_->CallRound(endpoint, MessageType::kBeginPlan,
                                    begin_payload_, &begin_call)
                       .status();
    setup_wire_ += begin_call.wire_bytes;
    return begun;
  }

  // A round attempt at an endpoint that was down at BeginPlan first
  // re-tries BeginPlan (the site must not serve this plan with a stale
  // round state), so an endpoint that comes back mid-query rejoins.
  Status EnsureBegun(size_t endpoint) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (endpoint_down_[endpoint].ok()) return Status::OK();
    }
    Status begun = CallBegin(endpoint);
    std::lock_guard<std::mutex> lock(mu_);
    if (begun.ok()) endpoint_down_[endpoint] = Status::OK();
    return endpoint_down_[endpoint];
  }

  RpcExecutor* self_;
  const uint64_t query_id_;
  const std::vector<uint8_t> begin_payload_;
  std::mutex mu_;
  std::vector<Status> endpoint_down_;  // guarded by mu_ once rounds run
  std::atomic<uint64_t> setup_wire_{0};
};

Result<std::unique_ptr<SiteLink::Query>> RpcExecutor::BeginQuery(
    const QueryRun& run, uint64_t query_id) {
  const ExecutorOptions& options = driver_.options();
  BeginPlanRequest begin;
  begin.eval_threads =
      run.eval_threads > 0 ? run.eval_threads : options.eval_threads;
  begin.query_id = query_id;
  begin.engine = options.engine;
  auto query = std::make_unique<RpcQuery>(this, query_id,
                                          EncodeBeginPlanRequest(begin));
  SKALLA_RETURN_NOT_OK(query->Begin());
  return std::unique_ptr<Query>(std::move(query));
}

Result<Table> RpcExecutor::Execute(const DistributedPlan& plan,
                                   const QueryRun& run, ExecStats* stats) {
  return driver_.Execute(plan, run, stats);
}

Result<StatsResult> RpcExecutor::SiteStats(size_t endpoint) {
  SKALLA_RETURN_NOT_OK(Connect());
  if (endpoint >= connections_.size() || connections_[endpoint] == nullptr) {
    return Status::InvalidArgument(
        StrCat("no connection for endpoint ", endpoint));
  }
  SKALLA_ASSIGN_OR_RETURN(
      Frame response, CallLocked(endpoint, MessageType::kGetStats, {}, nullptr));
  if (response.type == MessageType::kError) {
    return ReadStatusPayload(response.payload);
  }
  if (response.type != MessageType::kStatsResult) {
    return Status::IOError(StrCat("unexpected stats response type ",
                                  static_cast<int>(response.type)));
  }
  return DecodeStatsResult(response.payload);
}

Status RpcExecutor::Shutdown() {
  if (connections_.empty()) {
    std::lock_guard<std::mutex> connect_lock(connect_mu_);
    const size_t n = transport_->num_sites();
    if (connections_.empty()) {
      connections_.resize(n);
      connection_mu_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        connection_mu_[i] = std::make_unique<std::mutex>();
        Result<std::unique_ptr<Connection>> connection =
            transport_->Connect(i);
        if (connection.ok()) connections_[i] = std::move(*connection);
      }
    }
  }
  Status first_error;
  for (size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i] == nullptr) continue;
    Status s = CallRound(i, MessageType::kShutdown, {}, nullptr).status();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

}  // namespace rpc
}  // namespace skalla
