#include "dist/round_driver.h"

#include <algorithm>
#include <condition_variable>
#include <functional>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "dist/coordinator.h"
#include "net/network.h"
#include "net/serde.h"
#include "obs/obs.h"

namespace skalla {

Status ValidatePlan(const DistributedPlan& plan, size_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("executor has no sites");
  }
  if (!plan.stages.empty() && !plan.stages.back().sync_after) {
    return Status::InvalidArgument(
        "the final plan stage must synchronize at the coordinator");
  }
  if (plan.stages.empty() && !plan.sync_base) {
    return Status::InvalidArgument(
        "a plan without GMDJ stages must synchronize its base query");
  }
  for (const PlanStage& stage : plan.stages) {
    if (!stage.site_base_filters.empty() &&
        stage.site_base_filters.size() != num_partitions) {
      return Status::InvalidArgument(
          StrCat("stage has ", stage.site_base_filters.size(),
                 " site filters for ", num_partitions, " sites"));
    }
  }
  return Status::OK();
}

namespace {

// The site tasks of one round: started together, awaited one by one in
// site order. The destructor cancels the round and joins every task still
// running, so no task outlives the round on any exit path.
class RoundTasks {
 public:
  RoundTasks(ThreadPool* pool, CancellationToken* cancel, size_t n)
      : pool_(pool), cancel_(cancel), done_(n, 0) {}
  RoundTasks(const RoundTasks&) = delete;
  RoundTasks& operator=(const RoundTasks&) = delete;

  ~RoundTasks() {
    cancel_->Cancel(Status::Cancelled("round abandoned"));
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

  // Runs fn(i) for every i in `sites`: all but the first on the pool, the
  // first inline before returning.
  void Start(const std::vector<size_t>& sites,
             std::function<void(size_t)> fn) {
    fn_ = std::move(fn);
    pending_ = sites.size();
    for (size_t k = 1; k < sites.size(); ++k) {
      pool_->Submit([this, i = sites[k]] { RunOne(i); });
    }
    if (!sites.empty()) RunOne(sites[0]);
  }

  void Await(size_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_[i] != 0; });
  }

 private:
  void RunOne(size_t i) {
    fn_(i);
    std::lock_guard<std::mutex> lock(mu_);
    done_[i] = 1;
    --pending_;
    cv_.notify_all();
  }

  ThreadPool* pool_;
  CancellationToken* cancel_;
  std::function<void(size_t)> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint8_t> done_;  // guarded by mu_
  size_t pending_ = 0;         // guarded by mu_
};

// What one site's task produced, read by the coordinator after Await.
struct SiteOutcome {
  Result<Table> fragment = Status::Internal("site round not run");
  SiteCall call;            // the last attempt's report
  uint64_t wire_bytes = 0;  // every attempt's framed bytes
  SiteRoundCounts counts;
  double elapsed = 0;
};

}  // namespace

RoundDriver::RoundDriver(SiteLink* link, const ExecutorOptions& options)
    : link_(link), options_(options) {}

ThreadPool* RoundDriver::Pool(size_t num_partitions) {
  std::call_once(pool_once_, [&] {
    pool_ = std::make_unique<ThreadPool>(
        num_partitions > 1 ? num_partitions - 1 : 1);
  });
  return pool_.get();
}

Result<Table> RoundDriver::Execute(const DistributedPlan& plan,
                                   const QueryRun& run, ExecStats* stats) {
  const size_t n = link_->num_partitions();
  SKALLA_RETURN_NOT_OK(ValidatePlan(plan, n));
  SKALLA_RETURN_NOT_OK(link_->Prepare());
  ThreadPool* pool = Pool(n);

  ExecStats local_stats;
  ExecStats& st = stats == nullptr ? local_stats : *stats;
  st.rounds.clear();
  st.lost_sites.clear();

  // Tag every span and metric this execution records with the run's
  // query id (site tasks re-establish the scope on their threads).
  const uint64_t query_id = ResolveQueryId(run);
  obs::QueryIdScope query_scope(query_id);
  st.query_id = query_id;

  SKALLA_TRACE_SPAN(exec_span, "exec.plan", "executor");
  SKALLA_SPAN_ATTR(exec_span, "sites", static_cast<uint64_t>(n));
  SKALLA_SPAN_ATTR(exec_span, "stages",
                   static_cast<uint64_t>(plan.stages.size()));
  SKALLA_COUNTER_ADD("skalla.exec.plans", 1);

  SKALLA_ASSIGN_OR_RETURN(std::unique_ptr<SiteLink::Query> query,
                          link_->BeginQuery(run, query_id));
  Coordinator coordinator(plan.key_columns,
                          ResolveCoordinatorShards(
                              options_.coordinator_shards));
  bool have_global = false;
  const QueryDeadline deadline(options_, run);
  // Partitions whose every replica is gone; only OnSiteLoss::kDegrade
  // sets these — the query completes over the survivors and the loss is
  // reported in st.lost_sites / RoundStats::sites_lost.
  std::vector<uint8_t> lost(n, 0);
  // What each partition's last unsynchronized round left for the next
  // one to evaluate against (empty when the site keeps it itself).
  std::vector<Table> carried(n);

  // Schema inference chain: upstream schema entering each stage.
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr base_schema,
                          link_->TableSchema(plan.base.table));
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr upstream,
                          plan.base.OutputSchema(*base_schema));

  // Round 0 is the base-values round; round k > 0 evaluates stage k - 1.
  for (size_t k = 0; k <= plan.stages.size(); ++k) {
    const PlanStage* stage = k == 0 ? nullptr : &plan.stages[k - 1];
    RoundStats rs;
    rs.label = stage == nullptr ? std::string("base") : StrCat("md", k);
    rs.synchronized = stage == nullptr ? plan.sync_base : stage->sync_after;
    SKALLA_TRACE_SPAN(round_span, StrCat("round:", rs.label), "executor");
    SKALLA_SPAN_ATTR(round_span, "sync", rs.synchronized ? "true" : "false");
    Stopwatch wall;
    CancellationToken round_cancel;
    SKALLA_RETURN_NOT_OK(deadline.ArmRound(rs.label, &round_cancel));

    RoundSpec spec;
    spec.label = rs.label;
    spec.ship_result = rs.synchronized;
    spec.deadline_ms = deadline.RoundBudgetMs();
    spec.query_id = query_id;
    SKALLA_OBS_ONLY(spec.trace_parent = round_span.id());
    SchemaPtr detail_schema;
    if (stage == nullptr) {
      spec.base = &plan.base;
    } else {
      spec.stage = stage;
      spec.has_base = have_global;
      spec.context = StageEvalContext(options_, run, *stage);
      spec.context.cancellation = &round_cancel;
      spec.context.query_id = query_id;
      SKALLA_ASSIGN_OR_RETURN(detail_schema,
                              link_->TableSchema(stage->op.detail_table));
    }
    // The base round and rounds carrying X_i are self-contained: they may
    // fail over to a replica that never saw the earlier rounds.
    const bool self_contained = stage == nullptr || spec.has_base;
    std::vector<std::vector<int>> chains(n);
    for (size_t i = 0; i < n; ++i) {
      chains[i] = link_->ReplicaIds(i, self_contained);
    }

    // Distribute the global structure, applying distribution-aware group
    // reduction where the optimizer derived per-site predicates. A site
    // whose reduced structure is empty holds no group that could match:
    // it sits a synchronized round out entirely (S_MD_k ⊂ S_B, Sect. 3.2).
    // A local continuation stage still needs the (empty, but schema-typed)
    // structure to evaluate the next operator against.
    std::vector<std::vector<uint8_t>> down(n);
    std::vector<size_t> active;
    for (size_t i = 0; i < n; ++i) {
      if (lost[i]) continue;
      if (spec.has_base) {
        const Table& x = coordinator.result();
        const ExprPtr& filter = stage->site_base_filters.empty()
                                    ? nullptr
                                    : stage->site_base_filters[i];
        Table filtered;
        if (filter != nullptr) {
          Stopwatch coord_timer;
          SKALLA_ASSIGN_OR_RETURN(filtered, FilterBaseRows(x, filter));
          rs.coord_time += coord_timer.ElapsedSeconds();
          if (filtered.empty() && stage->sync_after) {
            ++rs.sites_skipped;
            continue;
          }
        }
        const Table& to_send = filter != nullptr ? filtered : x;
        WriteTable(to_send, &down[i]);
        rs.bytes_to_sites += down[i].size();
        rs.tuples_to_sites += to_send.num_rows();
        rs.comm_time +=
            link_->ModelTransfer(kCoordinatorId, chains[i][0], down[i].size());
      }
      active.push_back(i);
    }

    std::vector<SiteOutcome> outcomes(n);
    RoundTasks tasks(pool, &round_cancel, n);
    tasks.Start(active, [&](size_t i) {
      obs::QueryIdScope site_scope(query_id);
      SiteOutcome& out = outcomes[i];
      Stopwatch timer;
      out.fragment = ExecuteSiteRoundReplicated(
          options_, chains[i], rs.label,
          [&](size_t r) {
            out.call = SiteCall();
            Result<Table> fragment =
                query->Run(spec, i, r, down[i], carried[i], &out.call);
            out.wire_bytes += out.call.wire_bytes;
            return fragment;
          },
          &out.counts, &round_cancel);
      out.elapsed = timer.ElapsedSeconds();
    });

    // Synchronize in site order while later sites are still computing.
    if (rs.synchronized) {
      Stopwatch begin_timer;
      if (stage == nullptr) {
        SKALLA_RETURN_NOT_OK(coordinator.InitBase(upstream));
      } else {
        SKALLA_RETURN_NOT_OK(coordinator.BeginRound(
            stage->op, *upstream, *detail_schema,
            /*from_scratch=*/!have_global));
      }
      rs.coord_time += begin_timer.ElapsedSeconds();
    }
    for (size_t i : active) {
      tasks.Await(i);
      SiteOutcome& out = outcomes[i];
      rs.site_retries += out.counts.retries;
      rs.site_failovers += out.counts.failovers;
      rs.wire_bytes += out.wire_bytes;
      if (!out.fragment.ok()) {
        if (options_.on_site_loss != OnSiteLoss::kDegrade ||
            out.fragment.status().IsDeadlineExceeded()) {
          return out.fragment.status();
        }
        lost[i] = 1;
        st.lost_sites.push_back(chains[i][0]);
        continue;
      }
      rs.site_time_max = std::max(rs.site_time_max, out.elapsed);
      rs.site_time_sum += out.elapsed;
      if (out.call.has_profile) {
        st.engines_used |= out.call.profile.engines_used;
        rs.site_profiles.push_back(out.call.profile);
      }
      if (!rs.synchronized) {
        carried[i] = std::move(*out.fragment);
        continue;
      }
      carried[i] = Table();
      rs.bytes_to_coord += out.call.table_bytes;
      rs.tuples_to_coord += out.fragment->num_rows();
      rs.comm_time += link_->ModelTransfer(chains[i][0], kCoordinatorId,
                                           out.call.table_bytes);
      Stopwatch merge_timer;
      SKALLA_RETURN_NOT_OK(stage == nullptr
                               ? coordinator.MergeBaseFragment(*out.fragment)
                               : coordinator.MergeFragment(*out.fragment));
      rs.coord_time += merge_timer.ElapsedSeconds();
      out.fragment = Table();
    }
    if (rs.synchronized) {
      Stopwatch finalize_timer;
      SKALLA_RETURN_NOT_OK(stage == nullptr ? coordinator.FinalizeBase()
                                            : coordinator.FinalizeRound());
      rs.coord_time += finalize_timer.ElapsedSeconds();
    }
    have_global = rs.synchronized;
    if (stage != nullptr) {
      SKALLA_ASSIGN_OR_RETURN(
          upstream, stage->op.OutputSchema(*upstream, *detail_schema));
    }
    for (size_t i = 0; i < n; ++i) rs.sites_lost += lost[i];
    rs.wall_time = wall.ElapsedSeconds();
    SKALLA_COUNTER_ADD("skalla.round.bytes_to_sites", rs.bytes_to_sites);
    SKALLA_COUNTER_ADD("skalla.round.bytes_to_coord", rs.bytes_to_coord);
    SKALLA_COUNTER_ADD("skalla.round.tuples_to_sites", rs.tuples_to_sites);
    SKALLA_COUNTER_ADD("skalla.round.tuples_to_coord", rs.tuples_to_coord);
    st.rounds.push_back(std::move(rs));
  }

  if (!have_global) {
    return Status::Internal("plan finished without a global result");
  }
  std::sort(st.lost_sites.begin(), st.lost_sites.end());
  st.setup_wire_bytes = query->setup_wire_bytes();
  st.total_wire_bytes = st.setup_wire_bytes;
  for (const RoundStats& rs : st.rounds) st.total_wire_bytes += rs.wire_bytes;
  return coordinator.result();
}

}  // namespace skalla
