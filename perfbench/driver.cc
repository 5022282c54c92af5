// skalla-perfbench: the repository benchmark driver. One process, one
// workload, one seed:
//
//   skalla-perfbench --workload rpc_resident|rpc_paged|serve_mixed
//                    --seed N --seconds S --trace 0|1
//                    --site-bin PATH --work-dir DIR [--scale full|toy]
//                    [--results FILE] [--commit ID]
//
// It prepares the seeded inputs (in a child process), sets the system up
// several times (warehouse load, site spawn, connect, warm-up; the median
// is setup_s), then drives closed-loop clients through the public
// QuerySession API for S seconds, checking every answer against the
// row-engine oracle. With --trace 1 it then measures S/2 seconds more
// with the benchmark's own spans on, runs the layer probes, and reports
// the per-layer metrics instead of the end-to-end ones. The last line of
// stdout is the JSON result; every metric is also printed by name with
// its unit, and --results writes the full record (environment included)
// as JSON. See README.md in this directory.

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster.h"
#include "common/flags.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "dist/warehouse.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "probes.h"
#include "serve/session.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using skalla::DistributedWarehouse;
using skalla::ExecStats;
using skalla::Result;
using skalla::Status;
using skalla::Stopwatch;
using skalla::serve::QuerySession;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// --- Workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  bool rpc = false;         // real skalla-site processes vs in-process
  bool chunked = false;     // version-2 (paged) warehouse vs version-1
  bool all_only = false;    // all-reduction plans only
  size_t clients = 1;       // closed-loop client threads
  bool cache = false;       // sub-aggregate result cache
  uint64_t cache_bytes = 0;  // result-cache capacity when the cache is on
  size_t write_every = 0;   // every N-th operation is ReloadTable (0: none)
  double zipf_s = 0;        // plan popularity skew (0: round robin)
};

Result<Workload> WorkloadByName(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "rpc_resident") {
    w.rpc = true;
  } else if (name == "rpc_paged") {
    w.rpc = true;
    w.chunked = true;
    w.all_only = true;
  } else if (name == "serve_mixed") {
    w.chunked = true;
    w.clients = 4;
    w.cache = true;
    // Results of superseded epochs leave the cache only under capacity
    // pressure; a few megabytes hold every live answer many times over,
    // so the cache reaches steady state (with evictions) within a run.
    w.cache_bytes = 4u << 20;
    w.write_every = 80;
    w.zipf_s = 1.1;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

// --- Benchmark spans -------------------------------------------------------

// One span around a public call the benchmark makes. Spans of one query
// share its query id; layer names the module the call enters.
struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t query_id = 0;
  double start_us = 0;
  double dur_us = 0;
};

// Per-thread span buffers, merged when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void Add(std::vector<Span>* buffer, const char* name, const char* layer,
           uint64_t query_id, Clock::time_point t0, Clock::time_point t1) {
    buffer->push_back({name, layer, query_id,
                       std::chrono::duration<double, std::micro>(t0 - origin_)
                           .count(),
                       std::chrono::duration<double, std::micro>(t1 - t0)
                           .count()});
  }

  void Merge(std::vector<Span>* buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }

  double TotalUs(const std::string& layer) const {
    double total = 0;
    for (const Span& s : spans_) {
      if (layer == s.layer) total += s.dur_us;
    }
    return total;
  }

  // Chrome trace-event JSON (load in Perfetto / chrome://tracing).
  bool WriteChrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   " {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"query_id\": %" PRIu64 "}}%s\n",
                   s.name, s.layer, s.start_us, s.dur_us, s.query_id,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --- Per-query accounting --------------------------------------------------

// Sums over the queries that ran evaluation rounds (cache hits have
// none), from the ExecStats each answer carries.
struct LayerTotals {
  uint64_t queries = 0;
  uint64_t sync_rounds = 0;
  double round_wall_ms = 0;  // measured round walls only
  double exec_ms = 0;        // time inside the executor's rounds
  double site_max_ms = 0;
  double site_sum_ms = 0;
  double merge_ms = 0;
  double dispatch_gap_ms = 0;
  double site_wall_ms = 0;
  double eval_ms = 0;
  double morsel_ms = 0;
  uint64_t bytes_to_sites = 0;
  uint64_t bytes_to_coord = 0;
  uint64_t tuples = 0;
  uint64_t wire_bytes = 0;
  uint64_t retries = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t site_rounds = 0;
  uint64_t columnar_site_rounds = 0;

  void Add(const ExecStats& stats) {
    ++queries;
    sync_rounds += stats.NumSyncRounds();
    for (const skalla::RoundStats& round : stats.rounds) {
      // The rpc engine measures each round's elapsed time; the in-process
      // star engine leaves it 0 (it runs its sites one after another, so
      // its rounds last site_time_sum + coord_time).
      const double wall = round.wall_time;
      round_wall_ms += wall * 1e3;
      exec_ms += (wall > 0 ? wall : round.site_time_sum + round.coord_time) *
                 1e3;
      site_max_ms += round.site_time_max * 1e3;
      site_sum_ms += round.site_time_sum * 1e3;
      merge_ms += round.coord_time * 1e3;
      if (wall > 0) {
        dispatch_gap_ms +=
            (wall - round.site_time_max - round.coord_time) * 1e3;
      }
      bytes_to_sites += round.bytes_to_sites;
      bytes_to_coord += round.bytes_to_coord;
      tuples += round.tuples_to_sites + round.tuples_to_coord;
      retries += round.site_retries;
      for (const skalla::SiteRoundProfile& site : round.site_profiles) {
        site_wall_ms += site.wall_us / 1e3;
        eval_ms += site.eval_us / 1e3;
        morsel_ms += site.morsel_us / 1e3;
        rows_scanned += site.rows_scanned;
        rows_matched += site.rows_matched;
        if (site.engines_used != 0) {
          ++site_rounds;
          if (site.engines_used & skalla::kEngineBitColumnar) {
            ++columnar_site_rounds;
          }
        }
      }
    }
    wire_bytes += stats.total_wire_bytes;
  }

  void Merge(const LayerTotals& o) {
    queries += o.queries;
    sync_rounds += o.sync_rounds;
    round_wall_ms += o.round_wall_ms;
    exec_ms += o.exec_ms;
    site_max_ms += o.site_max_ms;
    site_sum_ms += o.site_sum_ms;
    merge_ms += o.merge_ms;
    dispatch_gap_ms += o.dispatch_gap_ms;
    site_wall_ms += o.site_wall_ms;
    eval_ms += o.eval_ms;
    morsel_ms += o.morsel_ms;
    bytes_to_sites += o.bytes_to_sites;
    bytes_to_coord += o.bytes_to_coord;
    tuples += o.tuples;
    wire_bytes += o.wire_bytes;
    retries += o.retries;
    rows_scanned += o.rows_scanned;
    rows_matched += o.rows_matched;
    site_rounds += o.site_rounds;
    columnar_site_rounds += o.columnar_site_rounds;
  }

  double PerQuery(double total) const {
    return queries == 0 ? 0 : total / static_cast<double>(queries);
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// --- Counters outside ExecStats -------------------------------------------

// Counters serialize as `"name": 123` in MetricsRegistry JSON.
uint64_t ScrapeCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  size_t pos = json.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

const char* const kStorageCounters[] = {
    "skalla.storage.buffer.hit", "skalla.storage.buffer.miss",
    "skalla.storage.buffer.evict", "skalla.storage.chunks_pruned"};

// Storage counters (summed over sites) and serving counters, sampled
// before and after a measured phase.
struct CounterSnapshot {
  std::map<std::string, uint64_t> storage;
  skalla::serve::CacheStats cache;
  uint64_t queue_wait_count = 0;
  double queue_wait_sum_us = 0;
  double cpu_s = 0;    // coordinator + sites
  double steal_s = 0;  // the whole machine
  bool complete = true;  // every site answered its SiteStats call
};

// --- Deployment ------------------------------------------------------------

struct Config {
  Workload workload;
  Scale scale;
  uint64_t seed = 0;
  std::string site_bin;
  std::string work_dir;
  PreparedInputs inputs;

  const std::string& data_dir() const {
    return workload.chunked ? inputs.chunked_dir : inputs.eager_dir;
  }
  // The buffer budget of the layer that pages: each site (rpc_paged),
  // the in-process pool (serve_mixed), none for resident data.
  uint64_t buffer_bytes() const {
    if (!workload.chunked) return 0;
    return workload.rpc ? scale.paged_buffer_bytes
                        : scale.serve_buffer_bytes;
  }
};

// A running system: the coordinator's warehouse (the planner, and for
// serve_mixed also the data), the site processes, and the session.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { Stop(); }

  Status Start(const Config& config) {
    config_ = &config;
    const Workload& w = config.workload;
    skalla::StorageOptions storage;
    // The rpc coordinator only plans: a small pool is enough for the
    // lazily opened chunked warehouse.
    storage.buffer_bytes = w.rpc ? (1u << 20) : config.buffer_bytes();
    SKALLA_ASSIGN_OR_RETURN(
        DistributedWarehouse loaded,
        DistributedWarehouse::Load(config.data_dir(), {}, {}, storage));
    warehouse_ = std::make_unique<DistributedWarehouse>(std::move(loaded));

    skalla::serve::SessionOptions options;  // ExecutorOptions{} defaults
    options.scheduler.max_concurrent_queries = w.clients;
    options.scheduler.cache_max_bytes = w.cache ? w.cache_bytes : 0;
    if (w.rpc) {
      SKALLA_RETURN_NOT_OK(cluster_.Start(
          config.site_bin, config.data_dir(), kSites,
          w.chunked ? config.scale.paged_buffer_bytes : 0, config.work_dir));
      SKALLA_ASSIGN_OR_RETURN(QuerySession session,
                              QuerySession::Open(cluster_.endpoints(), options));
      session_.emplace(std::move(session));
    } else {
      SKALLA_ASSIGN_OR_RETURN(QuerySession session,
                              QuerySession::Open(warehouse_.get(), options));
      session_.emplace(std::move(session));
    }
    return Status::OK();
  }

  // Asks the sites to exit, then reaps them (killing stragglers).
  void Stop() {
    if (session_.has_value() && session_->rpc_executor() != nullptr) {
      (void)session_->rpc_executor()->Shutdown();
    }
    session_.reset();
    cluster_.Reap();
    warehouse_.reset();
  }

  QuerySession& session() { return *session_; }
  DistributedWarehouse& warehouse() { return *warehouse_; }
  const Cluster& cluster() const { return cluster_; }

  // CPU time of the coordinator and the sites so far.
  double CpuSeconds() const {
    return perfbench::CpuSeconds(::getpid()) + cluster_.SumCpuSeconds();
  }

  CounterSnapshot Snapshot(SpanLog* spans, std::vector<Span>* buffer) {
    CounterSnapshot snap;
    if (config_->workload.rpc) {
      for (size_t i = 0; i < kSites; ++i) {
        auto t0 = Clock::now();
        auto stats = session_->rpc_executor()->SiteStats(i);
        if (spans != nullptr) {
          spans->Add(buffer, "SiteStats", "rpc", 0, t0, Clock::now());
        }
        if (!stats.ok()) {
          std::fprintf(stderr, "SiteStats(%zu) failed: %s\n", i,
                       stats.status().ToString().c_str());
          snap.complete = false;
          continue;
        }
        for (const char* name : kStorageCounters) {
          snap.storage[name] += ScrapeCounter(stats->metrics_json, name);
        }
      }
    } else {
      for (const char* name : kStorageCounters) {
        snap.storage[name] =
            skalla::obs::MetricsRegistry::Global().GetCounter(name).value();
      }
    }
    snap.cpu_s = CpuSeconds();
    snap.steal_s = HostStealSeconds();
    snap.cache = session_->scheduler().cache().stats();
    auto& wait = skalla::obs::MetricsRegistry::Global().GetHistogram(
        "skalla.serve.queue_wait_us");
    snap.queue_wait_count = wait.count();
    snap.queue_wait_sum_us = wait.sum();
    return snap;
  }

 private:
  const Config* config_ = nullptr;
  std::unique_ptr<DistributedWarehouse> warehouse_;
  Cluster cluster_;
  std::optional<QuerySession> session_;
};

// --- One measured phase ----------------------------------------------------

struct Sample {
  double latency_ms = 0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<Sample> samples;  // queries, in completion order per client
  uint64_t attempted = 0;       // queries + writes
  uint64_t failed = 0;          // errors + wrong answers, queries + writes
  uint64_t wrong_answers = 0;
  uint64_t completed_queries = 0;
  uint64_t writes = 0;
  uint64_t invalidations = 0;
  double write_ms = 0;
  double plan_ms = 0;
  uint64_t planned = 0;
  double wall_s = 0;
  LayerTotals totals;
  CounterSnapshot before;
  CounterSnapshot after;
  std::map<std::string, uint64_t> answer_digests;  // last answer per plan
};

class Runner {
 public:
  Runner(const Config& config, const std::vector<PlanSpec>& mix)
      : config_(config), mix_(mix) {}

  // The warm-up: every plan of the mix once, bypassing the result cache,
  // so that connections, buffer pools and other lazy state are filled
  // before timing starts. Every answer must match.
  Status WarmUp(Deployment& deployment) {
    for (const PlanSpec& spec : mix_) {
      SKALLA_ASSIGN_OR_RETURN(
          skalla::DistributedPlan plan,
          deployment.warehouse().Plan(spec.query, spec.optimize));
      skalla::serve::QueryOptions options;
      options.use_cache = false;
      SKALLA_ASSIGN_OR_RETURN(
          skalla::serve::QueryResult answer,
          deployment.session().SubmitPlan(std::move(plan), options)
              .result.get());
      if (TableDigest(answer.table) != config_.inputs.digests.at(spec.name)) {
        return Status::Internal("wrong answer for " + spec.name);
      }
    }
    return Status::OK();
  }

  PhaseResult Run(Deployment& deployment, double seconds, uint64_t salt,
                  SpanLog* spans) {
    PhaseResult result;
    result.before = deployment.Snapshot(spans, &main_spans_);
    std::atomic<uint64_t> next_op{0};
    std::vector<PhaseResult> per_client(config_.workload.clients);
    std::vector<std::vector<Span>> buffers(config_.workload.clients);
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (size_t c = 0; c < config_.workload.clients; ++c) {
      clients.emplace_back([&, c] {
        ClientLoop(deployment, c, salt, end, &next_op, spans, &buffers[c],
                   &per_client[c]);
      });
    }
    for (std::thread& t : clients) t.join();
    result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    for (size_t c = 0; c < per_client.size(); ++c) {
      PhaseResult& p = per_client[c];
      result.samples.insert(result.samples.end(), p.samples.begin(),
                            p.samples.end());
      result.attempted += p.attempted;
      result.failed += p.failed;
      result.wrong_answers += p.wrong_answers;
      result.completed_queries += p.completed_queries;
      result.writes += p.writes;
      result.invalidations += p.invalidations;
      result.write_ms += p.write_ms;
      result.plan_ms += p.plan_ms;
      result.planned += p.planned;
      result.totals.Merge(p.totals);
      for (const auto& [name, digest] : p.answer_digests) {
        result.answer_digests[name] = digest;
      }
      if (spans != nullptr) spans->Merge(&buffers[c]);
    }
    result.after = deployment.Snapshot(spans, &main_spans_);
    if (spans != nullptr) spans->Merge(&main_spans_);
    return result;
  }

 private:
  void ClientLoop(Deployment& deployment, size_t client, uint64_t salt,
                  Clock::time_point end, std::atomic<uint64_t>* next_op,
                  SpanLog* spans, std::vector<Span>* buffer,
                  PhaseResult* out) {
    const Workload& w = config_.workload;
    skalla::Random rng(config_.seed * 1000003 + salt * 101 + client + 1);
    while (Clock::now() < end) {
      const uint64_t op = next_op->fetch_add(1);
      ++out->attempted;
      if (w.write_every != 0 && op % w.write_every == w.write_every - 1) {
        Write(deployment, spans, buffer, out);
        continue;
      }
      const size_t index =
          w.zipf_s > 0 ? static_cast<size_t>(rng.Zipf(mix_.size(), w.zipf_s))
                       : static_cast<size_t>(op % mix_.size());
      Query(deployment, mix_[index], spans, buffer, out);
    }
  }

  void Write(Deployment& deployment, SpanLog* spans, std::vector<Span>* buffer,
             PhaseResult* out) {
    std::unique_lock<std::shared_mutex> lock(warehouse_mu_);
    const uint64_t epoch = deployment.warehouse().data_epoch();
    const auto t0 = Clock::now();
    Status reloaded = deployment.warehouse().ReloadTable("tpcr");
    const auto t1 = Clock::now();
    if (spans != nullptr) spans->Add(buffer, "ReloadTable", "storage", 0, t0, t1);
    ++out->writes;
    out->write_ms += MsSince(t0, t1);
    if (!reloaded.ok()) {
      ++out->failed;
      std::fprintf(stderr, "ReloadTable failed: %s\n",
                   reloaded.ToString().c_str());
    } else if (deployment.warehouse().data_epoch() != epoch) {
      ++out->invalidations;
    }
  }

  void Query(Deployment& deployment, const PlanSpec& spec, SpanLog* spans,
             std::vector<Span>* buffer, PhaseResult* out) {
    Result<skalla::DistributedPlan> plan = Status::Internal("unplanned");
    const auto t0 = Clock::now();
    {
      std::shared_lock<std::shared_mutex> lock(warehouse_mu_);
      plan = deployment.warehouse().Plan(spec.query, spec.optimize);
    }
    const auto t1 = Clock::now();
    out->plan_ms += MsSince(t0, t1);
    ++out->planned;
    if (!plan.ok()) {
      ++out->failed;
      out->samples.push_back({MsSince(t0, t1), false});
      return;
    }
    skalla::serve::QueryOptions options;
    options.use_cache = config_.workload.cache;
    const auto t2 = Clock::now();
    auto submission = deployment.session().SubmitPlan(std::move(*plan), options);
    Result<skalla::serve::QueryResult> answer = submission.result.get();
    const auto t3 = Clock::now();
    if (spans != nullptr) {
      spans->Add(buffer, "Plan", "opt", submission.query_id, t0, t1);
      spans->Add(buffer, "SubmitPlan", "serve", submission.query_id, t2, t3);
    }
    const double latency = MsSince(t2, t3);
    if (!answer.ok()) {
      ++out->failed;
      out->samples.push_back({latency, false});
      std::fprintf(stderr, "%s failed: %s\n", spec.name.c_str(),
                   answer.status().ToString().c_str());
      return;
    }
    const uint64_t digest = TableDigest(answer->table);
    out->answer_digests[spec.name] = digest;
    if (digest != config_.inputs.digests.at(spec.name)) {
      ++out->failed;
      ++out->wrong_answers;
      out->samples.push_back({latency, false});
      std::fprintf(stderr, "%s: wrong answer (digest %016" PRIx64 ")\n",
                   spec.name.c_str(), digest);
      return;
    }
    ++out->completed_queries;
    out->samples.push_back({latency, true});
    if (!answer->stats.from_cache) out->totals.Add(answer->stats);
  }

  const Config& config_;
  const std::vector<PlanSpec>& mix_;
  // Plans read the warehouse's catalog; ReloadTable replaces it.
  std::shared_mutex warehouse_mu_;
  std::vector<Span> main_spans_;
};

// --- Statistics ------------------------------------------------------------

struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  // samples ranked above the percentile
};

// Nearest-rank percentile over every attempted query; failed queries rank
// above all successful ones (they miss any latency limit).
Percentile NearestRank(const std::vector<Sample>& samples, double p) {
  std::vector<std::pair<int, double>> ranked;
  for (const Sample& s : samples) ranked.push_back({s.ok ? 0 : 1, s.latency_ms});
  std::sort(ranked.begin(), ranked.end());
  Percentile out;
  out.samples = ranked.size();
  if (ranked.empty()) return out;
  size_t rank = static_cast<size_t>(std::ceil(p * ranked.size()));
  rank = std::clamp<size_t>(rank, 1, ranked.size());
  out.value = ranked[rank - 1].second;
  out.beyond = ranked.size() - rank;
  return out;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0;
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed only
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += skalla::StrCat(i ? ", " : "", "\"", metrics[i].name,
                          "\": {\"value\": ", JsonNumber(metrics[i].value),
                          ", \"unit\": \"", metrics[i].unit, "\"}");
  }
  return out + "}";
}

// --- The run ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  int trace = 0;
  std::string site_bin;
  std::string work_dir;
  std::string scale = "full";
  std::string results;
  std::string commit = "unknown";
};

constexpr int kSetups = 5;

// How long one set-up (load, spawn, connect, warm-up) took: elapsed, and
// CPU time of the coordinator and its sites.
struct SetupTime {
  double wall_s = 0;
  double cpu_s = 0;
};

Result<SetupTime> SetUp(const Config& config, Runner& runner,
                        Deployment* deployment) {
  const double cpu0 = CpuSeconds(::getpid());
  Stopwatch wall;
  SKALLA_RETURN_NOT_OK(deployment->Start(config));
  SKALLA_RETURN_NOT_OK(runner.WarmUp(*deployment));
  return SetupTime{wall.ElapsedSeconds(), deployment->CpuSeconds() - cpu0};
}

// One set-up in a forked child, which tears it down and reports its times
// through a pipe. Call only while this process has no threads.
Result<SetupTime> SetUpInChild(const Config& config, Runner& runner) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    std::string text;
    {
      Deployment deployment;
      Result<SetupTime> time = SetUp(config, runner, &deployment);
      if (time.ok()) {
        text = skalla::StrCat(JsonNumber(time->wall_s), " ",
                              JsonNumber(time->cpu_s), "\n");
      } else {
        std::fprintf(stderr, "%s\n", time.status().ToString().c_str());
      }
    }
    ssize_t written = ::write(fds[1], text.data(), text.size());
    ::_exit(!text.empty() && written == static_cast<ssize_t>(text.size())
                ? 0
                : 1);
  }
  ::close(fds[1]);
  std::string text;
  char buf[64];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) text.append(buf, n);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    return Status::Internal("set-up child failed");
  }
  SetupTime time;
  char* end = nullptr;
  time.wall_s = std::strtod(text.c_str(), &end);
  time.cpu_s = std::strtod(end, nullptr);
  return time;
}

void OnFatalSignal(int sig) {
  KillAllChildrenFromSignal();
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

int Run(const Args& args) {
  Config config;
  {
    auto w = WorkloadByName(args.workload);
    auto s = ScaleByName(args.scale);
    if (!w.ok() || !s.ok()) {
      std::fprintf(stderr, "%s\n",
                   (!w.ok() ? w.status() : s.status()).ToString().c_str());
      return 2;
    }
    config.workload = *w;
    config.scale = *s;
  }
  config.seed = args.seed;
  config.site_bin = args.site_bin;
  config.work_dir = args.work_dir;
  const Workload& w = config.workload;

  // A stray site from an earlier run would steal CPU from this one.
  std::vector<pid_t> strays = FindSiteProcesses();
  if (!strays.empty()) {
    std::fprintf(stderr,
                 "refusing to run: %zu skalla-site process(es) already "
                 "running (first pid %d)\n",
                 strays.size(), static_cast<int>(strays[0]));
    return 3;
  }
  if (w.rpc) {
    if (::access(args.site_bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "no skalla-site binary at '%s'\n",
                   args.site_bin.c_str());
      return 2;
    }
  }
  std::filesystem::create_directories(config.work_dir);

  // Input preparation (not timed): data, layouts, oracle digests.
  {
    auto inputs = PrepareInputs(config.scale, config.seed, config.work_dir,
                                !w.chunked, w.chunked);
    if (!inputs.ok()) {
      std::fprintf(stderr, "%s\n", inputs.status().ToString().c_str());
      return 1;
    }
    config.inputs = std::move(*inputs);
  }
  const std::vector<PlanSpec> mix = PlanMix(w.all_only);
  Runner runner(config, mix);

  // Set-up, several times. All but the last run in forked children:
  // in-process repetitions would leave their freed memory in this
  // process's allocator arenas and make peak_rss_mb depend on how the
  // next deployment reuses it. The last deployment stays up for
  // measuring.
  std::vector<double> setup_wall_s, setup_cpu_s;
  auto deployment = std::make_unique<Deployment>();
  for (int k = 1; k <= (args.trace ? 1 : kSetups); ++k) {
    Result<SetupTime> time = k < kSetups && !args.trace
                                 ? SetUpInChild(config, runner)
                                 : SetUp(config, runner, deployment.get());
    if (!time.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   time.status().ToString().c_str());
      return 1;
    }
    setup_wall_s.push_back(time->wall_s);
    setup_cpu_s.push_back(time->cpu_s);
  }

  std::vector<Metric> metrics;
  SpanLog spans(Clock::now());
  ProbeResult probes;
  uint64_t peak_rss = 0;
  PhaseResult measured = runner.Run(*deployment, args.seconds, 1, nullptr);
  PhaseResult traced;  // trace runs only
  if (args.trace == 0) {
    peak_rss = SelfPeakRssBytes() + deployment->cluster().SumPeakRssBytes();
  } else {
    traced = runner.Run(*deployment, args.seconds / 2.0, 2, &spans);
  }
  deployment.reset();  // sites exit and are reaped here

  if (args.trace != 0) {
    auto t0 = Clock::now();
    auto probed = RunProbes(config.data_dir(), config.buffer_bytes(), 3);
    std::vector<Span> probe_spans;
    spans.Add(&probe_spans, "probes", "probe", 0, t0, Clock::now());
    spans.Merge(&probe_spans);
    if (!probed.ok()) {
      std::fprintf(stderr, "probes failed: %s\n",
                   probed.status().ToString().c_str());
      return 1;
    }
    probes = *probed;
  }

  // --- Metrics ---
  // The untraced window gives the end-to-end figures and the wall-clock
  // ones; the traced window (trace runs only) the per-layer figures.
  const Percentile p50 = NearestRank(measured.samples, 0.5);
  const Percentile p90 = NearestRank(measured.samples, 0.9);
  const double qps = Ratio(measured.completed_queries, measured.wall_s);
  const uint64_t attempted = measured.attempted + traced.attempted;
  const uint64_t failed = measured.failed + traced.failed;
  const uint64_t wrong_answers = measured.wrong_answers + traced.wrong_answers;
  const double error_rate = Ratio(static_cast<double>(failed), attempted);
  // Wall-clock figures of the untraced window. They are printed with every
  // run and are per-layer metrics of the traced run, but carry no bound:
  // on a shared host they move with the neighbours' load (README.md).
  std::vector<Metric> wall = {
      {"latency_p50_ms", p50.value, "ms", skalla::StrCat("n=", p50.samples)},
      {"latency_p90_ms", p90.value, "ms",
       skalla::StrCat("n=", p90.samples, " beyond=", p90.beyond)},
      {"throughput_qps", qps, "1/s",
       skalla::StrCat("completed=", measured.completed_queries)},
      {"setup_wall_s", Median(setup_wall_s), "s",
       skalla::StrCat("median of ", setup_wall_s.size())},
  };
  if (args.trace == 0) {
    const LayerTotals& t = measured.totals;
    metrics = {
        {"cpu_ms_per_query",
         Ratio((measured.after.cpu_s - measured.before.cpu_s) * 1e3,
               measured.completed_queries),
         "ms", "coordinator + sites"},
        {"transfer_bytes_per_query",
         t.PerQuery(t.bytes_to_sites + t.bytes_to_coord), "bytes",
         skalla::StrCat("evaluated=", t.queries)},
        {"setup_s", Median(setup_cpu_s), "s",
         skalla::StrCat("CPU, median of ", setup_cpu_s.size())},
        {"peak_rss_mb", peak_rss / 1e6, "MB",
         "coordinator maxrss + sites' VmHWM"},
    };
  } else {
    const LayerTotals& t = traced.totals;
    const CounterSnapshot& b = traced.before;
    const CounterSnapshot& a = traced.after;
    auto storage = [&](const char* name) {
      return static_cast<double>(a.storage.at(name) - b.storage.at(name));
    };
    const double hits = a.cache.hits - b.cache.hits;
    const double lookups = hits + (a.cache.misses - b.cache.misses);
    const double buf_hits = storage("skalla.storage.buffer.hit");
    const double buf_misses = storage("skalla.storage.buffer.miss");
    const double queries = std::max<double>(1, traced.samples.size());
    const double payload = t.bytes_to_sites + t.bytes_to_coord;
    const double site_overhead = t.site_wall_ms - t.eval_ms;
    // Busy time per layer. Under the sequential round driver these add up
    // to the query span; with sites dispatched concurrently the site-side
    // parts overlap and the driver-loop share is clamped at 0.
    const double rpc_self =
        w.rpc ? std::max(0.0, t.round_wall_ms - t.site_sum_ms - t.merge_ms) +
                    site_overhead
              : 0;
    const double net_self = w.rpc ? t.site_sum_ms - t.site_wall_ms : 0;
    const double serve_self =
        spans.TotalUs("serve") / 1e3 - t.exec_ms;
    const Percentile p50_traced = NearestRank(traced.samples, 0.5);
    metrics = {
        {"wall.latency_p50_ms", p50.value, "ms", wall[0].note},
        {"wall.latency_p90_ms", p90.value, "ms", wall[1].note},
        {"wall.throughput_qps", qps, "1/s", wall[2].note},
        {"serve.queue_wait_ms",
         Ratio(a.queue_wait_sum_us - b.queue_wait_sum_us,
               a.queue_wait_count - b.queue_wait_count) / 1e3, "ms", ""},
        {"serve.cache.hit_rate", Ratio(hits, lookups), "ratio",
         skalla::StrCat("lookups=", lookups)},
        {"serve.cache.evictions",
         static_cast<double>(a.cache.evictions - b.cache.evictions), "count",
         ""},
        {"serve.cache.invalidations",
         static_cast<double>(traced.invalidations), "count", ""},
        {"serve.write_ms", Ratio(traced.write_ms, traced.writes), "ms",
         skalla::StrCat("writes=", traced.writes)},
        {"opt.plan_ms", Ratio(traced.plan_ms, traced.planned), "ms", ""},
        {"opt.sync_rounds_per_query", t.PerQuery(t.sync_rounds), "count", ""},
        {"dist.round_wall_ms", t.PerQuery(t.round_wall_ms), "ms", ""},
        {"dist.site_max_ms", t.PerQuery(t.site_max_ms), "ms", ""},
        {"dist.site_sum_ms", t.PerQuery(t.site_sum_ms), "ms", ""},
        {"dist.merge_ms", t.PerQuery(t.merge_ms), "ms", ""},
        {"dist.overlap_ratio",
         t.round_wall_ms > 0
             ? Ratio(t.round_wall_ms, t.site_max_ms + t.merge_ms)
             : 0,
         "ratio", "0 = round wall not measured by this engine"},
        {"rpc.dispatch_gap_ms", w.rpc ? t.PerQuery(t.dispatch_gap_ms) : 0,
         "ms", ""},
        {"rpc.site_overhead_ms", w.rpc ? t.PerQuery(site_overhead) : 0, "ms",
         ""},
        {"rpc.wire_bytes_per_query", t.PerQuery(t.wire_bytes), "bytes", ""},
        {"rpc.frame_overhead_ratio", Ratio(t.wire_bytes, payload), "ratio",
         ""},
        {"rpc.retries", static_cast<double>(t.retries), "count", ""},
        {"net.bytes_to_sites", t.PerQuery(t.bytes_to_sites), "bytes", ""},
        {"net.bytes_to_coord", t.PerQuery(t.bytes_to_coord), "bytes", ""},
        {"net.tuples_per_query", t.PerQuery(t.tuples), "count", ""},
        {"net.serde_mb_per_s", probes.serde_mb_per_s, "MB/s", "probe"},
        {"kernel.eval_ms", t.PerQuery(t.eval_ms), "ms", ""},
        {"kernel.morsel_ms", t.PerQuery(t.morsel_ms), "ms", ""},
        {"kernel.rows_scanned_per_query", t.PerQuery(t.rows_scanned), "count",
         ""},
        {"kernel.match_ratio", Ratio(t.rows_matched, t.rows_scanned), "ratio",
         ""},
        {"kernel.columnar_share", Ratio(t.columnar_site_rounds, t.site_rounds),
         "ratio", skalla::StrCat("site_rounds=", t.site_rounds)},
        {"storage.buffer.hit_rate", Ratio(buf_hits, buf_hits + buf_misses),
         "ratio", ""},
        {"storage.buffer.misses", buf_misses, "count", ""},
        {"storage.buffer.evictions", storage("skalla.storage.buffer.evict"),
         "count", ""},
        {"storage.chunks_pruned", storage("skalla.storage.chunks_pruned"),
         "count", ""},
        {"storage.scan_mb_per_s", probes.scan_mb_per_s, "MB/s", "probe"},
        {"self.serve_ms", serve_self / queries, "ms", "per query"},
        {"self.opt_ms", spans.TotalUs("opt") / 1e3 / queries, "ms",
         "per query"},
        {"self.dist_ms", t.merge_ms / queries, "ms", "per query"},
        {"self.rpc_ms", rpc_self / queries, "ms", "per query"},
        {"self.net_ms", net_self / queries, "ms", "per query"},
        {"self.kernel_ms", t.eval_ms / queries, "ms", "per query"},
        {"self.storage_ms", probes.scan_ms, "ms", "probe: one full pin scan"},
        {"probe.kernel_ms", probes.kernel_ms, "ms", "probe"},
        {"probe.merge_ms", probes.merge_ms, "ms", "probe"},
        {"trace.latency_p50_traced_ms", p50_traced.value, "ms",
         skalla::StrCat("n=", p50_traced.samples)},
        {"trace.overhead_ratio", Ratio(p50_traced.value, p50.value),
         "ratio", "traced / untraced latency_p50_ms"},
    };
  }

  // Honest percentiles: a p90 needs at least ten samples beyond it.
  const bool enough_samples = p90.beyond >= 10;
  const bool correct =
      wrong_answers == 0 && failed == 0 && enough_samples && attempted > 0 &&
      measured.before.complete && measured.after.complete &&
      (args.trace == 0 || (traced.before.complete && traced.after.complete));

  // The environment and every figure, in human-readable form.
  std::string partition_rows, partition_bytes;
  for (size_t i = 0; i < kSites; ++i) {
    partition_rows += skalla::StrCat(i ? "," : "", config.inputs.partition_rows[i]);
    partition_bytes +=
        skalla::StrCat(i ? "," : "", config.inputs.partition_bytes[i]);
  }
  std::string answers;  // all-reduction answers, to cross-check workloads
  uint64_t answers_digest = 0;
  for (const auto& [name, digest] : measured.answer_digests) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, "/all") == 0) {
      answers_digest = skalla::HashCombine(answers_digest, digest);
    }
  }
  char answers_hex[32];
  std::snprintf(answers_hex, sizeof answers_hex, "%016" PRIx64, answers_digest);
  const std::string env = skalla::StrCat(
      "workload=", w.name, " seed=", args.seed, " seconds=", args.seconds,
      " trace=", args.trace, " scale=", config.scale.name,
      " nproc=", std::thread::hardware_concurrency(), " commit=", args.commit,
      " build_type=", PERFBENCH_BUILD_TYPE,
      " SKALLA_TRACING=", skalla::obs::TracingCompiledIn() ? "ON" : "OFF",
      " rows=", config.scale.rows, " partition_rows=", partition_rows,
      " partition_bytes=", partition_bytes,
      " buffer_bytes=", config.buffer_bytes(), " clients=", w.clients,
      " host_steal_share=",
      Ratio(measured.after.steal_s - measured.before.steal_s,
            measured.wall_s * std::thread::hardware_concurrency()));
  std::printf("# %s\n", env.c_str());
  std::printf("# attempted=%" PRIu64 " failed=%" PRIu64 " wrong_answers=%" PRIu64
              " error_rate=%.6f writes=%" PRIu64 " all_answers_digest=%s\n",
              attempted, failed, wrong_answers, error_rate,
              measured.writes + traced.writes, answers_hex);
  for (const Metric& m : wall) {
    std::printf("# wall %-34s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (!enough_samples) {
    std::fprintf(stderr,
                 "rejected: p90 has %zu samples beyond it (need >= 10)\n",
                 p90.beyond);
  }

  if (args.trace != 0) {
    spans.WriteChrome(config.work_dir + "/spans.json");
  }
  const std::string result_line = skalla::StrCat(
      "{\"correct\": ", correct ? "true" : "false",
      ", \"attempted\": ", attempted, ", \"failed\": ", failed,
      ", \"metrics\": ", MetricsJson(metrics), "}");
  if (!args.results.empty()) {
    std::ofstream out(args.results);
    out << "{\"environment\": \"" << JsonEscape(env) << "\", "
        << "\"error_rate\": " << JsonNumber(error_rate) << ", "
        << "\"all_answers_digest\": \"" << answers_hex << "\", "
        << "\"wall\": " << MetricsJson(wall) << ", "
        << "\"result\": " << result_line << "}\n";
  }
  std::printf("%s\n", result_line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  skalla::FlagSet flags;
  flags.String("--workload", &args.workload,
               "rpc_resident | rpc_paged | serve_mixed");
  flags.Uint64("--seed", &args.seed, "input seed");
  flags.Int("--seconds", &args.seconds, "measured seconds");
  flags.Int("--trace", &args.trace, "1 = traced run (per-layer metrics)");
  flags.String("--site-bin", &args.site_bin, "skalla-site binary");
  flags.String("--work-dir", &args.work_dir, "scratch directory of this run");
  flags.String("--scale", &args.scale, "full | toy");
  flags.String("--results", &args.results, "write the full record here");
  flags.String("--commit", &args.commit, "source revision, recorded");
  skalla::Status parsed = flags.Parse(&argc, argv);
  if (!parsed.ok() || args.workload.empty() || args.work_dir.empty() ||
      args.seconds < 1) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) {
    std::signal(sig, perfbench::OnFatalSignal);
  }
  return perfbench::Run(args);
}
