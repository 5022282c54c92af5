#include "inputs.h"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "common/hash.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "net/serde.h"
#include "serve/session.h"

namespace perfbench {
namespace {

using skalla::Result;
using skalla::Status;
using skalla::Table;

// Relative size of each partition: its share of the 25 nations (partition
// 0 holds 7, the others 6) times a skew factor, so sizes differ about 4x
// and one site is clearly the slowest of every round.
constexpr double kNations[kSites] = {7, 6, 6, 6};
constexpr double kSkew[kSites] = {1.0, 0.55, 0.38, 0.27};

// Each partition takes the first rows of its nations until it holds its
// fixed share of scale.rows, so partition sizes are the same for every
// seed and only their contents vary.
std::vector<Table> GenerateSkewedPartitions(const Scale& scale,
                                            uint64_t seed) {
  skalla::TpcrConfig config;
  config.seed = seed;
  config.num_rows = scale.rows * 4;  // more than enough; stopped early
  config.num_customers = scale.customers;
  config.num_clerks = scale.clerks;
  skalla::TpcrStream stream(config);
  double weight_sum = 0;
  for (size_t i = 0; i < kSites; ++i) weight_sum += kNations[i] * kSkew[i];
  std::vector<size_t> quota(kSites);
  size_t quota_sum = 0;
  for (size_t i = 1; i < kSites; ++i) {
    quota[i] = static_cast<size_t>(scale.rows * kNations[i] * kSkew[i] /
                                   weight_sum);
    quota_sum += quota[i];
  }
  quota[0] = static_cast<size_t>(scale.rows) - quota_sum;
  std::vector<Table> parts;
  for (size_t i = 0; i < kSites; ++i) parts.emplace_back(stream.schema());
  const size_t nation_col =
      static_cast<size_t>(stream.schema()->IndexOf("NationKey"));
  size_t kept = 0;
  while (kept < static_cast<size_t>(scale.rows)) {
    Table batch = stream.NextBatch(8192);
    if (batch.empty()) break;
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      const skalla::Row& row = batch.row(r);
      size_t part = static_cast<size_t>(row[nation_col].int64()) % kSites;
      if (parts[part].num_rows() >= quota[part]) continue;
      parts[part].AppendUnchecked(row);
      ++kept;
    }
  }
  return parts;
}

// The child half of PrepareInputs; returns the process exit code.
int PrepareInChild(const Scale& scale, uint64_t seed,
                   const std::string& work_dir, bool eager, bool chunked) {
  std::vector<Table> parts = GenerateSkewedPartitions(scale, seed);
  std::ofstream out(work_dir + "/inputs.txt");
  for (size_t i = 0; i < parts.size(); ++i) {
    out << "partition " << i << " " << parts[i].num_rows() << " "
        << skalla::SerializedTableSize(parts[i]) << "\n";
  }
  skalla::DistributedWarehouse dw(kSites);
  Status added = dw.AddPartitionedTable("tpcr", std::move(parts),
                                        skalla::bench::TrackedColumns());
  if (!added.ok()) {
    std::fprintf(stderr, "inputs: %s\n", added.ToString().c_str());
    return 1;
  }
  if (eager) {
    std::filesystem::create_directories(work_dir + "/eager");
    Status saved = dw.Save(work_dir + "/eager");
    if (!saved.ok()) {
      std::fprintf(stderr, "inputs: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  if (chunked) {
    std::filesystem::create_directories(work_dir + "/chunked");
    Status saved = dw.SaveChunked(work_dir + "/chunked", scale.chunk_rows);
    if (!saved.ok()) {
      std::fprintf(stderr, "inputs: %s\n", saved.ToString().c_str());
      return 1;
    }
  }

  // The oracle: every plan through an in-process session on the row
  // engine, cache off.
  skalla::serve::SessionOptions options;
  options.exec.engine = skalla::EvalEngine::kRow;
  options.scheduler.max_concurrent_queries = 1;
  options.scheduler.cache_max_bytes = 0;
  auto session = skalla::serve::QuerySession::Open(&dw, options);
  if (!session.ok()) {
    std::fprintf(stderr, "inputs: %s\n", session.status().ToString().c_str());
    return 1;
  }
  for (const PlanSpec& spec : PlanMix(false)) {
    auto plan = dw.Plan(spec.query, spec.optimize);
    if (!plan.ok()) {
      std::fprintf(stderr, "inputs: %s: %s\n", spec.name.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    auto answer = session->SubmitPlan(std::move(*plan)).result.get();
    if (!answer.ok()) {
      std::fprintf(stderr, "inputs: %s: %s\n", spec.name.c_str(),
                   answer.status().ToString().c_str());
      return 1;
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, TableDigest(answer->table));
    out << "digest " << spec.name << " " << hex << "\n";
  }
  out.close();
  return out ? 0 : 1;
}

}  // namespace

Result<Scale> ScaleByName(const std::string& name) {
  Scale scale;
  scale.name = name;
  if (name == "full") {
    scale.rows = 20000;
    scale.customers = 400;
    scale.clerks = 50;
    scale.chunk_rows = 1024;
    scale.paged_buffer_bytes = 512u << 10;
    scale.serve_buffer_bytes = 1ull << 30;
  } else if (name == "toy") {
    scale.rows = 4000;
    scale.customers = 200;
    scale.clerks = 40;
    scale.chunk_rows = 256;
    scale.paged_buffer_bytes = 96u << 10;
    scale.serve_buffer_bytes = 64u << 20;
  } else {
    return Status::InvalidArgument("unknown scale '" + name + "'");
  }
  return scale;
}

std::vector<PlanSpec> PlanMix(bool all_only) {
  using QueryFn = skalla::GmdjExpr (*)(const std::string&);
  const std::pair<const char*, QueryFn> shapes[] = {
      {"correlated", &skalla::bench::CorrelatedQuery},
      {"coalescing", &skalla::bench::CoalescingQuery},
      {"combined", &skalla::bench::CombinedQuery}};
  std::vector<PlanSpec> mix;
  for (const auto& [shape, make] : shapes) {
    for (const char* column : {"CustName", "Clerk", "CustKey"}) {
      for (bool all : {false, true}) {
        if (all_only && !all) continue;
        PlanSpec spec;
        spec.name = skalla::StrCat(shape, "/", column, all ? "/all" : "/none");
        spec.query = make(column);
        spec.optimize = all ? skalla::OptimizerOptions::All()
                            : skalla::OptimizerOptions::None();
        mix.push_back(std::move(spec));
      }
    }
  }
  return mix;
}

uint64_t TableDigest(const Table& table) {
  std::vector<uint8_t> bytes;
  skalla::WriteTable(table, &bytes);
  return skalla::HashBytes(bytes.data(), bytes.size());
}

Result<PreparedInputs> PrepareInputs(const Scale& scale, uint64_t seed,
                                     const std::string& work_dir, bool eager,
                                     bool chunked) {
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // die with the driver
    if (::getppid() != parent) ::_exit(1);
    ::_exit(PrepareInChild(scale, seed, work_dir, eager, chunked));
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal("input preparation failed");
  }

  PreparedInputs inputs;
  if (eager) inputs.eager_dir = work_dir + "/eager";
  if (chunked) inputs.chunked_dir = work_dir + "/chunked";
  std::ifstream in(work_dir + "/inputs.txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    if (kind == "partition") {
      size_t index = 0;
      uint64_t rows = 0, bytes = 0;
      fields >> index >> rows >> bytes;
      inputs.partition_rows.push_back(rows);
      inputs.partition_bytes.push_back(bytes);
    } else if (kind == "digest") {
      std::string name, hex;
      fields >> name >> hex;
      inputs.digests[name] = std::stoull(hex, nullptr, 16);
    }
  }
  if (inputs.partition_rows.size() != kSites ||
      inputs.digests.size() != PlanMix(false).size()) {
    return Status::Internal("incomplete inputs.txt");
  }
  return inputs;
}

}  // namespace perfbench
