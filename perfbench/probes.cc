#include "probes.h"

#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "core/evaluate.h"
#include "dist/coordinator.h"
#include "dist/warehouse.h"
#include "inputs.h"
#include "net/serde.h"
#include "rpc/frame.h"

namespace perfbench {
namespace {

using skalla::Result;
using skalla::Status;
using skalla::Stopwatch;
using skalla::Table;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0 : values[values.size() / 2];
}

Result<ProbeResult> ProbeOnce(const std::string& dir, uint64_t buffer_bytes) {
  ProbeResult result;
  skalla::StorageOptions storage;
  storage.buffer_bytes = buffer_bytes;
  const skalla::GmdjExpr query = skalla::bench::CorrelatedQuery("CustName");
  const skalla::GmdjOp& op = query.ops[0];
  skalla::EvalContext context;
  context.sub_aggregates = true;

  std::vector<Table> bases;
  std::vector<Table> fragments;
  skalla::SchemaPtr detail_schema;
  uint64_t scanned_bytes = 0;
  for (size_t i = 0; i < kSites; ++i) {
    SKALLA_ASSIGN_OR_RETURN(skalla::Catalog catalog,
                            skalla::LoadSiteCatalog(dir, i, storage));
    SKALLA_ASSIGN_OR_RETURN(const skalla::DataProvider* provider,
                            catalog.GetProvider("tpcr"));
    detail_schema = provider->schema();

    Stopwatch scan;
    for (size_t c = 0; c < provider->num_chunks(); ++c) {
      SKALLA_ASSIGN_OR_RETURN(skalla::PinnedChunk pinned, provider->Pin(c));
      scanned_bytes += pinned->byte_size();
    }
    result.scan_ms += scan.ElapsedSeconds() * 1e3;

    SKALLA_ASSIGN_OR_RETURN(Table base, query.base.Execute(catalog));
    Stopwatch kernel;
    SKALLA_ASSIGN_OR_RETURN(Table fragment,
                            skalla::EvaluateGmdj(base, op, catalog, context));
    result.kernel_ms += kernel.ElapsedSeconds() * 1e3;
    bases.push_back(std::move(base));
    fragments.push_back(std::move(fragment));
  }
  result.scan_mb_per_s =
      result.scan_ms > 0 ? scanned_bytes / 1e6 / (result.scan_ms / 1e3) : 0;

  // Codec: what a site does to ship a fragment and the coordinator does
  // to receive it.
  uint64_t codec_bytes = 0;
  Stopwatch codec;
  for (const Table& fragment : fragments) {
    std::vector<uint8_t> payload;
    skalla::WriteTable(fragment, &payload);
    std::vector<uint8_t> frame = skalla::rpc::EncodeFrame(
        skalla::rpc::MessageType::kTableResult, payload);
    SKALLA_ASSIGN_OR_RETURN(skalla::rpc::Frame decoded,
                            skalla::rpc::DecodeFrame(frame));
    SKALLA_ASSIGN_OR_RETURN(Table read, skalla::ReadTable(
                                            decoded.payload.data(),
                                            decoded.payload.size()));
    if (read.num_rows() != fragment.num_rows()) {
      return Status::Internal("codec probe: row count changed");
    }
    codec_bytes += payload.size();
  }
  const double codec_s = codec.ElapsedSeconds();
  result.serde_mb_per_s = codec_s > 0 ? codec_bytes / 1e6 / codec_s : 0;

  // Merge: the coordinator's base union, then one GMDJ round.
  skalla::Coordinator coordinator(query.base.columns);
  SKALLA_RETURN_NOT_OK(coordinator.InitBase(bases[0].schema()));
  for (const Table& base : bases) {
    SKALLA_RETURN_NOT_OK(coordinator.MergeBaseFragment(base));
  }
  SKALLA_RETURN_NOT_OK(coordinator.FinalizeBase());
  Stopwatch merge;
  SKALLA_RETURN_NOT_OK(coordinator.BeginRound(op, *bases[0].schema(),
                                              *detail_schema, false));
  for (const Table& fragment : fragments) {
    SKALLA_RETURN_NOT_OK(coordinator.MergeFragment(fragment));
  }
  SKALLA_RETURN_NOT_OK(coordinator.FinalizeRound());
  result.merge_ms = merge.ElapsedSeconds() * 1e3;
  return result;
}

}  // namespace

Result<ProbeResult> RunProbes(const std::string& dir, uint64_t buffer_bytes,
                              int repeats) {
  std::vector<double> kernel, serde, merge, scan, scan_rate;
  for (int r = 0; r < repeats; ++r) {
    SKALLA_ASSIGN_OR_RETURN(ProbeResult once, ProbeOnce(dir, buffer_bytes));
    kernel.push_back(once.kernel_ms);
    serde.push_back(once.serde_mb_per_s);
    merge.push_back(once.merge_ms);
    scan.push_back(once.scan_ms);
    scan_rate.push_back(once.scan_mb_per_s);
  }
  ProbeResult result;
  result.kernel_ms = Median(kernel);
  result.serde_mb_per_s = Median(serde);
  result.merge_ms = Median(merge);
  result.scan_ms = Median(scan);
  result.scan_mb_per_s = Median(scan_rate);
  return result;
}

}  // namespace perfbench
