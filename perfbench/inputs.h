// Benchmark inputs: the seeded TPC-R relation, its on-disk warehouse
// layouts, the plan mixes of the workloads, and the expected answer of
// every plan (computed with the row engine, the differential oracle).

#ifndef SKALLA_PERFBENCH_INPUTS_H_
#define SKALLA_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/gmdj.h"
#include "opt/options.h"
#include "storage/table.h"

namespace perfbench {

/// Data volume of one run. "full" is the measured size; "toy" is the
/// self-test size.
struct Scale {
  std::string name;
  int64_t rows = 0;
  int64_t customers = 0;
  int64_t clerks = 0;
  size_t chunk_rows = 0;
  /// rpc_paged: each site's --buffer-bytes (well below its partition).
  uint64_t paged_buffer_bytes = 0;
  /// serve_mixed: the in-process pool (holds the whole relation).
  uint64_t serve_buffer_bytes = 0;
};

skalla::Result<Scale> ScaleByName(const std::string& name);

inline constexpr size_t kSites = 4;

/// One query of a workload mix: a paper query shape over a grouping
/// column, planned with no reductions or with all of them.
struct PlanSpec {
  std::string name;  // e.g. "combined/CustName/all"
  skalla::GmdjExpr query;
  skalla::OptimizerOptions optimize;
};

/// {Correlated, Coalescing, Combined} x {CustName, Clerk, CustKey} x
/// {none, all}; `all_only` keeps just the all-reduction plans.
std::vector<PlanSpec> PlanMix(bool all_only);

/// What input preparation leaves in the work directory.
struct PreparedInputs {
  std::string eager_dir;    // version-1 warehouse (empty if not written)
  std::string chunked_dir;  // version-2 chunked warehouse (ditto)
  std::vector<uint64_t> partition_rows;
  std::vector<uint64_t> partition_bytes;  // serialized partition sizes
  /// Expected answer digest per PlanSpec::name.
  std::map<std::string, uint64_t> digests;
};

/// Generates the relation for `seed` (4 partitions on NationKey mod 4,
/// skewed), saves the requested layouts under `work_dir`, and computes
/// the digest of every plan of PlanMix(false) with the row engine. Runs
/// in a child process so none of it counts toward the driver's memory
/// or set-up time.
skalla::Result<PreparedInputs> PrepareInputs(const Scale& scale,
                                             uint64_t seed,
                                             const std::string& work_dir,
                                             bool eager, bool chunked);

/// The digest every answer is compared with: a 64-bit hash of the
/// table's serialized bytes.
uint64_t TableDigest(const skalla::Table& table);

}  // namespace perfbench

#endif  // SKALLA_PERFBENCH_INPUTS_H_
