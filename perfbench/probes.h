// Layer probes for the traced run: each times one layer's public
// functions directly on the workload's own data, outside any query.

#ifndef SKALLA_PERFBENCH_PROBES_H_
#define SKALLA_PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace perfbench {

struct ProbeResult {
  /// core::EvaluateGmdj of one sub-aggregate operator, summed over the
  /// partitions (each loaded through LoadSiteCatalog).
  double kernel_ms = 0;
  /// WriteTable/ReadTable + EncodeFrame/DecodeFrame over the kernel's
  /// outputs: payload megabytes through the codec per second.
  double serde_mb_per_s = 0;
  /// Coordinator::MergeFragment + FinalizeRound over those outputs.
  double merge_ms = 0;
  /// A full DataProvider::Pin scan of every partition at the workload's
  /// buffer budget.
  double scan_ms = 0;
  double scan_mb_per_s = 0;
};

/// Runs every probe `repeats` times on the saved warehouse in `dir` and
/// keeps each figure's median.
skalla::Result<ProbeResult> RunProbes(const std::string& dir,
                                      uint64_t buffer_bytes, int repeats);

}  // namespace perfbench

#endif  // SKALLA_PERFBENCH_PROBES_H_
