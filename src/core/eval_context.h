// EvalContext: the single options surface for GMDJ evaluation.
//
// One struct travels from the executor layer (ExecutorOptions) through
// Site::EvalGmdjRound into both evaluation engines — the row kernel
// (core/local_eval.h) and the vectorized columnar kernel
// (columnar/vector_eval.h). It absorbs what used to be three fragmented
// knobs: the old GmdjEvalOptions struct, the columnar path's silently
// ignored use_index flag, and the bare `bool use_index` parameter on
// EvalCentralized.
//
// Determinism contract (Theorem 1): per-thread sub-aggregate partials
// merge exactly like per-site ones, so intra-site parallelism cannot
// change query semantics. The kernels go further and guarantee
// *byte-identical* results at any eval_threads value: work decomposition
// (morsel boundaries, partial-merge order) is a pure function of
// morsel_rows, and eval_threads only decides which worker executes each
// morsel — never how results are combined.

#ifndef SKALLA_CORE_EVAL_CONTEXT_H_
#define SKALLA_CORE_EVAL_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "core/cancellation.h"

namespace skalla {

/// Which GMDJ kernel evaluates an operator. kAuto (the default) picks
/// the columnar engine whenever the detail relation is chunk-paged and
/// the evaluation is not an explicit nested-loop oracle request
/// (use_index = false, which always takes the row engine — even under
/// an explicit kColumnar request, as a transparent fallback).
enum class EvalEngine : uint8_t {
  kAuto = 0,
  kRow = 1,
  kColumnar = 2,
};

/// "auto", "row", or "columnar".
std::string_view EvalEngineName(EvalEngine engine);

/// Bits of EvalProfile::engines_used / ExecStats::engines_used.
inline constexpr uint8_t kEngineBitRow = 1;
inline constexpr uint8_t kEngineBitColumnar = 2;

/// Renders an engines_used bit set: "row", "columnar", "row+columnar",
/// or "-" when no evaluation ran.
std::string_view EngineSetToString(uint8_t engines_used);

/// Data-plane counters one GMDJ evaluation accumulates, independent of
/// the SKALLA_TRACING build gate (the counts feed RoundProfile on the
/// wire, not just telemetry). Workers batch per-morsel counts locally
/// and fold them in with one relaxed fetch_add per morsel.
struct EvalProfile {
  /// Detail (or candidate) rows examined by theta evaluation.
  std::atomic<uint64_t> rows_scanned{0};
  /// (base row, detail row) pairs that satisfied a block's condition.
  std::atomic<uint64_t> rows_matched{0};
  /// Candidate rows produced by hash-index probes (indexed path only).
  std::atomic<uint64_t> index_hits{0};
  /// Summed per-morsel wall time; with eval_threads > 1 morsels overlap,
  /// so this exceeds the evaluation's wall time.
  std::atomic<uint64_t> morsel_us{0};
  /// Chunks skipped by min/max stat pruning (columnar kernels).
  std::atomic<uint64_t> chunks_pruned{0};
  /// Column pages the kernels pinned from a chunked detail relation, the
  /// pages among them that missed the buffer pool, and the bytes those
  /// misses loaded (ColumnPage::bytes).
  std::atomic<uint64_t> pages_pinned{0};
  std::atomic<uint64_t> pages_missed{0};
  std::atomic<uint64_t> page_bytes_loaded{0};
  /// kEngineBit* OR of the kernels that actually evaluated operators.
  std::atomic<uint8_t> engines_used{0};
};

/// Default number of rows per morsel (nested-loop detail morsels and
/// indexed-path base-row ranges alike). Large enough that single-morsel
/// inputs — every small table — take the exact pre-morsel code path.
inline constexpr size_t kDefaultMorselRows = 1024;

struct EvalContext {
  /// Produce decomposed sub-aggregate part columns (what a site ships)
  /// instead of finalized aggregates.
  bool sub_aggregates = false;

  /// Append the `__rng` indicator column: 1 if RNG(b, R, θ_1 ∨ … ∨ θ_m)
  /// is non-empty, else 0 (Prop. 1, distribution-independent group
  /// reduction).
  bool compute_rng = false;

  /// Which kernel evaluates the operator. kAuto picks the columnar
  /// engine for chunk-paged relations and the row engine for resident
  /// ones; kRow forces the interpreted row kernel (the differential-test
  /// oracle, which materializes a paged relation whole before it
  /// evaluates); kColumnar forces the vectorized kernel (streaming the
  /// cached column pages of resident relations). use_index = false
  /// always falls back to the row engine regardless of this field.
  EvalEngine engine = EvalEngine::kAuto;

  /// Use hash-index acceleration of equality atoms. Disable to get the
  /// naive nested-loop oracle. The columnar kernel has no nested-loop
  /// mode and rejects use_index = false with InvalidArgument;
  /// core::EvaluateGmdj routes oracle requests to the row engine, which
  /// materializes a paged relation first. Tests and benches use it; no
  /// production route does.
  bool use_index = true;

  /// Skip chunks whose persisted min/max ChunkColumnStats prove that a
  /// detail-side comparison atom of θ can match no row (columnar
  /// kernels only). Results are byte-identical with pruning on or off; the
  /// flag exists so tests can pin that.
  bool chunk_pruning = true;

  /// Worker threads for intra-site morsel-parallel evaluation.
  /// 1 (default) = evaluate on the calling thread; 0 = one worker per
  /// hardware thread. Results are byte-identical for every value.
  size_t eval_threads = 1;

  /// Rows per morsel. This — not eval_threads — is the knob that can
  /// perturb the last bits of FLOAT64 sums (chunked partial merges
  /// re-associate additions); it is fixed by default so results are
  /// reproducible run to run. Must be > 0.
  size_t morsel_rows = kDefaultMorselRows;

  /// Cooperative cancellation (core/cancellation.h); nullptr = never
  /// cancelled. Not owned. Both kernels poll it at morsel boundaries and
  /// return its latched status (typically kDeadlineExceeded), so a fired
  /// deadline stops in-flight evaluation within one morsel's worth of
  /// work per thread.
  CancellationToken* cancellation = nullptr;

  /// The query this evaluation belongs to (0 = untagged). Worker threads
  /// re-establish the coordinator's query-id scope from this, so morsel
  /// spans and metrics recorded off-thread stay attributable.
  uint64_t query_id = 0;

  /// Span id to parent morsel spans under (0 = the worker's own span
  /// stack). Lets morsel spans recorded on pool threads nest under the
  /// site.eval span that scheduled them.
  uint64_t trace_parent_span = 0;

  /// Where the kernels accumulate data-plane counts; nullptr = skip.
  /// Not owned.
  EvalProfile* profile = nullptr;
};

/// Resolves eval_threads: 0 means one worker per hardware thread (at
/// least 1).
size_t ResolveEvalThreads(size_t configured);

/// Rejects malformed contexts (morsel_rows == 0) with InvalidArgument.
Status ValidateEvalContext(const EvalContext& context);

}  // namespace skalla

#endif  // SKALLA_CORE_EVAL_CONTEXT_H_
