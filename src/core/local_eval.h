// Local (single-site / centralized) evaluation of GMDJ operators: the
// row kernel, which evaluates an in-memory Table.
//
// Conventional groupwise/hash aggregation does not directly apply to GMDJ
// conditions because RNG(b1, R, θ) and RNG(b2, R, θ) may overlap
// (Sect. 2.2). Following the centralized evaluation techniques of
// [Akinde & Böhlen 2001; Chatziantoniou et al. 2001], the evaluator splits
// each θ into hash-joinable equality atoms plus a residual predicate:
// equality atoms key a hash index over the detail relation; candidates are
// filtered by the residual. A naive nested-loop path (use_index = false)
// serves as the test oracle.
//
// Both paths are morsel-parallel under EvalContext::eval_threads:
//  - indexed: base rows split into ranges of morsel_rows; each worker
//    probes one shared immutable hash index per distinct key-column
//    pairing (built once up front, concurrently per pairing) and owns
//    its slice of the accumulator matrix outright;
//  - nested-loop: the detail relation splits into morsels of morsel_rows;
//    each worker folds its morsel into private BlockState partials, and
//    partials merge in morsel order with the same sub-aggregate
//    synchronization the coordinator applies to per-site partials
//    (Theorem 1).
// Work decomposition depends only on morsel_rows, so results are
// byte-identical at every eval_threads value.
//
// The row kernel serves resident relations and is the reference the
// columnar kernels (columnar/vector_eval.h) are tested against. Over a
// chunk-paged relation it first materializes the whole relation
// (MaterializeProvider): that is the oracle's way to read paged data,
// not a production path — core::EvaluateGmdj sends paged relations to
// the columnar kernels unless the caller asks for the row engine.

#ifndef SKALLA_CORE_LOCAL_EVAL_H_
#define SKALLA_CORE_LOCAL_EVAL_H_

#include "common/result.h"
#include "core/eval_context.h"
#include "core/gmdj.h"
#include "storage/catalog.h"
#include "storage/data_provider.h"
#include "storage/table.h"

namespace skalla {

/// Evaluates one GMDJ operator: one output row per base row, extended with
/// the block aggregates (finalized or partial per `context`).
Result<Table> EvalGmdj(const Table& base, const Table& detail,
                       const GmdjOp& op, const EvalContext& context = {});

/// Same, against a DataProvider. A provider with a resident table is
/// evaluated in place; a paged one is materialized once and evaluated
/// as a Table, with every page it pins charged to context.profile. The
/// bytes equal the resident evaluation at any buffer budget.
Result<Table> EvalGmdj(const Table& base, const DataProvider& detail,
                       const GmdjOp& op, const EvalContext& context = {});

/// Reference semantics of a whole GMDJ expression against a centralized
/// catalog: evaluates the base query, then each GMDJ in turn with full
/// aggregates (the sub_aggregates / compute_rng fields of `context` are
/// overridden — a reference evaluation always finalizes). Works for both
/// resident and chunk-backed catalog entries (the latter materialized
/// per operator).
Result<Table> EvalCentralized(const GmdjExpr& expr, const Catalog& catalog,
                              const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_CORE_LOCAL_EVAL_H_
