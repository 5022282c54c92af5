// core::EvaluateGmdj — the single entry point for GMDJ evaluation.
//
// Callers (sites, executors, tests) name the detail relation through a
// Catalog and pick an engine through EvalContext::engine; routing
// between the row kernel (core/local_eval.h) and the vectorized
// columnar kernels (columnar/vector_eval.h) lives here and nowhere
// else. Both engines produce byte-identical results for every condition
// shape, so the choice is purely a performance one:
//
//  - kAuto (default): the columnar kernels whenever the relation has a
//    chunk form (CheckChunkable: every column has a concrete type).
//    Paged relations stream their chunks' typed pages; resident ones
//    stream their MemoryDataProvider's column pages, built per pinned
//    column on first pin and cached. A resident relation with an
//    untyped column has no chunk form and takes the row engine.
//  - kColumnar: always the columnar kernels; a relation with no chunk
//    form fails with InvalidArgument.
//  - kRow: always the row kernel (the differential-test oracle), which
//    evaluates an in-memory Table: a paged relation is materialized
//    whole first. That is the oracle reading paged data, not a
//    production path.
//
// The columnar kernels have no nested-loop oracle mode, so
// `use_index = false` routes to the row engine under every setting —
// the transparent fallback EXPLAIN ANALYZE surfaces via engines_used —
// and so, on paged data, to the same materialization.
//
// The engine actually used is recorded in
// EvalContext::profile->engines_used (kEngineBitRow / kEngineBitColumnar)
// for EXPLAIN ANALYZE and the per-site round profiles.

#ifndef SKALLA_CORE_EVALUATE_H_
#define SKALLA_CORE_EVALUATE_H_

#include "common/result.h"
#include "core/eval_context.h"
#include "core/gmdj.h"
#include "storage/catalog.h"

namespace skalla {

/// Evaluates one GMDJ operator for the given base-values relation
/// against `catalog`'s detail partition, routing to the engine
/// EvalContext::engine selects (see file comment for the policy).
Result<Table> EvaluateGmdj(const Table& base, const GmdjOp& op,
                           const Catalog& catalog,
                           const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_CORE_EVALUATE_H_
