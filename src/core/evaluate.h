// core::EvaluateGmdj — the single entry point for GMDJ evaluation.
//
// Callers (sites, executors, tests) name the detail relation through a
// Catalog and pick an engine through EvalContext::engine; routing
// between the row kernel (core/local_eval.h) and the vectorized
// columnar kernels (columnar/vector_eval.h) lives here and nowhere
// else. Both engines produce byte-identical results for every condition
// shape, so the choice is purely a performance one:
//
//  - kAuto (default): columnar when the relation is chunk-paged
//    (ResidentTable() == nullptr), whose chunks already hold typed
//    pages; resident relations take the row engine.
//  - kColumnar: always the columnar kernels; a resident relation
//    streams through its MemoryDataProvider's lazily built, cached
//    chunk views.
//  - kRow: always the row kernel (the differential-test oracle).
//
// The columnar kernels have no nested-loop oracle mode, so
// `use_index = false` routes to the row engine under every setting —
// the transparent fallback EXPLAIN ANALYZE surfaces via engines_used.
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
