// Vectorized GMDJ evaluation over a detail relation's typed chunks, for
// arbitrary conditions θ.
//
// The detail relation streams through its DataProvider one chunk at a
// time, in global row order (pin → select → fold → unpin), pinning only
// the columns a block reads. The same path serves chunk-paged relations
// (ChunkFileDataProvider) and resident ones (MemoryDataProvider's column
// pages, built per column on first pin and cached). Group maps own boxed
// representative keys,
// so a chunk may be evicted between the build and the probe, and chunks
// whose min/max stats prove no row can pass a comparison conjunct are
// skipped without pinning (EvalContext::chunk_pruning) — results stay
// byte-identical at any buffer budget, pruning on or off.
//
// Each block's θ splits into equality atoms, detail-only conjuncts,
// correlated conjuncts, and base-only conjuncts (predicate_eval.h), and
// the block takes one of three paths:
//
//  - Grouped (equality atoms, no correlated conjuncts): detail-only
//    conjuncts become a selection bitmap, surviving rows get dense group
//    ids via typed hashing, and one type-specialized kernel per
//    sub-aggregate (agg_kernels.h) folds the measure arrays; base rows
//    probe the group map at assembly.
//  - Candidates (equality atoms + correlated conjuncts): the group map
//    additionally records each group's selected detail rows; per base
//    row, the hoisted correlated comparisons filter the candidate list
//    and matching rows fold through single-row kernels.
//  - Scan (no equality atoms): the vectorized selection prefilters the
//    detail relation, then base × selected-detail pairs evaluate the
//    correlated conjuncts under the row engine's exact morsel
//    decomposition and partial-merge order.
//
// Semantics are byte-identical to EvalGmdj for every θ (differential
// tests sweep randomized shapes): the typed kernels replicate
// Accumulator fold/merge math over well-typed tables, and the predicate
// split replicates per-conjunct NULL-as-false evaluation.
//
// Parallelism: within a block, base-row morsels and detail-row morsels
// run under EvalContext::eval_threads; decomposition and merge order
// depend only on morsel_rows, so results are byte-identical at every
// thread count.

#ifndef SKALLA_COLUMNAR_VECTOR_EVAL_H_
#define SKALLA_COLUMNAR_VECTOR_EVAL_H_

#include "common/result.h"
#include "core/eval_context.h"
#include "core/gmdj.h"
#include "storage/data_provider.h"

namespace skalla {

/// Vectorized counterpart of EvalGmdj; handles every condition shape.
/// Sub-aggregate and __rng semantics match the row engine exactly.
/// Fails with InvalidArgument when `context.use_index` is false — this
/// kernel has no nested-loop oracle mode; core::EvaluateGmdj routes
/// such requests to the row engine transparently. Fails with the
/// provider's error when a chunk cannot be pinned (for a resident
/// relation, a column without a concrete type).
Result<Table> EvalGmdjColumnar(const Table& base, const DataProvider& detail,
                               const GmdjOp& op,
                               const EvalContext& context = {});

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_VECTOR_EVAL_H_
