#include "core/local_eval.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "agg/accumulator.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/morsels.h"
#include "expr/analysis.h"
#include "storage/hash_index.h"

namespace skalla {

namespace {

// Per-block evaluation state: decomposed parts, resolved input columns,
// and the accumulator matrix (|B| rows x |parts|).
struct BlockState {
  std::vector<SubAggregate> parts;
  // Ranges into `parts` per AggSpec, for finalization.
  std::vector<std::pair<size_t, size_t>> agg_part_ranges;  // (start, len)
  std::vector<int> part_input_idx;  // Detail column per part; -1 for COUNT(*).
  std::vector<Accumulator> acc;     // base_rows * parts.size().
};

Status InitBlockState(const GmdjBlock& block, const Schema& detail,
                      size_t base_rows, BlockState* state) {
  for (const AggSpec& spec : block.aggs) {
    std::vector<SubAggregate> parts = Decompose(spec);
    state->agg_part_ranges.emplace_back(state->parts.size(), parts.size());
    for (SubAggregate& part : parts) {
      int input_idx = -1;
      if (!part.input.empty()) {
        SKALLA_ASSIGN_OR_RETURN(size_t idx, detail.RequireIndex(part.input));
        input_idx = static_cast<int>(idx);
      }
      state->part_input_idx.push_back(input_idx);
      state->parts.push_back(std::move(part));
    }
  }
  state->acc.reserve(base_rows * state->parts.size());
  for (size_t b = 0; b < base_rows; ++b) {
    for (const SubAggregate& part : state->parts) {
      state->acc.emplace_back(part.kind);
    }
  }
  return Status::OK();
}

// Folds detail row `detail_row` into one base row's accumulator slice.
inline void UpdateRow(const BlockState& meta, Accumulator* row_acc,
                      const Row& detail_row) {
  const size_t n = meta.parts.size();
  static const Value kDummy;
  for (size_t p = 0; p < n; ++p) {
    int idx = meta.part_input_idx[p];
    row_acc[p].Update(idx < 0 ? kDummy : detail_row[static_cast<size_t>(idx)]);
  }
}

// The per-block condition, compiled once before evaluation.
struct BlockPlan {
  bool indexed = false;
  std::vector<size_t> base_cols;    // indexed: probe columns, atom order
  std::vector<size_t> detail_cols;  // indexed: key columns, atom order
  ExprPtr residual;                 // indexed: bound residual (may be null)
  ExprPtr theta;                    // nested loop: bound full condition
  const HashIndex* index = nullptr;
};

using IndexKey = std::pair<std::vector<size_t>, std::vector<size_t>>;

// Indexed path: base rows split into ranges of morsel_rows. Each range
// owns its slice of the accumulator matrix (and of `matched`) outright,
// and the per-base-row candidate fold order is exactly the sequential
// one, so this is bit-identical to single-threaded evaluation.
void EvalIndexedBlock(const Table& base, const Table& detail,
                      const BlockPlan& plan, const EvalContext& context,
                      ThreadPool* pool, BlockState* state, uint8_t* matched) {
  const size_t num_base = base.num_rows();
  const size_t n = state->parts.size();
  const size_t morsel_rows = context.morsel_rows;
  CancellationToken* cancel = context.cancellation;
  EvalProfile* profile = context.profile;
  RunMorsels(pool, MorselCount(num_base, morsel_rows), context,
             [&](size_t m) {
    if (cancel != nullptr && !cancel->Check().ok()) return;
    const size_t lo = m * morsel_rows;
    const size_t hi = std::min(lo + morsel_rows, num_base);
    uint64_t hits = 0, scanned = 0, matched_pairs = 0;
    for (size_t b = lo; b < hi; ++b) {
      const Row& base_row = base.row(b);
      const std::vector<uint32_t>* candidates =
          plan.index->Lookup(base_row, plan.base_cols);
      if (candidates == nullptr) continue;
      hits += candidates->size();
      scanned += candidates->size();
      Accumulator* row_acc = state->acc.data() + b * n;
      for (uint32_t r : *candidates) {
        const Row& detail_row = detail.row(r);
        if (plan.residual != nullptr &&
            !plan.residual->EvalBool(&base_row, &detail_row)) {
          continue;
        }
        if (matched != nullptr) matched[b] = 1;
        ++matched_pairs;
        UpdateRow(*state, row_acc, detail_row);
      }
    }
    if (profile != nullptr) {
      profile->index_hits.fetch_add(hits, std::memory_order_relaxed);
      profile->rows_scanned.fetch_add(scanned, std::memory_order_relaxed);
      profile->rows_matched.fetch_add(matched_pairs,
                                      std::memory_order_relaxed);
    }
  });
}

// One morsel's private accumulator partials + matched bitmap
// (nested-loop path).
struct MorselPartial {
  std::vector<Accumulator> acc;  // base_rows * parts.size()
  std::vector<uint8_t> matched;  // base_rows, or empty
};

MorselPartial MakePartial(const BlockState& meta, size_t num_base,
                          bool want_matched) {
  MorselPartial partial;
  partial.acc.reserve(num_base * meta.parts.size());
  for (size_t b = 0; b < num_base; ++b) {
    for (const SubAggregate& part : meta.parts) {
      partial.acc.emplace_back(part.kind);
    }
  }
  if (want_matched) partial.matched.assign(num_base, 0);
  return partial;
}

// Folds detail rows [lo, hi) against every base row into `partial`,
// counting the (base, detail) pairs that matched.
void FoldMorsel(const Table& base, const Table& detail, const BlockPlan& plan,
                const BlockState& meta, size_t lo, size_t hi,
                MorselPartial* partial, uint64_t* matched_pairs) {
  const size_t n = meta.parts.size();
  for (size_t b = 0; b < base.num_rows(); ++b) {
    const Row& base_row = base.row(b);
    Accumulator* row_acc = partial->acc.data() + b * n;
    for (size_t r = lo; r < hi; ++r) {
      const Row& detail_row = detail.row(r);
      if (!plan.theta->EvalBool(&base_row, &detail_row)) continue;
      if (!partial->matched.empty()) partial->matched[b] = 1;
      if (matched_pairs != nullptr) ++*matched_pairs;
      UpdateRow(meta, row_acc, detail_row);
    }
  }
}

void MergePartial(const MorselPartial& partial, BlockState* state,
                  uint8_t* matched) {
  for (size_t i = 0; i < state->acc.size(); ++i) {
    state->acc[i].MergeFrom(partial.acc[i]);
  }
  if (matched != nullptr) {
    for (size_t b = 0; b < partial.matched.size(); ++b) {
      matched[b] |= partial.matched[b];
    }
  }
}

// Nested-loop path: the detail relation splits into morsels of
// morsel_rows; every morsel folds into a private MorselPartial, and
// partials merge into the block state in morsel index order — the same
// sub-aggregate synchronization the coordinator applies to per-site
// partials (Theorem 1). Decomposition and merge order depend only on
// morsel_rows, never on eval_threads, so any thread count produces the
// same bytes. (With a single morsel, merging into the zero-initialized
// matrix is an exact identity, so small inputs also match the historical
// direct fold bit for bit.)
void EvalNestedLoopBlock(const Table& base, const Table& detail,
                         const BlockPlan& plan, const EvalContext& context,
                         ThreadPool* pool, BlockState* state,
                         uint8_t* matched) {
  const size_t num_base = base.num_rows();
  const size_t num_detail = detail.num_rows();
  const size_t morsel_rows = context.morsel_rows;
  CancellationToken* cancel = context.cancellation;
  EvalProfile* profile = context.profile;
  const size_t morsels = MorselCount(num_detail, morsel_rows);
  const bool want_matched = matched != nullptr;
  auto record = [&](size_t lo, size_t hi, uint64_t matched_pairs) {
    if (profile == nullptr) return;
    profile->rows_scanned.fetch_add(
        static_cast<uint64_t>(num_base) * (hi - lo),
        std::memory_order_relaxed);
    profile->rows_matched.fetch_add(matched_pairs,
                                    std::memory_order_relaxed);
  };
  if (pool == nullptr || morsels <= 1) {
    // Stream morsels in order through a scratch partial, merging each as
    // it completes: the merge sequence is identical to the parallel
    // path's, just without holding every partial live at once.
    RunMorsels(nullptr, morsels, context, [&](size_t m) {
      if (cancel != nullptr && !cancel->Check().ok()) return;
      MorselPartial partial = MakePartial(*state, num_base, want_matched);
      const size_t lo = m * morsel_rows;
      const size_t hi = std::min((m + 1) * morsel_rows, num_detail);
      uint64_t matched_pairs = 0;
      FoldMorsel(base, detail, plan, *state, lo, hi, &partial,
                 &matched_pairs);
      record(lo, hi, matched_pairs);
      MergePartial(partial, state, matched);
    });
    return;
  }
  std::vector<MorselPartial> partials(morsels);
  RunMorsels(pool, morsels, context, [&](size_t m) {
    if (cancel != nullptr && !cancel->Check().ok()) return;
    partials[m] = MakePartial(*state, num_base, want_matched);
    const size_t lo = m * morsel_rows;
    const size_t hi = std::min((m + 1) * morsel_rows, num_detail);
    uint64_t matched_pairs = 0;
    FoldMorsel(base, detail, plan, *state, lo, hi, &partials[m],
               &matched_pairs);
    record(lo, hi, matched_pairs);
  });
  for (const MorselPartial& partial : partials) {
    // A cancelled morsel leaves its partial empty; the caller surfaces
    // the cancellation status, so skipping it here is safe.
    if (partial.acc.size() != state->acc.size()) continue;
    MergePartial(partial, state, matched);
  }
}

}  // namespace

Result<Table> EvalGmdj(const Table& base, const Table& detail,
                       const GmdjOp& op, const EvalContext& context) {
  SKALLA_RETURN_NOT_OK(ValidateEvalContext(context));
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }
  const Schema& base_schema = *base.schema();
  const Schema& detail_schema = *detail.schema();
  const size_t num_base = base.num_rows();

  SKALLA_ASSIGN_OR_RETURN(
      SchemaPtr out_schema,
      context.sub_aggregates
          ? op.PartialSchema(base_schema, detail_schema, context.compute_rng)
          : op.OutputSchema(base_schema, detail_schema));
  if (!context.sub_aggregates && context.compute_rng) {
    SKALLA_ASSIGN_OR_RETURN(
        out_schema,
        out_schema->AddField(Field{kRngCountColumn, ValueType::kInt64}));
  }

  // Compile each block once: its accumulators, then either the indexed
  // plan (probe/key columns, bound residual) or the bound full condition.
  std::vector<BlockState> states(op.blocks.size());
  std::vector<BlockPlan> plans(op.blocks.size());
  std::vector<IndexKey> index_keys;  // distinct pairings, first-use order
  for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
    const GmdjBlock& block = op.blocks[bi];
    BlockPlan& plan = plans[bi];
    SKALLA_RETURN_NOT_OK(
        InitBlockState(block, detail_schema, num_base, &states[bi]));
    if (block.theta == nullptr) {
      return Status::InvalidArgument("GMDJ block has no condition");
    }

    ConditionAnalysis analysis = AnalyzeCondition(block.theta);
    plan.indexed = context.use_index && !analysis.equi_atoms.empty();
    if (plan.indexed) {
      for (const EquiAtom& atom : analysis.equi_atoms) {
        SKALLA_ASSIGN_OR_RETURN(size_t b_idx,
                                base_schema.RequireIndex(atom.base_col));
        SKALLA_ASSIGN_OR_RETURN(size_t d_idx,
                                detail_schema.RequireIndex(atom.detail_col));
        plan.base_cols.push_back(b_idx);
        plan.detail_cols.push_back(d_idx);
      }
      if (analysis.residual != nullptr) {
        SKALLA_ASSIGN_OR_RETURN(
            plan.residual,
            analysis.residual->Bind(&base_schema, &detail_schema));
      }
      IndexKey key{plan.base_cols, plan.detail_cols};
      if (std::find(index_keys.begin(), index_keys.end(), key) ==
          index_keys.end()) {
        index_keys.push_back(std::move(key));
      }
    } else {
      SKALLA_ASSIGN_OR_RETURN(
          plan.theta, block.theta->Bind(&base_schema, &detail_schema));
    }
  }

  // matched[b] = 1 iff RNG(b, R, θ_1 ∨ … ∨ θ_m) non-empty.
  std::vector<uint8_t> matched;
  if (context.compute_rng) matched.assign(num_base, 0);
  uint8_t* matched_ptr = context.compute_rng ? matched.data() : nullptr;

  const size_t threads = ResolveEvalThreads(context.eval_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  // Blocks of a (possibly coalesced) operator frequently share their
  // equality atoms; the detail-side hash index is built once per distinct
  // key pairing — concurrently when a pool is available. This is the
  // source of the site-computation savings the paper attributes to
  // coalescing (Fig. 3, low cardinality). The cache key is the full
  // (base_cols, detail_cols) pairing, not detail_cols alone: two blocks
  // indexing the same detail columns but pairing them with differently
  // ordered base columns must not share probe contracts.
  std::map<IndexKey, HashIndex> index_cache;
  std::vector<HashIndex*> index_slots;
  index_slots.reserve(index_keys.size());
  for (const IndexKey& key : index_keys) {
    index_slots.push_back(&index_cache[key]);
  }
  auto build_index = [&](size_t i) {
    *index_slots[i] = HashIndex::Build(detail, index_keys[i].second);
  };
  if (pool != nullptr && index_keys.size() > 1) {
    pool->ParallelFor(index_keys.size(), build_index);
  } else {
    for (size_t i = 0; i < index_keys.size(); ++i) build_index(i);
  }

  for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
    BlockPlan& plan = plans[bi];
    if (plan.indexed) {
      plan.index = &index_cache.at(IndexKey{plan.base_cols, plan.detail_cols});
      EvalIndexedBlock(base, detail, plan, context, pool.get(), &states[bi],
                       matched_ptr);
    } else {
      EvalNestedLoopBlock(base, detail, plan, context, pool.get(),
                          &states[bi], matched_ptr);
    }
  }

  // A fired deadline (or explicit cancel) may have skipped morsels above;
  // the partially-folded accumulators must never surface as a result.
  if (context.cancellation != nullptr) {
    SKALLA_RETURN_NOT_OK(context.cancellation->Check());
  }

  Table out(out_schema);
  out.Reserve(num_base);
  for (size_t b = 0; b < num_base; ++b) {
    Row row = base.row(b);
    row.reserve(out_schema->num_fields());
    for (size_t bi = 0; bi < op.blocks.size(); ++bi) {
      const BlockState& state = states[bi];
      const size_t n = state.parts.size();
      const Accumulator* row_acc = state.acc.data() + b * n;
      if (context.sub_aggregates) {
        for (size_t p = 0; p < n; ++p) row.push_back(row_acc[p].Final());
      } else {
        for (size_t ai = 0; ai < op.blocks[bi].aggs.size(); ++ai) {
          auto [start, len] = state.agg_part_ranges[ai];
          std::vector<Value> parts;
          parts.reserve(len);
          for (size_t p = 0; p < len; ++p) {
            parts.push_back(row_acc[start + p].Final());
          }
          row.push_back(FinalizeAggregate(op.blocks[bi].aggs[ai], parts));
        }
      }
    }
    if (context.compute_rng) {
      row.push_back(Value(int64_t{matched[b] ? 1 : 0}));
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Result<Table> EvalGmdj(const Table& base, const DataProvider& detail,
                       const GmdjOp& op, const EvalContext& context) {
  if (const Table* resident = detail.ResidentTable(); resident != nullptr) {
    return EvalGmdj(base, *resident, op, context);
  }
  // The oracle over a paged relation materializes it once, charging the
  // pages it pins to the profile. No production route comes here.
  PinCounts pins;
  SKALLA_ASSIGN_OR_RETURN(Table materialized,
                          MaterializeProvider(detail, &pins));
  RecordPins(pins, context);
  return EvalGmdj(base, materialized, op, context);
}

Result<Table> EvalCentralized(const GmdjExpr& expr, const Catalog& catalog,
                              const EvalContext& context) {
  SKALLA_ASSIGN_OR_RETURN(Table current, expr.base.Execute(catalog));
  // A reference evaluation always finalizes: partial output or the __rng
  // indicator only make sense site-side.
  EvalContext local = context;
  local.sub_aggregates = false;
  local.compute_rng = false;
  for (const GmdjOp& op : expr.ops) {
    SKALLA_ASSIGN_OR_RETURN(const DataProvider* detail,
                            catalog.GetProvider(op.detail_table));
    SKALLA_ASSIGN_OR_RETURN(current, EvalGmdj(current, *detail, op, local));
  }
  return current;
}

}  // namespace skalla
