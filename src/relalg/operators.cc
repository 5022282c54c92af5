#include "relalg/operators.h"

#include <algorithm>
#include <unordered_map>

#include "columnar/column.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "storage/chunk.h"
#include "types/row.h"

namespace skalla {

Result<Table> Project(const Table& in,
                      const std::vector<std::string>& columns,
                      bool distinct) {
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, in.schema()->RequireIndex(name));
    indices.push_back(idx);
  }
  Table out(in.schema()->Project(indices));
  out.Reserve(in.num_rows());
  for (size_t r = 0; r < in.num_rows(); ++r) {
    out.AppendUnchecked(ProjectRow(in.row(r), indices));
  }
  if (distinct) return Distinct(out);
  return out;
}

Result<Table> Select(const Table& in, const ExprPtr& predicate) {
  SKALLA_ASSIGN_OR_RETURN(ExprPtr bound,
                          predicate->Bind(nullptr, in.schema().get()));
  Table out(in.schema());
  for (size_t r = 0; r < in.num_rows(); ++r) {
    if (bound->EvalBool(nullptr, &in.row(r))) {
      out.AppendUnchecked(in.row(r));
    }
  }
  return out;
}

Result<Table> UnionAll(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument(
        StrCat("UNION ALL arity mismatch: ", a.num_columns(), " vs ",
               b.num_columns()));
  }
  Table out(a.schema());
  out.Reserve(a.num_rows() + b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) out.AppendUnchecked(a.row(r));
  for (size_t r = 0; r < b.num_rows(); ++r) out.AppendUnchecked(b.row(r));
  return out;
}

Table Distinct(const Table& in) {
  Table out(in.schema());
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  for (size_t r = 0; r < in.num_rows(); ++r) {
    const Row& row = in.row(r);
    uint64_t h = HashRow(row);
    std::vector<size_t>& bucket = seen[h];
    bool duplicate = false;
    for (size_t prev : bucket) {
      if (RowEquals(out.row(prev), row)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      bucket.push_back(out.num_rows());
      out.AppendUnchecked(row);
    }
  }
  return out;
}

Result<Table> SortBy(const Table& in, const std::vector<std::string>& by) {
  std::vector<size_t> indices;
  indices.reserve(by.size());
  for (const std::string& name : by) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, in.schema()->RequireIndex(name));
    indices.push_back(idx);
  }
  Table out = in;
  out.SortRowsBy(indices);
  return out;
}

Result<Table> TopK(const Table& in, const std::string& column, size_t k,
                   bool descending) {
  SKALLA_ASSIGN_OR_RETURN(size_t key, in.schema()->RequireIndex(column));
  std::vector<size_t> order(in.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<size_t> all_columns(in.num_columns());
  for (size_t i = 0; i < all_columns.size(); ++i) all_columns[i] = i;
  auto better = [&](size_t a, size_t b) {
    int c = in.row(a)[key].Compare(in.row(b)[key]);
    if (c != 0) return descending ? c > 0 : c < 0;
    // Deterministic tie-break on the full row.
    return CompareRowKey(in.row(a), in.row(b), all_columns) < 0;
  };
  size_t keep = std::min(k, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<int64_t>(keep), order.end(),
                    better);
  Table out(in.schema());
  out.Reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.AppendUnchecked(in.row(order[i]));
  return out;
}

Result<Table> BaseQuery::Execute(const Catalog& catalog,
                                 PinCounts* pins) const {
  SKALLA_ASSIGN_OR_RETURN(const DataProvider* provider,
                          catalog.GetProvider(table));
  return Execute(*provider, pins);
}

Result<Table> BaseQuery::Execute(const DataProvider& provider,
                                 PinCounts* pins) const {
  const SchemaPtr& schema = provider.schema();
  // A relation with an untyped column has no column pages (every pin
  // fails CheckChunkable); only a resident one can hold such a column,
  // and σ then π over its rows answers the same query.
  if (const Table* resident = provider.ResidentTable();
      resident != nullptr && !CheckChunkable(*schema).ok()) {
    if (where == nullptr) return Project(*resident, columns, distinct);
    SKALLA_ASSIGN_OR_RETURN(Table filtered, Select(*resident, where));
    return Project(filtered, columns, distinct);
  }
  ExprPtr bound;
  if (where != nullptr) {
    SKALLA_ASSIGN_OR_RETURN(bound, where->Bind(nullptr, schema.get()));
  }
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, schema->RequireIndex(name));
    indices.push_back(idx);
  }
  // Pin only the projected and `where` columns; the predicate evaluates
  // over a full-width scratch row holding just those cells.
  std::vector<size_t> pin_cols = indices;
  if (bound != nullptr) {
    std::vector<std::string> where_names;
    bound->CollectColumns(ExprSide::kDetail, &where_names);
    for (const std::string& name : where_names) {
      SKALLA_ASSIGN_OR_RETURN(size_t idx, schema->RequireIndex(name));
      pin_cols.push_back(idx);
    }
  }
  std::sort(pin_cols.begin(), pin_cols.end());
  pin_cols.erase(std::unique(pin_cols.begin(), pin_cols.end()),
                 pin_cols.end());
  Row scratch(schema->num_fields());
  Table out(schema->Project(indices));
  // First-occurrence dedup, identical to Distinct() over the projection
  // but applied as rows stream: a candidate's typed cells are hashed and
  // compared against the kept rows in place, and only kept rows are
  // boxed, so the filtered/projected intermediate never materializes.
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  std::vector<const Column*> keys(indices.size());
  auto kept_equals = [&](size_t r, const Row& kept) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (!keys[k]->EqualsAt(r, kept[k])) return false;
    }
    return true;
  };
  for (size_t c = 0; c < provider.num_chunks(); ++c) {
    SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin, provider.Pin(c, pin_cols));
    if (pins != nullptr) *pins += pin.counts();
    const Chunk& chunk = *pin;
    for (size_t k = 0; k < keys.size(); ++k) {
      keys[k] = &chunk.column(indices[k]);
    }
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      if (bound != nullptr) {
        for (size_t idx : pin_cols) {
          scratch[idx] = chunk.column(idx).GetValue(r);
        }
        if (!bound->EvalBool(nullptr, &scratch)) continue;
      }
      if (distinct) {
        uint64_t h = 0x5ca11aULL;  // HashRow's seed.
        for (const Column* key : keys) h = HashCombine(h, key->HashAt(r));
        std::vector<size_t>& bucket = seen[h];
        if (std::any_of(bucket.begin(), bucket.end(), [&](size_t prev) {
              return kept_equals(r, out.row(prev));
            })) {
          continue;
        }
        bucket.push_back(out.num_rows());
      }
      Row row;
      row.reserve(keys.size());
      for (const Column* key : keys) row.push_back(key->GetValue(r));
      out.AppendUnchecked(std::move(row));
    }
  }
  return out;
}

Result<SchemaPtr> BaseQuery::OutputSchema(const Schema& input) const {
  std::vector<size_t> indices;
  indices.reserve(columns.size());
  for (const std::string& name : columns) {
    SKALLA_ASSIGN_OR_RETURN(size_t idx, input.RequireIndex(name));
    indices.push_back(idx);
  }
  return input.Project(indices);
}

std::string BaseQuery::ToString() const {
  std::string out = StrCat("SELECT ", distinct ? "DISTINCT " : "",
                           Join(columns, ", "), " FROM ", table);
  if (where != nullptr) out += StrCat(" WHERE ", where->ToString());
  return out;
}

}  // namespace skalla
