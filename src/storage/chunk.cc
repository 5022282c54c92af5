#include "storage/chunk.h"

#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace skalla {

namespace {

ChunkColumnStats ComputeColumnStats(const Column& col) {
  ChunkColumnStats s;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsNull(r)) {
      ++s.null_count;
      continue;
    }
    double v;
    if (col.type() == ValueType::kInt64) {
      v = static_cast<double>(col.Int64At(r));
    } else if (col.type() == ValueType::kFloat64) {
      v = col.Float64At(r);
    } else {
      continue;
    }
    if (!s.has_range) {
      s.has_range = true;
      s.min = s.max = v;
    } else {
      if (v < s.min) s.min = v;
      if (v > s.max) s.max = v;
    }
  }
  return s;
}

}  // namespace

uint64_t EstimateColumnBytes(const Column& col) {
  const size_t n = col.size();
  uint64_t bytes = n;  // validity vector
  switch (col.type()) {
    case ValueType::kInt64:
    case ValueType::kFloat64:
      bytes += 8ull * n;
      break;
    case ValueType::kString:
      bytes += 32ull * n;  // std::string container overhead
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i)) bytes += col.StringAt(i).size();
      }
      break;
    case ValueType::kNull:
      break;
  }
  return bytes;
}

Result<ChunkPtr> Chunk::Build(const Table& source, size_t row_begin,
                              size_t row_count) {
  if (row_begin + row_count > source.num_rows()) {
    return Status::InvalidArgument(
        StrCat("chunk range [", row_begin, ", ", row_begin + row_count,
               ") exceeds table of ", source.num_rows(), " rows"));
  }
  const Schema& schema = *source.schema();
  std::vector<PagePtr> pages;
  std::vector<ChunkColumnStats> stats;
  pages.reserve(schema.num_fields());
  stats.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const ValueType type = schema.field(c).type;
    if (type != ValueType::kInt64 && type != ValueType::kFloat64 &&
        type != ValueType::kString) {
      return Status::InvalidArgument(
          StrCat("column '", schema.field(c).name,
                 "' has no concrete declared type; cannot chunk"));
    }
    Column col(type);
    col.Reserve(row_count);
    for (size_t r = 0; r < row_count; ++r) {
      SKALLA_RETURN_NOT_OK(col.Append(source.at(row_begin + r, c)));
    }
    stats.push_back(ComputeColumnStats(col));
    pages.push_back(std::make_shared<const ColumnPage>(std::move(col)));
  }
  return FromPages(
      source.schema(), row_begin, row_count, std::move(pages),
      std::make_shared<const std::vector<ChunkColumnStats>>(std::move(stats)));
}

ChunkPtr Chunk::FromPages(SchemaPtr schema, size_t row_begin,
                          size_t num_rows, std::vector<PagePtr> pages,
                          ColumnStatsPtr stats) {
  auto chunk = std::make_shared<Chunk>(Private{});
  chunk->schema_ = std::move(schema);
  chunk->row_begin_ = row_begin;
  chunk->num_rows_ = num_rows;
  chunk->pages_ = std::move(pages);
  chunk->stats_ = std::move(stats);
  for (const PagePtr& page : chunk->pages_) {
    if (page != nullptr) chunk->byte_size_ += page->bytes;
  }
  return chunk;
}

const Row& Chunk::row(size_t i) const {
  std::call_once(rows_once_, [this] {
    rows_.reserve(num_rows_);
    for (size_t r = 0; r < num_rows_; ++r) {
      Row row;
      row.reserve(pages_.size());
      for (const PagePtr& page : pages_) {
        row.push_back(page->column.GetValue(r));
      }
      rows_.push_back(std::move(row));
    }
  });
  return rows_[i];
}

}  // namespace skalla
