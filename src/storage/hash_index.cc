#include "storage/hash_index.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "storage/data_provider.h"

namespace skalla {

const Row& HashIndex::repr_key(const Group& g) const {
  return table_ != nullptr ? table_->row(g.repr) : owned_keys_[g.repr];
}

const std::vector<size_t>& HashIndex::repr_columns() const {
  return table_ != nullptr ? key_columns_ : identity_columns_;
}

HashIndex HashIndex::Build(const Table& table,
                           std::vector<size_t> key_columns) {
  HashIndex index;
  index.table_ = &table;
  index.key_columns_ = std::move(key_columns);
  index.buckets_.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const Row& row = table.row(i);
    uint64_t h = HashRowKey(row, index.key_columns_);
    std::vector<Group>& groups = index.buckets_[h];
    Group* target = nullptr;
    for (Group& g : groups) {
      if (RowKeyEquals(row, index.key_columns_, table.row(g.repr),
                       index.key_columns_)) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      groups.push_back(Group{static_cast<uint32_t>(i), {}});
      target = &groups.back();
      ++index.num_keys_;
    }
    target->rows.push_back(static_cast<uint32_t>(i));
  }
  return index;
}

Result<HashIndex> HashIndex::BuildChunked(const DataProvider& provider,
                                          std::vector<size_t> key_columns,
                                          PinCounts* pins) {
  HashIndex index;
  index.key_columns_ = std::move(key_columns);
  index.identity_columns_.resize(index.key_columns_.size());
  for (size_t k = 0; k < index.identity_columns_.size(); ++k) {
    index.identity_columns_[k] = k;
  }
  std::vector<size_t> pin_columns = index.key_columns_;
  std::sort(pin_columns.begin(), pin_columns.end());
  pin_columns.erase(std::unique(pin_columns.begin(), pin_columns.end()),
                    pin_columns.end());
  index.buckets_.reserve(provider.num_rows());
  Row key;
  for (size_t c = 0; c < provider.num_chunks(); ++c) {
    SKALLA_ASSIGN_OR_RETURN(PinnedChunk pin, provider.Pin(c, pin_columns));
    if (pins != nullptr) *pins += pin.counts();
    const size_t base = provider.chunk_row_begin(c);
    for (size_t r = 0; r < pin->num_rows(); ++r) {
      // The key projection, in key-column order: hashing it over the
      // identity columns equals hashing the full row over key_columns_.
      key.clear();
      for (size_t kc : index.key_columns_) {
        key.push_back(pin->column(kc).GetValue(r));
      }
      const size_t pos = base + r;
      uint64_t h = HashRowKey(key, index.identity_columns_);
      std::vector<Group>& groups = index.buckets_[h];
      Group* target = nullptr;
      for (Group& g : groups) {
        if (RowKeyEquals(key, index.identity_columns_,
                         index.owned_keys_[g.repr],
                         index.identity_columns_)) {
          target = &g;
          break;
        }
      }
      if (target == nullptr) {
        index.owned_keys_.push_back(key);
        groups.push_back(
            Group{static_cast<uint32_t>(index.owned_keys_.size() - 1), {}});
        target = &groups.back();
        ++index.num_keys_;
      }
      target->rows.push_back(static_cast<uint32_t>(pos));
    }
  }
  return index;
}

const std::vector<uint32_t>* HashIndex::Lookup(
    const Row& probe, const std::vector<size_t>& probe_columns) const {
  SKALLA_DCHECK(probe_columns.size() == key_columns_.size(),
                "probe arity must match indexed key arity");
  uint64_t h = HashRowKey(probe, probe_columns);
  auto it = buckets_.find(h);
  if (it == buckets_.end()) return nullptr;
  for (const Group& g : it->second) {
    if (RowKeyEquals(probe, probe_columns, repr_key(g), repr_columns())) {
      return &g.rows;
    }
  }
  return nullptr;
}

}  // namespace skalla
