// HashIndex: multi-column hash index over a Table. Used to accelerate
// GMDJ condition evaluation (equality conjuncts between base and detail
// columns) and coordinator synchronization (index on the key attributes K
// of the base-result structure).

#ifndef SKALLA_STORAGE_HASH_INDEX_H_
#define SKALLA_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "storage/table.h"
#include "types/row.h"

namespace skalla {

/// Maps key tuples (projections of indexed rows onto the key columns) to
/// the list of row positions holding that key.
///
/// Collision handling: rows are grouped by 64-bit key hash; within a hash
/// bucket, groups of equal-key rows are kept separately and verified with
/// full key comparison on probe.
class HashIndex {
 public:
  HashIndex() = default;

  /// Builds an index over `table` keyed on `key_columns`.
  /// The table must outlive the index.
  static HashIndex Build(const Table& table, std::vector<size_t> key_columns);

  /// Returns the row positions whose key equals the projection of `probe`
  /// onto `probe_columns`, or nullptr if no such key exists.
  /// `probe_columns` must have the same length as the indexed key.
  const std::vector<uint32_t>* Lookup(
      const Row& probe, const std::vector<size_t>& probe_columns) const;

  /// Number of distinct keys in the index.
  size_t num_keys() const { return num_keys_; }

  /// The key columns this index was built on.
  const std::vector<size_t>& key_columns() const { return key_columns_; }

 private:
  struct Group {
    uint32_t repr = 0;  // Row position in table_ holding the group's key.
    std::vector<uint32_t> rows;
  };

  const Table* table_ = nullptr;
  std::vector<size_t> key_columns_;
  std::unordered_map<uint64_t, std::vector<Group>> buckets_;
  size_t num_keys_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_HASH_INDEX_H_
