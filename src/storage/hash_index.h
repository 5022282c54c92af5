// HashIndex: multi-column hash index over a Table. Used to accelerate
// GMDJ condition evaluation (equality conjuncts between base and detail
// columns) and coordinator synchronization (index on the key attributes K
// of the base-result structure).

#ifndef SKALLA_STORAGE_HASH_INDEX_H_
#define SKALLA_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/buffer_manager.h"
#include "storage/table.h"
#include "types/row.h"

namespace skalla {

class DataProvider;

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

  /// Builds an index over a chunk-paged relation by streaming its chunks
  /// in order, pinning only the key columns. The index owns projected
  /// copies of the group keys, so it stays valid after the pages are
  /// evicted; only the provider's row numbering (not its residency) must
  /// stay stable. The pins' page counts are added to `pins` when given.
  static Result<HashIndex> BuildChunked(const DataProvider& provider,
                                        std::vector<size_t> key_columns,
                                        PinCounts* pins = nullptr);

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
    // Representative key: a row position in table_ when memory-backed, an
    // index into owned_keys_ when built chunked.
    uint32_t repr = 0;
    std::vector<uint32_t> rows;
  };

  const Row& repr_key(const Group& g) const;
  const std::vector<size_t>& repr_columns() const;

  const Table* table_ = nullptr;
  std::vector<size_t> key_columns_;
  // Chunked mode: projected key rows (arity == key_columns_.size()),
  // compared through identity columns {0..k-1}.
  std::vector<Row> owned_keys_;
  std::vector<size_t> identity_columns_;
  std::unordered_map<uint64_t, std::vector<Group>> buckets_;
  size_t num_keys_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_HASH_INDEX_H_
