// BufferManager: a byte-budget LRU over resident column pages, shared by
// every chunk-file-backed relation of a process. A page is one column of
// one chunk (storage/chunk.h ColumnPage). Consumers Pin the set of
// columns of a chunk they read — the pages that miss load together
// through one caller-supplied loader call — scan them, and Unpin them
// (providers wrap the pair in a PinnedChunk handle). Eviction considers
// only unpinned, fully loaded pages; the pinned set may therefore exceed
// the budget transiently — the manager never fails a pin for lack of
// budget, it just evicts everything evictable (documented spill
// behavior, docs/STORAGE.md).
//
// Eviction order: least recently *released* first. An unpinned page
// sits on an intrusive LRU list, appended when its last pin releases and
// unlinked when it is pinned again, so a victim is found in O(1).
//
// Accounting unit: ColumnPage::bytes (EstimateColumnBytes per page).
// Budget 0 means unlimited (nothing is ever evicted).
//
// Metrics (obs registry, no-ops when SKALLA_TRACING is off), all in
// column pages:
//   skalla.storage.buffer.hit / .miss / .evict    counters (pages)
//   skalla.storage.buffer.miss_bytes              counter (bytes loaded)
//   skalla.storage.buffer.resident_bytes          gauge
// The same counts are always available through stats(), independent of
// the build gate, for tests and tools.
//
// Thread safety: fully thread-safe. Concurrent pins of the same missing
// page load it once — the first pinner runs the loader (outside the
// lock), the rest wait on it. A pinner publishes the pages it loaded
// before it waits for pages another pinner is loading, so overlapping
// column sets never deadlock.

#ifndef SKALLA_STORAGE_BUFFER_MANAGER_H_
#define SKALLA_STORAGE_BUFFER_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/chunk.h"

namespace skalla {

/// What one pin did: the pages it covers, the pages it had to load, and
/// the bytes those loaded pages account for.
struct PinCounts {
  uint64_t pages = 0;
  uint64_t misses = 0;
  uint64_t miss_bytes = 0;

  PinCounts& operator+=(const PinCounts& other) {
    pages += other.pages;
    misses += other.misses;
    miss_bytes += other.miss_bytes;
    return *this;
  }
};

class BufferManager;

/// RAII pin handle over (some columns of) one chunk: while alive, the
/// pages its view holds cannot be evicted. Move-only; destruction (or
/// Release) unpins them. The handle shares ownership of its pool, so it
/// is safe to destroy after every other reference to the pool is gone.
/// A handle without a pool (memory-backed chunks) unpins nothing.
class PinnedChunk {
 public:
  PinnedChunk() = default;
  PinnedChunk(ChunkPtr chunk, std::shared_ptr<BufferManager> pool,
              uint64_t owner, size_t chunk_index, PinCounts counts)
      : chunk_(std::move(chunk)),
        pool_(std::move(pool)),
        owner_(owner),
        chunk_index_(chunk_index),
        counts_(counts) {}
  ~PinnedChunk() { Release(); }

  PinnedChunk(PinnedChunk&& other) noexcept { *this = std::move(other); }
  PinnedChunk& operator=(PinnedChunk&& other) noexcept {
    if (this != &other) {
      Release();
      chunk_ = std::move(other.chunk_);
      pool_ = std::move(other.pool_);
      owner_ = other.owner_;
      chunk_index_ = other.chunk_index_;
      counts_ = other.counts_;
      other.chunk_ = nullptr;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PinnedChunk(const PinnedChunk&) = delete;
  PinnedChunk& operator=(const PinnedChunk&) = delete;

  const Chunk& operator*() const { return *chunk_; }
  const Chunk* operator->() const { return chunk_.get(); }
  const ChunkPtr& chunk() const { return chunk_; }
  explicit operator bool() const { return chunk_ != nullptr; }
  const PinCounts& counts() const { return counts_; }

  void Release();

 private:
  ChunkPtr chunk_;
  std::shared_ptr<BufferManager> pool_;
  uint64_t owner_ = 0;
  size_t chunk_index_ = 0;
  PinCounts counts_;
};

/// Point-in-time counters, in column pages; tracing-gate independent.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t miss_bytes = 0;
  uint64_t evictions = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_pages = 0;
  uint64_t pinned_pages = 0;
};

class BufferManager {
 public:
  /// `budget_bytes` caps resident (unpinned + pinned) page bytes;
  /// 0 = unlimited.
  explicit BufferManager(uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Loads the pages of the given columns of one chunk, one page per
  /// requested column, in request order.
  using PageLoader = std::function<Result<std::vector<PagePtr>>(
      const std::vector<size_t>& columns)>;

  /// Pins the pages (owner, chunk, c) for every c in `columns` (strictly
  /// ascending), loading the missing ones through one `loader` call,
  /// and stores page c in (*pages)[c]; `pages` must hold a null slot for
  /// every requested column. The loader runs outside the manager lock;
  /// concurrent pins of the same page share one load. `owner` is a
  /// provider id from NextOwnerId. Every successful Pin must be matched
  /// by an Unpin of the same pages; a failed one pins nothing.
  Result<PinCounts> Pin(uint64_t owner, size_t chunk,
                        const std::vector<size_t>& columns,
                        const PageLoader& loader,
                        std::vector<PagePtr>* pages);

  /// Releases one pin of page (owner, chunk, c) for every non-null
  /// pages[c].
  void Unpin(uint64_t owner, size_t chunk,
             const std::vector<PagePtr>& pages);

  /// Marks every page of `owner` stale: unpinned ones are dropped now,
  /// pinned or loading ones as soon as their last pin releases. Called
  /// when a provider is destroyed or its backing file is reloaded.
  void DropOwner(uint64_t owner);

  uint64_t budget_bytes() const { return budget_bytes_; }
  BufferStats stats() const;

  /// Process-unique owner ids for providers sharing a manager.
  static uint64_t NextOwnerId();

 private:
  using Key = std::tuple<uint64_t, size_t, size_t>;  // (owner, chunk, col)

  struct Entry {
    Key key;
    PagePtr page;
    uint64_t bytes = 0;
    size_t pins = 0;
    bool loading = false;  // a pinner is running the loader
    bool dropped = false;  // owner gone: erase at last unpin
    // Intrusive LRU links; an entry is linked iff it is evictable
    // (loaded, unpinned, owner alive).
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
  };

  // These require the lock.
  void ReleaseLocked(uint64_t owner, size_t chunk,
                     const std::vector<PagePtr>& pages);
  void PinEntryLocked(Entry* entry);
  void ReleaseEntryLocked(std::map<Key, Entry>::iterator it);
  void LinkLruLocked(Entry* entry);
  void UnlinkLruLocked(Entry* entry);
  // Evicts least recently released pages until within budget.
  void EvictLocked();
  void SetResidentGaugeLocked();

  const uint64_t budget_bytes_;
  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::map<Key, Entry> entries_;  // node-based: Entry addresses are stable
  Entry* lru_head_ = nullptr;     // next victim
  Entry* lru_tail_ = nullptr;     // most recently released
  uint64_t resident_bytes_ = 0;
  uint64_t gauge_bytes_ = 0;  // resident_bytes_ as last published
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t miss_bytes_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_BUFFER_MANAGER_H_
