#include "storage/buffer_manager.h"

#include <atomic>

#include "common/string_util.h"
#include "obs/obs.h"

namespace skalla {

void PinnedChunk::Release() {
  if (pool_ != nullptr) pool_->Unpin(owner_, chunk_index_, chunk_->pages());
  pool_ = nullptr;
  chunk_ = nullptr;
}

Result<PinCounts> BufferManager::Pin(uint64_t owner, size_t chunk,
                                     const std::vector<size_t>& columns,
                                     const PageLoader& loader,
                                     std::vector<PagePtr>* pages) {
  for (size_t i = 1; i < columns.size(); ++i) {
    if (columns[i] <= columns[i - 1]) {
      return Status::InvalidArgument(
          "pinned columns must be strictly ascending");
    }
  }
  PinCounts counts;
  counts.pages = columns.size();
  std::vector<size_t> waiting;  // columns another pinner is loading
  std::unique_lock<std::mutex> lock(mu_);
  // First pass over every requested column, later passes over the ones
  // that were loading.
  const std::vector<size_t>* pending = &columns;
  std::vector<size_t> retry;
  for (;;) {
    std::vector<size_t> claimed;  // columns this pinner loads
    waiting.clear();
    uint64_t hits = 0;
    for (size_t c : *pending) {
      auto [it, inserted] = entries_.try_emplace(Key{owner, chunk, c});
      Entry& entry = it->second;
      if (inserted) {
        entry.key = it->first;
        entry.loading = true;
        claimed.push_back(c);
      } else if (entry.loading) {
        waiting.push_back(c);
      } else {
        PinEntryLocked(&entry);
        (*pages)[c] = entry.page;
        ++hits;
      }
    }
    if (hits > 0) {
      hits_ += hits;
      SKALLA_COUNTER_ADD("skalla.storage.buffer.hit", hits);
    }

    if (!claimed.empty()) {
      lock.unlock();
      Result<std::vector<PagePtr>> loaded = loader(claimed);
      lock.lock();
      Status status = loaded.status();
      if (status.ok() && loaded->size() != claimed.size()) {
        status = Status::Internal(
            StrCat("page loader returned ", loaded->size(), " pages for ",
                   claimed.size(), " columns"));
      }
      if (!status.ok()) {
        for (size_t c : claimed) entries_.erase(Key{owner, chunk, c});
        for (size_t c : columns) {
          if ((*pages)[c] == nullptr) continue;
          ReleaseEntryLocked(entries_.find(Key{owner, chunk, c}));
          (*pages)[c] = nullptr;
        }
        EvictLocked();
        SetResidentGaugeLocked();
        load_cv_.notify_all();
        return status;
      }
      uint64_t loaded_bytes = 0;
      for (size_t j = 0; j < claimed.size(); ++j) {
        // Loading entries are never erased by others (DropOwner only
        // flags them), so the claim is still there.
        Entry& entry = entries_.find(Key{owner, chunk, claimed[j]})->second;
        entry.page = std::move((*loaded)[j]);
        entry.bytes = entry.page->bytes;
        entry.pins = 1;
        entry.loading = false;
        resident_bytes_ += entry.bytes;
        loaded_bytes += entry.bytes;
        (*pages)[claimed[j]] = entry.page;
      }
      misses_ += claimed.size();
      miss_bytes_ += loaded_bytes;
      counts.misses += claimed.size();
      counts.miss_bytes += loaded_bytes;
      SKALLA_COUNTER_ADD("skalla.storage.buffer.miss", claimed.size());
      SKALLA_COUNTER_ADD("skalla.storage.buffer.miss_bytes", loaded_bytes);
      EvictLocked();
      SetResidentGaugeLocked();
      load_cv_.notify_all();
    }

    if (waiting.empty()) return counts;
    // Every page this pinner claimed is published by now, so waiting
    // here cannot block another pinner that waits on one of ours.
    load_cv_.wait(lock, [&] {
      for (size_t c : waiting) {
        auto it = entries_.find(Key{owner, chunk, c});
        if (it == entries_.end() || !it->second.loading) return true;
      }
      return false;
    });
    retry.swap(waiting);
    pending = &retry;
  }
}

void BufferManager::Unpin(uint64_t owner, size_t chunk,
                          const std::vector<PagePtr>& pages) {
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseLocked(owner, chunk, pages);
}

void BufferManager::ReleaseLocked(uint64_t owner, size_t chunk,
                                  const std::vector<PagePtr>& pages) {
  for (size_t c = 0; c < pages.size(); ++c) {
    if (pages[c] == nullptr) continue;
    auto it = entries_.find(Key{owner, chunk, c});
    if (it != entries_.end()) ReleaseEntryLocked(it);
  }
  EvictLocked();
  SetResidentGaugeLocked();
}

void BufferManager::PinEntryLocked(Entry* entry) {
  if (entry->pins == 0) UnlinkLruLocked(entry);
  ++entry->pins;
}

void BufferManager::ReleaseEntryLocked(std::map<Key, Entry>::iterator it) {
  Entry& entry = it->second;
  if (entry.pins > 0) --entry.pins;
  if (entry.pins != 0) return;
  if (entry.dropped) {
    resident_bytes_ -= entry.bytes;
    entries_.erase(it);
    return;
  }
  LinkLruLocked(&entry);
}

void BufferManager::LinkLruLocked(Entry* entry) {
  entry->lru_prev = lru_tail_;
  entry->lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = entry;
  } else {
    lru_head_ = entry;
  }
  lru_tail_ = entry;
}

void BufferManager::UnlinkLruLocked(Entry* entry) {
  if (entry->lru_prev != nullptr) {
    entry->lru_prev->lru_next = entry->lru_next;
  } else {
    lru_head_ = entry->lru_next;
  }
  if (entry->lru_next != nullptr) {
    entry->lru_next->lru_prev = entry->lru_prev;
  } else {
    lru_tail_ = entry->lru_prev;
  }
  entry->lru_prev = nullptr;
  entry->lru_next = nullptr;
}

void BufferManager::DropOwner(uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.lower_bound(Key{owner, 0, 0});
  while (it != entries_.end() && std::get<0>(it->first) == owner) {
    Entry& entry = it->second;
    if (entry.pins == 0 && !entry.loading) {
      UnlinkLruLocked(&entry);
      resident_bytes_ -= entry.bytes;
      it = entries_.erase(it);
    } else {
      entry.dropped = true;
      ++it;
    }
  }
  SetResidentGaugeLocked();
}

void BufferManager::EvictLocked() {
  if (budget_bytes_ == 0) return;
  while (resident_bytes_ > budget_bytes_ && lru_head_ != nullptr) {
    Entry* victim = lru_head_;  // everything else pinned: overcommit
    UnlinkLruLocked(victim);
    resident_bytes_ -= victim->bytes;
    ++evictions_;
    SKALLA_COUNTER_ADD("skalla.storage.buffer.evict", 1);
    entries_.erase(victim->key);
  }
}

void BufferManager::SetResidentGaugeLocked() {
  // Most unpins change nothing; skip the registry update then.
  if (resident_bytes_ == gauge_bytes_) return;
  gauge_bytes_ = resident_bytes_;
  SKALLA_GAUGE_SET("skalla.storage.buffer.resident_bytes",
                   static_cast<int64_t>(resident_bytes_));
}

BufferStats BufferManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.miss_bytes = miss_bytes_;
  s.evictions = evictions_;
  s.resident_bytes = resident_bytes_;
  for (const auto& [key, entry] : entries_) {
    if (entry.loading) continue;
    ++s.resident_pages;
    if (entry.pins > 0) ++s.pinned_pages;
  }
  return s;
}

uint64_t BufferManager::NextOwnerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace skalla
