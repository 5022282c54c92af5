// BufferManager: byte-budget LRU accounting over column pages
// (hit/miss/evict), pins blocking eviction and overcommit, the eviction
// order with pinned, loading and dropped pages present, owner
// invalidation, one loader call per pin, and the single-flight load
// guarantee under concurrency — including overlapping column sets.

#include "storage/buffer_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "columnar/column.h"
#include "common/macros.h"
#include "storage/chunk.h"

namespace skalla {
namespace {

constexpr size_t kPageRows = 64;
// EstimateColumnBytes of an INT64 page: one validity byte + 8 per cell.
constexpr uint64_t kPageBytes = kPageRows * 9;

PagePtr IntPage(int64_t salt) {
  Column col(ValueType::kInt64);
  for (size_t i = 0; i < kPageRows; ++i) {
    col.AppendInt64(salt * 1000 + static_cast<int64_t>(i)).Check();
  }
  return std::make_shared<const ColumnPage>(std::move(col));
}

// A loader that counts its calls and the pages each column loaded.
class CountingLoader {
 public:
  BufferManager::PageLoader fn() {
    return [this](const std::vector<size_t>& columns)
               -> Result<std::vector<PagePtr>> {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_;
      last_ = columns;
      std::vector<PagePtr> pages;
      for (size_t c : columns) {
        ++loads_[c];
        pages.push_back(IntPage(static_cast<int64_t>(c)));
      }
      return pages;
    };
  }
  int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  int loads(size_t column) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = loads_.find(column);
    return it == loads_.end() ? 0 : it->second;
  }
  std::vector<size_t> last() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_;
  }

 private:
  mutable std::mutex mu_;
  int calls_ = 0;
  std::map<size_t, int> loads_;
  std::vector<size_t> last_;
};

// One pin of chunk 0 through the pool's own API: the page slots (one
// per column, null where not pinned) and what the pin did.
struct Pinned {
  std::vector<PagePtr> pages;
  PinCounts counts;
};

constexpr size_t kWidth = 8;  // columns per chunk in these tests

Result<Pinned> PinCols(BufferManager& bm, uint64_t owner,
                       const std::vector<size_t>& columns,
                       const BufferManager::PageLoader& loader) {
  Pinned pinned;
  pinned.pages.resize(kWidth);
  SKALLA_ASSIGN_OR_RETURN(pinned.counts,
                          bm.Pin(owner, 0, columns, loader, &pinned.pages));
  return pinned;
}

void Release(BufferManager& bm, uint64_t owner, const Pinned& pinned) {
  bm.Unpin(owner, 0, pinned.pages);
}

// Pins `columns` of chunk 0 and releases them at once.
void Touch(BufferManager& bm, uint64_t owner, std::vector<size_t> columns,
           CountingLoader& loader) {
  Release(bm, owner, PinCols(bm, owner, columns, loader.fn()).ValueOrDie());
}

TEST(BufferManagerTest, MissLoadsOnceThenHits) {
  auto bm = std::make_shared<BufferManager>(0);  // unlimited
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader loader;

  Touch(*bm, owner, {0}, loader);
  Touch(*bm, owner, {0}, loader);

  EXPECT_EQ(loader.loads(0), 1);
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.miss_bytes, kPageBytes);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_pages, 1u);
  EXPECT_EQ(stats.pinned_pages, 0u);
  EXPECT_EQ(stats.resident_bytes, kPageBytes);
}

TEST(BufferManagerTest, MissingPagesLoadInOneLoaderCall) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader loader;
  Touch(*bm, owner, {1}, loader);

  Pinned pinned = PinCols(*bm, owner, {0, 1, 3}, loader.fn()).ValueOrDie();
  EXPECT_EQ(loader.calls(), 2);
  EXPECT_EQ(loader.last(), (std::vector<size_t>{0, 3}));
  ASSERT_EQ(pinned.counts.pages, 3u);
  EXPECT_EQ(pinned.pages[0]->column.Int64At(0), 0);
  EXPECT_EQ(pinned.pages[1]->column.Int64At(0), 1000);
  EXPECT_EQ(pinned.pages[2], nullptr);
  EXPECT_EQ(pinned.pages[3]->column.Int64At(0), 3000);
  EXPECT_EQ(pinned.counts.misses, 2u);
  EXPECT_EQ(pinned.counts.miss_bytes, 2 * kPageBytes);
  EXPECT_EQ(bm->stats().pinned_pages, 3u);
  Release(*bm, owner, pinned);
  EXPECT_EQ(bm->stats().pinned_pages, 0u);

  // An empty set pins nothing and loads nothing.
  Pinned none = PinCols(*bm, owner, {}, loader.fn()).ValueOrDie();
  EXPECT_EQ(none.counts.pages, 0u);
  Release(*bm, owner, none);
  EXPECT_EQ(loader.calls(), 2);

  EXPECT_TRUE(
      PinCols(*bm, owner, {2, 2}, loader.fn()).status().IsInvalidArgument());
  EXPECT_TRUE(
      PinCols(*bm, owner, {3, 1}, loader.fn()).status().IsInvalidArgument());
}

TEST(BufferManagerTest, EvictsLeastRecentlyUsedWithinBudget) {
  // Room for two pages, not three.
  auto bm = std::make_shared<BufferManager>(kPageBytes * 2 + 1);
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader loader;

  Touch(*bm, owner, {0}, loader);
  Touch(*bm, owner, {1}, loader);
  // Touch 0 so 1 is the LRU victim.
  Touch(*bm, owner, {0}, loader);
  Touch(*bm, owner, {2}, loader);

  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.resident_bytes, bm->budget_bytes());
  EXPECT_EQ(stats.resident_pages, 2u);

  // 0 survived (recently used), 1 was evicted and must reload.
  Touch(*bm, owner, {0}, loader);
  EXPECT_EQ(loader.loads(0), 1);
  Touch(*bm, owner, {1}, loader);
  EXPECT_EQ(loader.loads(1), 2);
}

TEST(BufferManagerTest, PinnedPagesOvercommitInsteadOfEvicting) {
  auto bm = std::make_shared<BufferManager>(1);  // everything over budget
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader loader;

  Pinned p0 = PinCols(*bm, owner, {0}, loader.fn()).ValueOrDie();
  Pinned p1 = PinCols(*bm, owner, {1}, loader.fn()).ValueOrDie();

  // Both pinned: nothing evictable, the pool overcommits.
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.resident_pages, 2u);
  EXPECT_EQ(stats.pinned_pages, 2u);
  EXPECT_GT(stats.resident_bytes, bm->budget_bytes());
  EXPECT_EQ(p0.pages[0]->column.size(), kPageRows);
  EXPECT_EQ(p1.pages[1]->column.size(), kPageRows);

  // Releasing makes them evictable; the budget is enforced again.
  Release(*bm, owner, p0);
  Release(*bm, owner, p1);
  stats = bm->stats();
  EXPECT_LE(stats.resident_bytes, bm->budget_bytes());
  EXPECT_EQ(stats.resident_pages, 0u);
  EXPECT_EQ(stats.evictions, 2u);
}

// The victim is always the least recently released page that is loaded,
// unpinned and whose owner is alive: a pinned page, a page still being
// loaded and a dropped owner's page are never chosen, whatever their
// age, and a dropped page is freed (not evicted) at its last unpin.
TEST(BufferManagerTest, EvictionOrderSkipsPinnedLoadingAndDroppedPages) {
  auto bm = std::make_shared<BufferManager>(kPageBytes * 3);
  const uint64_t a = BufferManager::NextOwnerId();
  const uint64_t b = BufferManager::NextOwnerId();
  CountingLoader loader, loader_b;

  Touch(*bm, a, {0}, loader);
  Touch(*bm, a, {1}, loader);
  Touch(*bm, a, {2}, loader);  // released order: 0, 1, 2
  Pinned held0 = PinCols(*bm, a, {0}, loader.fn()).ValueOrDie();

  // Page 3 stays loading until the gate opens.
  std::atomic<bool> loading{false};
  std::atomic<bool> gate{false};
  BufferManager::PageLoader gated =
      [&](const std::vector<size_t>& columns)
      -> Result<std::vector<PagePtr>> {
    loading = true;
    while (!gate) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return std::vector<PagePtr>{IntPage(static_cast<int64_t>(columns[0]))};
  };
  std::thread loader3(
      [&] { Release(*bm, a, PinCols(*bm, a, {3}, gated).ValueOrDie()); });
  while (!loading) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Page 4 makes four resident pages (0 pinned, 1, 2, 4; 3 not yet
  // counted): the victim is 1, not the older but pinned 0.
  Touch(*bm, a, {4}, loader);
  EXPECT_EQ(bm->stats().evictions, 1u);
  EXPECT_EQ(bm->stats().resident_pages, 3u);

  // Owner b's page evicts 2; dropping b while its page is pinned keeps
  // the page until the unpin, which frees it without an eviction.
  Pinned held_b = PinCols(*bm, b, {0}, loader_b.fn()).ValueOrDie();
  EXPECT_EQ(bm->stats().evictions, 2u);
  bm->DropOwner(b);
  EXPECT_EQ(held_b.pages[0]->column.size(), kPageRows);  // still readable
  const uint64_t before_unpin = bm->stats().resident_bytes;
  Release(*bm, b, held_b);
  EXPECT_EQ(bm->stats().evictions, 2u);
  EXPECT_EQ(bm->stats().resident_bytes, before_unpin - kPageBytes);
  EXPECT_EQ(bm->stats().resident_pages, 2u);  // 0 and 4

  // Page 3 lands and is released after 4; then 0 is released last.
  gate = true;
  loader3.join();
  Release(*bm, a, held0);
  EXPECT_EQ(bm->stats().evictions, 2u);
  EXPECT_EQ(bm->stats().resident_pages, 3u);  // released order: 4, 3, 0

  // Page 5 evicts 4, the least recently released.
  Touch(*bm, a, {5}, loader);
  EXPECT_EQ(bm->stats().evictions, 3u);
  Touch(*bm, a, {3}, loader);
  Touch(*bm, a, {0}, loader);
  EXPECT_EQ(loader.loads(0), 1);  // still resident
  EXPECT_EQ(loader.loads(1), 1);
  EXPECT_EQ(loader.loads(2), 1);
  EXPECT_EQ(loader.loads(3), 0);  // only the gated loader read it
  Touch(*bm, a, {4}, loader);
  EXPECT_EQ(loader.loads(4), 2);  // was evicted
}

TEST(BufferManagerTest, DropOwnerInvalidatesResidentAndPinned) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t a = BufferManager::NextOwnerId();
  const uint64_t b = BufferManager::NextOwnerId();
  CountingLoader la, lb;

  // Unpinned pages of `a` drop immediately; `b`'s survive.
  Touch(*bm, a, {0, 1}, la);
  Touch(*bm, b, {0}, lb);
  bm->DropOwner(a);
  EXPECT_EQ(bm->stats().resident_pages, 1u);
  EXPECT_EQ(bm->stats().resident_bytes, kPageBytes);
  Touch(*bm, a, {0}, la);
  EXPECT_EQ(la.loads(0), 2);
  Touch(*bm, b, {0}, lb);
  EXPECT_EQ(lb.loads(0), 1);

  // A pinned page outlives the drop and is erased at last unpin.
  Pinned held = PinCols(*bm, a, {0}, la.fn()).ValueOrDie();
  bm->DropOwner(a);
  EXPECT_EQ(held.pages[0]->column.size(), kPageRows);
  Release(*bm, a, held);
  Touch(*bm, a, {0}, la);
  EXPECT_EQ(la.loads(0), 3);
}

TEST(BufferManagerTest, ConcurrentPinsShareOneLoad) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t owner = BufferManager::NextOwnerId();
  std::atomic<int> loads{0};
  BufferManager::PageLoader slow =
      [&loads](const std::vector<size_t>& columns)
      -> Result<std::vector<PagePtr>> {
    ++loads;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::vector<PagePtr>{IntPage(static_cast<int64_t>(columns[0]))};
  };

  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      Result<Pinned> pin = PinCols(*bm, owner, {7}, slow);
      if (pin.ok() && pin->pages[7]->column.Int64At(0) == 7000) ++ok;
      if (pin.ok()) Release(*bm, owner, *pin);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(loads.load(), 1);
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
}

// Threads pin overlapping column sets of one chunk at once: every page
// loads exactly once, every pin sees the right pages, and a pinner that
// waits on another's load never deadlocks against it.
TEST(BufferManagerTest, OverlappingColumnSetsLoadEachPageOnce) {
  const std::vector<std::vector<size_t>> sets = {
      {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}, {2, 3}, {0, 3}};
  for (int round = 0; round < 20; ++round) {
    auto bm = std::make_shared<BufferManager>(0);
    const uint64_t owner = BufferManager::NextOwnerId();
    CountingLoader counting;
    BufferManager::PageLoader inner = counting.fn();
    BufferManager::PageLoader slow =
        [&inner](const std::vector<size_t>& columns) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return inner(columns);
        };
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (const std::vector<size_t>& set : sets) {
      threads.emplace_back([&, set] {
        Result<Pinned> pin = PinCols(*bm, owner, set, slow);
        if (!pin.ok()) return;
        bool right = pin->counts.pages == set.size();
        for (size_t c : set) {
          right = right && pin->pages[c] != nullptr &&
                  pin->pages[c]->column.Int64At(0) ==
                      static_cast<int64_t>(c) * 1000;
        }
        if (right) ++ok;
        Release(*bm, owner, *pin);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(ok.load(), static_cast<int>(sets.size()));
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ(counting.loads(c), 1) << c;
    BufferStats stats = bm->stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.pinned_pages, 0u);
  }
}

TEST(BufferManagerTest, FailedLoadIsNotCachedAndReleasesItsPins) {
  auto bm = std::make_shared<BufferManager>(0);
  const uint64_t owner = BufferManager::NextOwnerId();
  CountingLoader working;
  Touch(*bm, owner, {0}, working);

  BufferManager::PageLoader failing =
      [](const std::vector<size_t>&) -> Result<std::vector<PagePtr>> {
    return Status::IOError("disk gone");
  };
  // Page 0 is a hit, page 1 fails: the pin of 0 is released again.
  EXPECT_TRUE(PinCols(*bm, owner, {0, 1}, failing).status().IsIOError());
  BufferStats stats = bm->stats();
  EXPECT_EQ(stats.resident_pages, 1u);
  EXPECT_EQ(stats.pinned_pages, 0u);

  // A loader that returns the wrong number of pages is an error too.
  BufferManager::PageLoader short_loader =
      [](const std::vector<size_t>&) -> Result<std::vector<PagePtr>> {
    return std::vector<PagePtr>{};
  };
  EXPECT_FALSE(PinCols(*bm, owner, {1}, short_loader).ok());

  // The failed slot is free again: a working loader succeeds.
  Touch(*bm, owner, {1}, working);
  EXPECT_EQ(working.loads(1), 1);
  EXPECT_EQ(bm->stats().resident_pages, 2u);
}

TEST(BufferManagerTest, HandleKeepsPoolAlive) {
  PinnedChunk pin;
  {
    auto bm = std::make_shared<BufferManager>(0);
    const uint64_t owner = BufferManager::NextOwnerId();
    CountingLoader loader;
    Pinned pinned = PinCols(*bm, owner, {0}, loader.fn()).ValueOrDie();
    SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64}}).ValueOrDie();
    pinned.pages.resize(1);
    pin = PinnedChunk(
        Chunk::FromPages(
            schema, 0, kPageRows, pinned.pages,
            std::make_shared<const std::vector<ChunkColumnStats>>(1)),
        bm, owner, 0, pinned.counts);
  }
  // The pool's last outside reference is gone; the handle still reads
  // and unpins safely.
  EXPECT_EQ(pin->column(0).size(), kPageRows);
  pin.Release();
  EXPECT_FALSE(pin);
}

}  // namespace
}  // namespace skalla
