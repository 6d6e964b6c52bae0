// Concurrency stress for the sharded buffer manager, designed to run under
// ThreadSanitizer (cmake -DSEDNA_SANITIZE=thread).
//
// A deliberately tiny pool (8 frames, 2 shards) serves far more pages than
// it can hold, so every scan drives faults, clock evictions and dirty
// writebacks while reader and writer threads hammer Pin/Unpin/MarkDirty.
// Writers and readers use disjoint page sets: the buffer manager promises
// frame-lifecycle safety (a pinned page is never evicted, a faulting thread
// never reads bytes mid-fill), not page-content serialization — that is the
// document/transaction layers' job, so racing writers against readers on
// the same page would assert nothing meaningful and trip TSan on the page
// bytes themselves.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "sas/buffer_manager.h"
#include "sas/file_manager.h"
#include "sas/page_directory.h"
#include "tests/common/test_paths.h"
#include "tests/sas/buffer_events.h"

namespace sedna {
namespace {

constexpr size_t kFrames = 8;
constexpr int kReaderPages = 24;
constexpr int kWriterPages = 8;
constexpr int kReaders = 3;
constexpr int kWriters = 2;
constexpr int kIters = 1200;

TEST(BufferConcurrencyTest, ReadersWritersEvictionStress) {
  std::string path = TestTempPath("bm_stress") + ".sedna";
  FileManager file;
  ASSERT_TRUE(file.Create(path).ok());
  SimplePageDirectory directory(&file);

  BufferPoolOptions pool;
  pool.shard_count = 2;  // force >1 shard despite the tiny pool
  BufferManager bm(&file, &directory, kFrames, pool);
  ASSERT_EQ(bm.shard_count(), 2u);

  std::vector<Xptr> reader_pages, writer_pages;
  for (int i = 0; i < kReaderPages; ++i) {
    auto p = directory.AllocLogicalPage();
    ASSERT_TRUE(p.ok());
    reader_pages.push_back(*p);
  }
  for (int i = 0; i < kWriterPages; ++i) {
    auto p = directory.AllocLogicalPage();
    ASSERT_TRUE(p.ok());
    writer_pages.push_back(*p);
  }

  // Seed every page with a recognizable uniform fill.
  for (int i = 0; i < kReaderPages; ++i) {
    auto g = bm.Pin(reader_pages[i], /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 100 + i, kPageSize);
    g->MarkDirty();
  }
  for (int i = 0; i < kWriterPages; ++i) {
    auto g = bm.Pin(writer_pages[i], /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 1, kPageSize);
    g->MarkDirty();
  }
  ASSERT_TRUE(bm.FlushAll().ok());

  std::vector<BufferEvents> before;
  for (size_t s = 0; s < bm.shard_count(); ++s) {
    before.push_back(BufferEvents::Shard(s));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Every thread runs kIters iterations and then keeps going until all
  // have, so the readers' faults overlap the writers' dirtying however the
  // scheduler runs the threads (a writer that ran only after the readers
  // finished would leave nothing dirty to evict).
  std::atomic<int> finished{0};
  auto keep_going = [&](int it) {
    if (it == kIters) finished.fetch_add(1);
    return it < kIters || finished.load() < kReaders + kWriters;
  };

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int it = 0; keep_going(it); ++it) {
        int i = (r * 7 + it) % kReaderPages;
        auto g = bm.Pin(reader_pages[i]);
        if (!g.ok()) {
          // ResourceExhausted is legal under this much pin pressure.
          continue;
        }
        const uint8_t expected = static_cast<uint8_t>(100 + i);
        const uint8_t* d = g->data();
        // Check a spread of offsets: a torn fill or a frame recycled while
        // pinned would show a foreign byte.
        if (d[0] != expected || d[kPageSize / 2] != expected ||
            d[kPageSize - 1] != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    // Writers partition the writer pages between themselves.
    threads.emplace_back([&, w] {
      for (int it = 0; keep_going(it); ++it) {
        int i = w + (it % (kWriterPages / kWriters)) * kWriters;
        auto g = bm.Pin(writer_pages[i], /*for_write=*/true);
        if (!g.ok()) continue;
        std::memset(g->data(), 1 + (it % 250), kPageSize);
        g->MarkDirty();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Observability invariant: every FetchPinned call counted as exactly one
  // hit or fault. (ResourceExhausted pins counted a request and a fault
  // before failing — both sides of the invariant include them.) 32 pages
  // over 2 shards: both shards must have seen traffic, or the sharding (or
  // its accounting) is broken.
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  for (size_t s = 0; s < bm.shard_count(); ++s) {
    BufferEvents sh = BufferEvents::Shard(s) - before[s];
    EXPECT_EQ(sh.requests, sh.hits + sh.faults) << "shard " << s;
    EXPECT_GT(sh.requests, 0u) << "shard " << s;
    evictions += sh.evictions;
    writebacks += sh.writebacks;
  }
  // The tiny pool must actually have thrashed, or this test proved nothing.
  EXPECT_GT(evictions, 100u);
  EXPECT_GT(writebacks, 10u);

  // Every writer page must be uniformly filled: pages are written whole
  // under one pin, so a mixed page means a fill raced a writeback.
  ASSERT_TRUE(bm.FlushAll().ok());
  for (int i = 0; i < kWriterPages; ++i) {
    auto g = bm.Pin(writer_pages[i]);
    ASSERT_TRUE(g.ok());
    const uint8_t* d = g->data();
    uint8_t v = d[0];
    EXPECT_EQ(d[kPageSize / 2], v) << "writer page " << i << " is torn";
    EXPECT_EQ(d[kPageSize - 1], v) << "writer page " << i << " is torn";
  }
  ASSERT_TRUE(file.Close().ok());
  std::remove(path.c_str());
}

// Many threads faulting the SAME cold page must coalesce into one read and
// all observe fully-filled contents.
TEST(BufferConcurrencyTest, ConcurrentFaultsOfSamePageCoalesce) {
  std::string path = TestTempPath("bm_coalesce") + ".sedna";
  FileManager file;
  ASSERT_TRUE(file.Create(path).ok());
  SimplePageDirectory directory(&file);

  std::vector<Xptr> pages;
  {
    BufferManager bm(&file, &directory, 64);
    for (int i = 0; i < 16; ++i) {
      auto p = directory.AllocLogicalPage();
      ASSERT_TRUE(p.ok());
      pages.push_back(*p);
      auto g = bm.Pin(pages.back(), /*for_write=*/true);
      ASSERT_TRUE(g.ok());
      std::memset(g->data(), 40 + i, kPageSize);
      g->MarkDirty();
    }
    ASSERT_TRUE(bm.FlushAll().ok());
  }  // destroyed: the next manager starts cold

  BufferManager bm(&file, &directory, 64);
  const BufferEvents before = BufferEvents::Total();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 16; ++i) {
        auto g = bm.Pin(pages[i]);
        if (!g.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const uint8_t expected = static_cast<uint8_t>(40 + i);
        const uint8_t* d = g->data();
        if (d[0] != expected || d[kPageSize - 1] != expected) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // 6 threads x 16 pages, but only 16 cold faults' worth of distinct pages:
  // coalescing means faults stay well below total accesses.
  BufferEvents stats = BufferEvents::Total() - before;
  EXPECT_GE(stats.faults, 16u);
  EXPECT_EQ(stats.hits + stats.faults, 6u * 16u);
  ASSERT_TRUE(file.Close().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sedna
