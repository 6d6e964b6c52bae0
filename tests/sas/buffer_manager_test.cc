#include "sas/buffer_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "sas/file_manager.h"
#include "sas/page_directory.h"
#include "tests/common/test_paths.h"
#include "tests/sas/buffer_events.h"

namespace sedna {
namespace {

class BufferManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath(std::string("bm_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
            ".sedna";
    ASSERT_TRUE(file_.Create(path_).ok());
    directory_ = std::make_unique<SimplePageDirectory>(&file_);
  }

  void MakeBuffers(size_t frames) {
    buffers_ =
        std::make_unique<BufferManager>(&file_, directory_.get(), frames);
  }

  Xptr AllocPage() {
    auto p = directory_->AllocLogicalPage();
    EXPECT_TRUE(p.ok());
    return *p;
  }

  std::string path_;
  FileManager file_;
  std::unique_ptr<SimplePageDirectory> directory_;
  std::unique_ptr<BufferManager> buffers_;
};

TEST_F(BufferManagerTest, PinWriteReadBack) {
  MakeBuffers(16);
  Xptr page = AllocPage();
  {
    auto guard = buffers_->Pin(page, /*for_write=*/true);
    ASSERT_TRUE(guard.ok());
    std::memset(guard->data(), 0x5a, kPageSize);
    guard->MarkDirty();
  }
  ASSERT_TRUE(buffers_->FlushAll().ok());
  auto guard = buffers_->Pin(page);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->data()[0], 0x5a);
  EXPECT_EQ(guard->data()[kPageSize - 1], 0x5a);
}

TEST_F(BufferManagerTest, DerefFastHitsAfterFault) {
  MakeBuffers(16);
  Xptr page = AllocPage();
  const BufferEvents before = BufferEvents::Total();
  void* p1 = buffers_->DerefFast(page + 128);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ((BufferEvents::Total() - before).faults, 1u);
  void* p2 = buffers_->DerefFast(page + 256);
  EXPECT_EQ(static_cast<char*>(p2) - static_cast<char*>(p1), 128);
  // Second deref of a resident page takes the fast path: no new fault.
  EXPECT_EQ((BufferEvents::Total() - before).faults, 1u);
}

TEST_F(BufferManagerTest, DataSurvivesEviction) {
  MakeBuffers(4);
  std::vector<Xptr> pages;
  for (int i = 0; i < 12; ++i) pages.push_back(AllocPage());
  const BufferEvents before = BufferEvents::Total();
  for (int i = 0; i < 12; ++i) {
    auto guard = buffers_->Pin(pages[i], /*for_write=*/true);
    ASSERT_TRUE(guard.ok());
    std::memset(guard->data(), i + 1, kPageSize);
    guard->MarkDirty();
  }
  // With 4 frames and 12 pages, evictions must have happened.
  EXPECT_GT((BufferEvents::Total() - before).evictions, 0u);
  for (int i = 0; i < 12; ++i) {
    auto guard = buffers_->Pin(pages[i]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[100], i + 1) << "page " << i;
  }
}

TEST_F(BufferManagerTest, PinnedPagesAreNotEvicted) {
  MakeBuffers(4);
  std::vector<Xptr> pages;
  for (int i = 0; i < 8; ++i) pages.push_back(AllocPage());

  auto pinned = buffers_->Pin(pages[0], /*for_write=*/true);
  ASSERT_TRUE(pinned.ok());
  std::memset(pinned->data(), 0x77, 16);
  uint8_t* stable = pinned->data();

  // Churn through the other pages; the pinned frame must stay put.
  for (int round = 0; round < 3; ++round) {
    for (int i = 1; i < 8; ++i) {
      auto g = buffers_->Pin(pages[i]);
      ASSERT_TRUE(g.ok());
    }
  }
  EXPECT_EQ(pinned->data(), stable);
  EXPECT_EQ(stable[0], 0x77);
}

TEST_F(BufferManagerTest, AllFramesPinnedIsResourceExhausted) {
  MakeBuffers(4);
  std::vector<Xptr> pages;
  std::vector<PageGuard> guards;
  for (int i = 0; i < 4; ++i) {
    pages.push_back(AllocPage());
    auto g = buffers_->Pin(pages[i]);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  Xptr extra = AllocPage();
  auto g = buffers_->Pin(extra);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
  guards.clear();
  auto g2 = buffers_->Pin(extra);
  EXPECT_TRUE(g2.ok());
}

TEST_F(BufferManagerTest, UnmappedPageIsNotFound) {
  MakeBuffers(8);
  auto g = buffers_->Pin(Xptr(55, 0));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST_F(BufferManagerTest, StatsCountHitsAndFaults) {
  MakeBuffers(8);
  Xptr page = AllocPage();
  const BufferEvents before = BufferEvents::Total();
  { auto g = buffers_->Pin(page); ASSERT_TRUE(g.ok()); }
  { auto g = buffers_->Pin(page); ASSERT_TRUE(g.ok()); }
  BufferEvents stats = BufferEvents::Total() - before;
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

TEST_F(BufferManagerTest, FlushAllPersistsAcrossReopen) {
  MakeBuffers(8);
  Xptr page = AllocPage();
  {
    auto g = buffers_->Pin(page, /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::strcpy(reinterpret_cast<char*>(g->data()), "persisted");
    g->MarkDirty();
  }
  ASSERT_TRUE(buffers_->FlushAll().ok());
  std::string dir_blob = directory_->Serialize();

  buffers_.reset();
  ASSERT_TRUE(file_.Close().ok());

  FileManager file2;
  ASSERT_TRUE(file2.Open(path_).ok());
  SimplePageDirectory dir2(&file2);
  ASSERT_TRUE(dir2.Deserialize(dir_blob).ok());
  BufferManager bm2(&file2, &dir2, 8);
  auto g = bm2.Pin(page);
  ASSERT_TRUE(g.ok());
  EXPECT_STREQ(reinterpret_cast<char*>(g->data()), "persisted");
}

TEST_F(BufferManagerTest, MovedGuardReleasesOnce) {
  MakeBuffers(4);
  Xptr page = AllocPage();
  auto g = buffers_->Pin(page);
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(*g);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // Frame is unpinned exactly once; pinning three more pages then a fourth
  // must succeed because nothing is left pinned.
  for (int i = 0; i < 5; ++i) {
    Xptr p = AllocPage();
    auto g2 = buffers_->Pin(p);
    ASSERT_TRUE(g2.ok());
  }
}

// Resolver that maps chosen logical pages to fixed physical pages, so tests
// can place logical pages at arbitrary (e.g. very high) page indexes and
// exercise transaction-owned write targets without the MVCC layer.
class FixedResolver : public PageResolver {
 public:
  void MapRead(LogicalPageId lpid, PhysPageId ppn) { reads_[lpid] = ppn; }
  void MapWrite(LogicalPageId lpid, PhysPageId ppn,
                PhysPageId copied_from = kInvalidPhysPage) {
    writes_[lpid] = WriteTarget{ppn, copied_from};
  }

  StatusOr<PhysPageId> Resolve(LogicalPageId lpid,
                               const ResolveContext&) override {
    auto it = reads_.find(lpid);
    if (it == reads_.end()) return Status::NotFound("unmapped page");
    return it->second;
  }
  StatusOr<WriteTarget> ResolveForWrite(LogicalPageId lpid,
                                        const ResolveContext&) override {
    auto it = writes_.find(lpid);
    if (it == writes_.end()) return Status::NotFound("unmapped page");
    return it->second;
  }

 private:
  std::unordered_map<LogicalPageId, PhysPageId> reads_;
  std::unordered_map<LogicalPageId, WriteTarget> writes_;
};

// Regression: the shared fast map used to cover only the first 4096 page
// indexes per layer; a page beyond that silently fell off the lock-free
// path and every DerefFast went through the full (counted) slow path.
TEST_F(BufferManagerTest, FastMapCoversPageIndexBeyondOldCap) {
  // Place a logical page at page index 5000 (old cap: 4096).
  constexpr uint32_t kHighIdx = 5000;
  auto ppn = file_.AllocPage();
  ASSERT_TRUE(ppn.ok());
  std::vector<uint8_t> bytes(kPageSize, 0xab);
  ASSERT_TRUE(file_.WritePage(*ppn, bytes.data()).ok());

  FixedResolver resolver;
  Xptr high(kFirstLayer, kHighIdx << kPageSizeBits);
  resolver.MapRead(high.raw, *ppn);
  BufferManager bm(&file_, &resolver, 8);
  const BufferEvents start = BufferEvents::Total();

  void* p1 = bm.DerefFast(high + 64);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(*static_cast<uint8_t*>(p1), 0xab);
  EXPECT_EQ((BufferEvents::Total() - start).faults, 1u);
  const BufferEvents before = BufferEvents::Total();

  // Must take the lock-free fast path: no slow-path hit, no fault.
  void* p2 = bm.DerefFast(high + 128);
  EXPECT_EQ(static_cast<char*>(p2) - static_cast<char*>(p1), 64);
  EXPECT_EQ(BufferEvents::Total().faults, before.faults);
  EXPECT_EQ(BufferEvents::Total().hits, before.hits);

  // And the slow path still counts a buffer hit for the resident page.
  auto g = bm.Pin(high);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(BufferEvents::Total().hits, before.hits + 1);
}

// Growing the per-layer table for a high index must keep earlier entries.
TEST_F(BufferManagerTest, FastMapGrowthKeepsExistingEntries) {
  auto low_ppn = file_.AllocPage();
  auto high_ppn = file_.AllocPage();
  ASSERT_TRUE(low_ppn.ok());
  ASSERT_TRUE(high_ppn.ok());
  std::vector<uint8_t> bytes(kPageSize, 0x11);
  ASSERT_TRUE(file_.WritePage(*low_ppn, bytes.data()).ok());
  bytes.assign(kPageSize, 0x22);
  ASSERT_TRUE(file_.WritePage(*high_ppn, bytes.data()).ok());

  FixedResolver resolver;
  Xptr low(kFirstLayer, 3u << kPageSizeBits);
  Xptr high(kFirstLayer, 70000u << kPageSizeBits);
  resolver.MapRead(low.raw, *low_ppn);
  resolver.MapRead(high.raw, *high_ppn);
  BufferManager bm(&file_, &resolver, 8);

  EXPECT_EQ(*static_cast<uint8_t*>(bm.DerefFast(low)), 0x11);
  EXPECT_EQ(*static_cast<uint8_t*>(bm.DerefFast(high)), 0x22);
  const BufferEvents before = BufferEvents::Total();
  // Both entries must be served by the fast map after the growth.
  EXPECT_EQ(*static_cast<uint8_t*>(bm.DerefFast(low)), 0x11);
  EXPECT_EQ(*static_cast<uint8_t*>(bm.DerefFast(high)), 0x22);
  EXPECT_EQ(BufferEvents::Total().hits, before.hits);
  EXPECT_EQ(BufferEvents::Total().faults, before.faults);
}

// FlushTxn must write only the calling transaction's version frames, found
// through the per-transaction frame list (not a whole-pool scan).
TEST_F(BufferManagerTest, FlushTxnWritesOnlyThatTxnsFrames) {
  auto shared7 = file_.AllocPage();
  auto ver7 = file_.AllocPage();
  auto shared9 = file_.AllocPage();
  auto ver9 = file_.AllocPage();
  ASSERT_TRUE(ver7.ok());
  ASSERT_TRUE(ver9.ok());
  std::vector<uint8_t> zero(kPageSize, 0);
  for (PhysPageId p : {*shared7, *ver7, *shared9, *ver9}) {
    ASSERT_TRUE(file_.WritePage(p, zero.data()).ok());
  }

  FixedResolver resolver;
  Xptr pa(kFirstLayer, 0), pb(kFirstLayer, kPageSize);
  resolver.MapWrite(pa.raw, *ver7, /*copied_from=*/*shared7);
  resolver.MapWrite(pb.raw, *ver9, /*copied_from=*/*shared9);
  BufferManager bm(&file_, &resolver, 8);

  ResolveContext txn7{7, 0, false}, txn9{9, 0, false};
  {
    auto g = bm.Pin(pa, txn7, /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 0x77, kPageSize);
    g->MarkDirty();
  }
  {
    auto g = bm.Pin(pb, txn9, /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 0x99, kPageSize);
    g->MarkDirty();
  }

  ASSERT_TRUE(bm.FlushTxn(7).ok());
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(file_.ReadPage(*ver7, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x77) << "txn 7's version must be flushed";
  ASSERT_TRUE(file_.ReadPage(*ver9, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x00) << "txn 9's version must NOT be flushed";

  ASSERT_TRUE(bm.FlushTxn(9).ok());
  ASSERT_TRUE(file_.ReadPage(*ver9, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x99);
}

// ForgetTxn (abort path) drops the frame list: a later FlushTxn writes
// nothing even though the frame is still resident and dirty.
TEST_F(BufferManagerTest, ForgetTxnDropsFrameList) {
  auto shared = file_.AllocPage();
  auto ver = file_.AllocPage();
  ASSERT_TRUE(ver.ok());
  std::vector<uint8_t> zero(kPageSize, 0);
  ASSERT_TRUE(file_.WritePage(*shared, zero.data()).ok());
  ASSERT_TRUE(file_.WritePage(*ver, zero.data()).ok());

  FixedResolver resolver;
  Xptr pa(kFirstLayer, 0);
  resolver.MapWrite(pa.raw, *ver, /*copied_from=*/*shared);
  BufferManager bm(&file_, &resolver, 8);

  ResolveContext txn7{7, 0, false};
  {
    auto g = bm.Pin(pa, txn7, /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 0x77, kPageSize);
    g->MarkDirty();
  }
  bm.ForgetTxn(7);
  const uint64_t wb_before = BufferEvents::Total().writebacks;
  ASSERT_TRUE(bm.FlushTxn(7).ok());
  EXPECT_EQ(BufferEvents::Total().writebacks, wb_before);
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(file_.ReadPage(*ver, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x00);
}

// After PublishTxnFrames the version frame belongs to the shared view: it
// becomes eligible for the lock-free fast map.
TEST_F(BufferManagerTest, PublishedFrameJoinsSharedFastMap) {
  auto shared = file_.AllocPage();
  auto ver = file_.AllocPage();
  ASSERT_TRUE(ver.ok());
  std::vector<uint8_t> zero(kPageSize, 0);
  ASSERT_TRUE(file_.WritePage(*shared, zero.data()).ok());
  ASSERT_TRUE(file_.WritePage(*ver, zero.data()).ok());

  FixedResolver resolver;
  Xptr pa(kFirstLayer, 0);
  resolver.MapRead(pa.raw, *shared);
  resolver.MapWrite(pa.raw, *ver, /*copied_from=*/*shared);
  BufferManager bm(&file_, &resolver, 8);

  ResolveContext txn7{7, 0, false};
  {
    auto g = bm.Pin(pa, txn7, /*for_write=*/true);
    ASSERT_TRUE(g.ok());
    std::memset(g->data(), 0x77, kPageSize);
    g->MarkDirty();
  }
  // Commit: the shared view now resolves to the new version.
  resolver.MapRead(pa.raw, *ver);
  bm.InvalidateShared(pa.raw);
  bm.PublishTxnFrames(7);

  // Resident version frame: the shared deref hits it and installs it in the
  // fast map (only legal once owner_txn was cleared by the publish)...
  EXPECT_EQ(*static_cast<uint8_t*>(bm.DerefFast(pa)), 0x77);
  const BufferEvents before = BufferEvents::Total();
  // ...so the next deref takes the lock-free path: counters unchanged.
  EXPECT_EQ(*static_cast<uint8_t*>(bm.DerefFast(pa + 1)), 0x77);
  EXPECT_EQ(BufferEvents::Total().hits, before.hits);
  EXPECT_EQ(BufferEvents::Total().faults, before.faults);
}

}  // namespace
}  // namespace sedna
