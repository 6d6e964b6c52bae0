#include "sas/page_directory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "sas/file_manager.h"
#include "sas/page_table.h"

namespace sedna {
namespace {

class PageDirectoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pd_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".sedna";
    std::remove(path_.c_str());
    ASSERT_TRUE(file_.Create(path_).ok());
    directory_ = std::make_unique<SimplePageDirectory>(&file_);
  }

  std::string path_;
  FileManager file_;
  std::unique_ptr<SimplePageDirectory> directory_;
};

TEST_F(PageDirectoryTest, AllocReturnsPageAlignedXptrs) {
  auto a = directory_->AllocLogicalPage();
  auto b = directory_->AllocLogicalPage();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->PageOffset(), 0u);
  EXPECT_GE(a->layer(), kFirstLayer);
  EXPECT_NE(a->raw, b->raw);
}

TEST_F(PageDirectoryTest, ResolveMapsToDistinctPhysicalPages) {
  auto a = directory_->AllocLogicalPage();
  auto b = directory_->AllocLogicalPage();
  ASSERT_TRUE(a.ok() && b.ok());
  auto pa = directory_->Resolve(a->raw, ResolveContext{});
  auto pb = directory_->Resolve(b->raw, ResolveContext{});
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_NE(*pa, *pb);
}

TEST_F(PageDirectoryTest, ResolveUnknownPageIsNotFound) {
  EXPECT_EQ(directory_->Resolve(Xptr(9, 0).raw, ResolveContext{})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(PageDirectoryTest, FreeThenReallocReusesAddressSpace) {
  auto a = directory_->AllocLogicalPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(directory_->FreeLogicalPage(*a).ok());
  EXPECT_FALSE(directory_->Contains(a->raw));
  auto b = directory_->AllocLogicalPage();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->raw, a->raw);  // freed logical address reused
}

TEST_F(PageDirectoryTest, DoubleFreeFails) {
  auto a = directory_->AllocLogicalPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(directory_->FreeLogicalPage(*a).ok());
  EXPECT_FALSE(directory_->FreeLogicalPage(*a).ok());
}

TEST_F(PageDirectoryTest, RebindChangesResolution) {
  auto a = directory_->AllocLogicalPage();
  ASSERT_TRUE(a.ok());
  auto spare = file_.AllocPage();
  ASSERT_TRUE(spare.ok());
  ASSERT_TRUE(directory_->Rebind(a->raw, *spare).ok());
  auto p = directory_->Resolve(a->raw, ResolveContext{});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, *spare);
}

TEST_F(PageDirectoryTest, SerializeRoundTripPreservesEverything) {
  std::vector<Xptr> pages;
  for (int i = 0; i < 50; ++i) {
    auto p = directory_->AllocLogicalPage();
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  ASSERT_TRUE(directory_->FreeLogicalPage(pages[10]).ok());
  ASSERT_TRUE(directory_->FreeLogicalPage(pages[20]).ok());
  std::string blob = directory_->Serialize();

  SimplePageDirectory restored(&file_);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  EXPECT_EQ(restored.size(), directory_->size());
  for (size_t i = 0; i < pages.size(); ++i) {
    if (i == 10 || i == 20) {
      EXPECT_FALSE(restored.Contains(pages[i].raw));
      continue;
    }
    auto before = directory_->Resolve(pages[i].raw, ResolveContext{});
    auto after = restored.Resolve(pages[i].raw, ResolveContext{});
    ASSERT_TRUE(before.ok() && after.ok());
    EXPECT_EQ(*before, *after);
  }
  // Allocation state restored too: next alloc must not collide.
  auto fresh = restored.AllocLogicalPage();
  ASSERT_TRUE(fresh.ok());
  for (Xptr p : pages) {
    if (p.raw == pages[10].raw || p.raw == pages[20].raw) continue;
    EXPECT_NE(fresh->raw, p.raw);
  }
}

TEST_F(PageDirectoryTest, DeserializeRejectsGarbage) {
  SimplePageDirectory restored(&file_);
  EXPECT_FALSE(restored.Deserialize("nonsense").ok());
}

TEST_F(PageDirectoryTest, LayersAdvanceWhenFull) {
  // Allocate more than pages_per_layer (4096) logical pages cheaply is too
  // slow with real physical backing; instead verify entries enumerate.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(directory_->AllocLogicalPage().ok());
  }
  auto entries = directory_->Entries();
  EXPECT_EQ(entries.size(), 20u);
}

TEST_F(PageDirectoryTest, DeserializeRejectsPagesOutsideTheAddressSpace) {
  ASSERT_TRUE(directory_->AllocLogicalPage().ok());
  SimplePageDirectory forged(&file_);
  // A page in a layer the allocator never reached.
  ASSERT_TRUE(forged.Rebind(Xptr(7, 0).raw, 3).ok());
  SimplePageDirectory restored(&file_);
  EXPECT_EQ(restored.Deserialize(forged.Serialize()).code(),
            StatusCode::kCorruption);
}

TEST(PageTableTest, GrowsToCoverAnyLayerAndPageIndex) {
  auto page = [](uint32_t layer, uint32_t index) {
    return Xptr(layer, index << kPageSizeBits);
  };
  PageTable<uint32_t, 0xffffffffu> table;
  EXPECT_EQ(table.Load(page(1, 0)), 0xffffffffu);
  table.Store(page(1, 2), 7);
  table.Store(page(1000, 9), 8);    // past the initial spine
  table.Store(page(1, 10000), 9);   // grows layer 1's row; keeps (1, 2)
  EXPECT_EQ(table.Load(page(1, 2)), 7u);
  EXPECT_EQ(table.Load(page(1, 2) + 123), 7u);  // any address in the page
  EXPECT_EQ(table.Load(page(1000, 9)), 8u);
  EXPECT_EQ(table.Load(page(1, 10000)), 9u);
  EXPECT_EQ(table.Load(page(1, 10001)), 0xffffffffu);
  EXPECT_EQ(table.Load(page(5000, 0)), 0xffffffffu);
  table.Store(page(6000, 0), 0xffffffffu);  // clearing an uncovered page
  EXPECT_EQ(table.Load(page(6000, 0)), 0xffffffffu);

  std::vector<std::pair<uint64_t, uint32_t>> seen;
  table.ForEach([&](Xptr p, uint32_t v) { seen.emplace_back(p.raw, v); });
  ASSERT_EQ(seen.size(), 3u);  // address order
  EXPECT_EQ(seen[0].first, page(1, 2).raw);
  EXPECT_EQ(seen[1].first, page(1, 10000).raw);
  EXPECT_EQ(seen[2].first, page(1000, 9).raw);

  table.ClearAll();
  EXPECT_EQ(table.Load(page(1000, 9)), 0xffffffffu);
  size_t left = 0;
  table.ForEach([&](Xptr, uint32_t) { ++left; });
  EXPECT_EQ(left, 0u);
}

// Lock-free Resolve against writers that allocate, free and rebind pages,
// growing the table (high-layer rebinds) while readers load from it. Run
// under -DSEDNA_SANITIZE=thread. Pages outside the churned set keep their
// mapping, so readers check them exactly; churned pages must resolve to
// kNotFound or a physical page, never garbage.
TEST_F(PageDirectoryTest, ConcurrentResolveDuringAllocFreeRebind) {
  constexpr int kStable = 64;
  constexpr int kReaders = 3;
  constexpr int kRounds = 400;
  std::map<uint64_t, PhysPageId> stable;
  std::vector<uint64_t> stable_ids;
  for (int i = 0; i < kStable; ++i) {
    auto p = directory_->AllocLogicalPage();
    ASSERT_TRUE(p.ok());
    auto ppn = directory_->Resolve(p->raw, ResolveContext{});
    ASSERT_TRUE(ppn.ok());
    stable[p->raw] = *ppn;
    stable_ids.push_back(p->raw);
  }
  // Physical pages the rebinding writer binds (rebinds never free them).
  std::vector<PhysPageId> spares;
  for (int i = 0; i < 8; ++i) {
    auto spare = file_.AllocPage();
    ASSERT_TRUE(spare.ok());
    spares.push_back(*spare);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> resolves{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Random rng(100 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t id = stable_ids[rng.Uniform(stable_ids.size())];
        auto got = directory_->Resolve(id, ResolveContext{});
        if (!got.ok() || *got != stable.at(id)) mismatches.fetch_add(1);
        // A churned or never-mapped page: any answer but a crash is fine.
        Xptr other(static_cast<uint32_t>(1 + rng.Uniform(300)),
                   static_cast<uint32_t>(rng.Uniform(64)) << kPageSizeBits);
        auto any = directory_->Resolve(other.raw, ResolveContext{});
        if (any.ok() && *any == kInvalidPhysPage) mismatches.fetch_add(1);
        resolves.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {  // allocator churn in layer 1
    std::vector<Xptr> mine;
    for (int i = 0; i < kRounds; ++i) {
      auto p = directory_->AllocLogicalPage();
      if (!p.ok()) continue;
      mine.push_back(*p);
      if (mine.size() > 8) {
        if (!directory_->FreeLogicalPage(mine.front()).ok()) {
          mismatches.fetch_add(1);
        }
        mine.erase(mine.begin());
      }
    }
  });
  threads.emplace_back([&] {  // rebinds that grow the spine and rows
    for (int i = 0; i < kRounds; ++i) {
      Xptr page(static_cast<uint32_t>(2 + i % 290),
                static_cast<uint32_t>(i % 64) << kPageSizeBits);
      if (!directory_->Rebind(page.raw, spares[i % spares.size()]).ok()) {
        mismatches.fetch_add(1);
      }
    }
  });
  // Stop the readers once both writers are done.
  threads[kReaders].join();
  threads[kReaders + 1].join();
  stop.store(true);
  for (int r = 0; r < kReaders; ++r) threads[r].join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(resolves.load(), 0u);
  for (const auto& [id, ppn] : stable) {
    auto got = directory_->Resolve(id, ResolveContext{});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, ppn);
  }
}

}  // namespace
}  // namespace sedna
