#include "txn/version_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "sas/buffer_manager.h"

namespace sedna {
namespace {

class VersionManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "vm_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".sedna";
    std::remove(path_.c_str());
    ASSERT_TRUE(file_.Create(path_).ok());
    directory_ = std::make_unique<SimplePageDirectory>(&file_);
    versions_ = std::make_unique<VersionManager>(&file_, directory_.get());
    buffers_ =
        std::make_unique<BufferManager>(&file_, versions_.get(), 64);
    versions_->BindBuffers(buffers_.get());
    auto page = directory_->AllocLogicalPage();
    ASSERT_TRUE(page.ok());
    page_ = *page;
    WriteByte(ResolveContext{}, 'A');  // committed base content
  }

  ResolveContext TxnCtx(uint64_t txn, bool read_only = false,
                        uint64_t snapshot = 0) {
    ResolveContext ctx;
    ctx.txn_id = txn;
    ctx.read_only = read_only;
    ctx.snapshot_ts = snapshot;
    return ctx;
  }

  void WriteByte(const ResolveContext& ctx, char value) {
    auto guard = buffers_->Pin(page_, ctx, /*for_write=*/true);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    guard->data()[100] = static_cast<uint8_t>(value);
    guard->MarkDirty();
  }

  char ReadByte(const ResolveContext& ctx) {
    auto guard = buffers_->Pin(page_, ctx, /*for_write=*/false);
    EXPECT_TRUE(guard.ok()) << guard.status().ToString();
    if (!guard.ok()) return '?';
    return static_cast<char>(guard->data()[100]);
  }

  std::string path_;
  FileManager file_;
  std::unique_ptr<SimplePageDirectory> directory_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<BufferManager> buffers_;
  Xptr page_;
};

TEST_F(VersionManagerTest, WriterSeesOwnVersionOthersSeeCommitted) {
  versions_->BeginTxn(1, false, 0);
  WriteByte(TxnCtx(1), 'B');
  EXPECT_EQ(ReadByte(TxnCtx(1)), 'B');       // own working version
  EXPECT_EQ(ReadByte(ResolveContext{}), 'A');  // last committed unchanged
  ASSERT_TRUE(versions_->CommitTxn(1, 10).ok());
  EXPECT_EQ(ReadByte(ResolveContext{}), 'B');
}

TEST_F(VersionManagerTest, AbortDiscardsWorkingVersion) {
  versions_->BeginTxn(1, false, 0);
  WriteByte(TxnCtx(1), 'B');
  ASSERT_TRUE(versions_->AbortTxn(1).ok());
  EXPECT_EQ(ReadByte(ResolveContext{}), 'A');
  // The working version page was released; only the pre-existing base
  // version record remains.
  EXPECT_EQ(versions_->live_version_count(), 1u);
}

TEST_F(VersionManagerTest, SnapshotReaderSeesOldVersionAfterCommit) {
  Counter* snapshot_reads =
      MetricsRegistry::Global().counter("mvcc.snapshot_reads");
  const uint64_t reads_before = snapshot_reads->value();
  versions_->BeginTxn(9, true, /*snapshot=*/5);  // reader at ts 5
  versions_->BeginTxn(1, false, 0);
  WriteByte(TxnCtx(1), 'B');
  ASSERT_TRUE(versions_->CommitTxn(1, 10).ok());  // commit after snapshot

  EXPECT_EQ(ReadByte(TxnCtx(9, true, 5)), 'A');   // snapshot view
  EXPECT_EQ(ReadByte(ResolveContext{}), 'B');     // latest view
  EXPECT_EQ(snapshot_reads->value() - reads_before, 1u);
  ASSERT_TRUE(versions_->CommitTxn(9, 0).ok());
}

TEST_F(VersionManagerTest, VersionsPurgedOnceSnapshotReleased) {
  versions_->BeginTxn(9, true, 5);
  versions_->BeginTxn(1, false, 0);
  WriteByte(TxnCtx(1), 'B');
  ASSERT_TRUE(versions_->CommitTxn(1, 10).ok());
  // Move the persistent snapshot past the commit so only the live reader
  // still pins the old version.
  ASSERT_TRUE(versions_->SetPersistentSnapshot(10).ok());
  Counter* purged = MetricsRegistry::Global().counter("mvcc.versions_purged");
  const uint64_t purged_before = purged->value();
  EXPECT_EQ(versions_->live_version_count(), 2u);  // reader pins 'A'
  ASSERT_TRUE(versions_->CommitTxn(9, 0).ok());  // release the snapshot
  EXPECT_EQ(purged->value() - purged_before, 1u);
  EXPECT_EQ(versions_->live_version_count(), 1u);
}

TEST_F(VersionManagerTest, PersistentSnapshotPinsVersions) {
  ASSERT_TRUE(versions_->SetPersistentSnapshot(5).ok());
  versions_->BeginTxn(1, false, 0);
  WriteByte(TxnCtx(1), 'B');
  ASSERT_TRUE(versions_->CommitTxn(1, 10).ok());
  // The ts-5 persistent snapshot still needs the 'A' version: two live.
  EXPECT_EQ(versions_->live_version_count(), 2u);
  // Checkpoint advances the persistent snapshot; old version reclaimable.
  ASSERT_TRUE(versions_->SetPersistentSnapshot(11).ok());
  EXPECT_EQ(versions_->live_version_count(), 1u);
}

TEST_F(VersionManagerTest, SequentialCommitsKeepOnlyLatestWithoutReaders) {
  ASSERT_TRUE(versions_->SetPersistentSnapshot(1).ok());
  for (uint64_t t = 1; t <= 5; ++t) {
    versions_->BeginTxn(t, false, 0);
    WriteByte(TxnCtx(t), static_cast<char>('B' + t));
    ASSERT_TRUE(versions_->CommitTxn(t, 10 + t).ok());
  }
  ASSERT_TRUE(versions_->SetPersistentSnapshot(100).ok());
  EXPECT_EQ(versions_->live_version_count(), 1u);
  EXPECT_EQ(ReadByte(ResolveContext{}), 'B' + 5);
}

TEST_F(VersionManagerTest, ReadOnlyTransactionCannotWrite) {
  versions_->BeginTxn(7, true, 5);
  auto guard = buffers_->Pin(page_, TxnCtx(7, true, 5), /*for_write=*/true);
  EXPECT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(versions_->CommitTxn(7, 0).ok());
}

TEST_F(VersionManagerTest, PageCreatedInTxnInvisibleToSnapshots) {
  versions_->BeginTxn(1, false, 0);
  auto fresh = directory_->AllocLogicalPage();
  ASSERT_TRUE(fresh.ok());
  versions_->OnPageAllocated(1, fresh->raw);
  // Another snapshot reader must not see the page.
  versions_->BeginTxn(9, true, 5);
  auto r = versions_->Resolve(fresh->raw, TxnCtx(9, true, 5));
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(versions_->CommitTxn(1, 10).ok());
  // Still invisible at the old snapshot, visible at a newer one.
  EXPECT_EQ(versions_->Resolve(fresh->raw, TxnCtx(9, true, 5))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(versions_->Resolve(fresh->raw, TxnCtx(0, true, 11)).ok());
  ASSERT_TRUE(versions_->CommitTxn(9, 0).ok());
}

TEST_F(VersionManagerTest, DeferredFreeWaitsForSnapshotsAndPersistent) {
  ASSERT_TRUE(versions_->SetPersistentSnapshot(20).ok());
  versions_->BeginTxn(9, true, 5);  // old snapshot
  versions_->BeginTxn(1, false, 0);
  versions_->OnPageFreed(1, page_.raw);
  ASSERT_TRUE(versions_->CommitTxn(1, 10).ok());
  // The reader at ts 5 still resolves the freed page.
  EXPECT_TRUE(versions_->Resolve(page_.raw, TxnCtx(9, true, 5)).ok());
  EXPECT_TRUE(directory_->Contains(page_.raw));
  ASSERT_TRUE(versions_->CommitTxn(9, 0).ok());
  // Snapshot released and the persistent snapshot (20) is past the free
  // commit (10): the page is really gone now.
  EXPECT_FALSE(directory_->Contains(page_.raw));
}

TEST_F(VersionManagerTest, ConcurrentUncommittedVersionsRejected) {
  versions_->BeginTxn(1, false, 0);
  versions_->BeginTxn(2, false, 0);
  WriteByte(TxnCtx(1), 'B');
  auto guard = buffers_->Pin(page_, TxnCtx(2), /*for_write=*/true);
  // Locking above normally prevents this; the version manager refuses.
  EXPECT_FALSE(guard.ok());
  EXPECT_EQ(guard.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(versions_->AbortTxn(1).ok());
  ASSERT_TRUE(versions_->AbortTxn(2).ok());
}

/// True when both resolutions agree on status code and, if OK, on the page.
bool SameResolution(const StatusOr<PhysPageId>& a,
                    const StatusOr<PhysPageId>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  return *a == *b;
}

// Single-threaded differential: after every step of a seeded sequence of
// copy-on-write writes, page allocations and frees, commits, aborts,
// snapshot begins and releases and persistent-snapshot moves, the
// lock-free Resolve agrees with the locked path for every page and every
// context: system reads, each live transaction's own context, an
// unregistered transaction, and each live snapshot.
TEST_F(VersionManagerTest, LockFreeResolveMatchesLockedPath) {
  Random rng(42);
  std::vector<Xptr> pages = {page_};
  for (int i = 0; i < 11; ++i) {
    auto p = directory_->AllocLogicalPage();
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  uint64_t next_txn = 1;
  uint64_t ts = 1;
  std::vector<uint64_t> writers;                        // read-write txns
  std::vector<std::pair<uint64_t, uint64_t>> snapshots;  // (txn, ts)
  auto pick = [&](auto& v) { return rng.Uniform(v.size()); };

  int compared = 0;
  for (int step = 0; step < 800; ++step) {
    switch (rng.Uniform(9)) {
      case 0:
        versions_->BeginTxn(next_txn, false, 0);
        writers.push_back(next_txn++);
        break;
      case 1:
        versions_->BeginTxn(next_txn, true, ts);
        snapshots.emplace_back(next_txn++, ts);
        break;
      case 2:
      case 3:
        if (!writers.empty()) {
          // May fail (another txn's copy, a freed page); both are states
          // the resolution paths must agree on.
          (void)versions_->ResolveForWrite(pages[pick(pages)].raw,
                                           TxnCtx(writers[pick(writers)]));
        }
        break;
      case 4:
        if (!writers.empty()) {
          size_t i = pick(writers);
          ASSERT_TRUE(versions_->CommitTxn(writers[i], ++ts).ok());
          writers.erase(writers.begin() + i);
        }
        break;
      case 5:
        if (!writers.empty()) {
          size_t i = pick(writers);
          ASSERT_TRUE(versions_->AbortTxn(writers[i]).ok());
          writers.erase(writers.begin() + i);
        }
        break;
      case 6:
        if (!snapshots.empty()) {
          size_t i = pick(snapshots);
          ASSERT_TRUE(versions_->CommitTxn(snapshots[i].first, 0).ok());
          snapshots.erase(snapshots.begin() + i);
        }
        break;
      case 7:
        if (!writers.empty()) {
          uint64_t txn = writers[pick(writers)];
          if (rng.Bernoulli(0.5)) {
            auto p = directory_->AllocLogicalPage();
            ASSERT_TRUE(p.ok());
            versions_->OnPageAllocated(txn, p->raw);
            pages.push_back(*p);
          } else {
            versions_->OnPageFreed(txn, pages[pick(pages)].raw);
          }
        }
        break;
      default:
        ASSERT_TRUE(versions_->SetPersistentSnapshot(ts).ok());
        break;
    }
    std::vector<ResolveContext> contexts = {ResolveContext{},
                                            TxnCtx(next_txn + 100)};
    for (uint64_t txn : writers) contexts.push_back(TxnCtx(txn));
    for (const auto& [txn, snap] : snapshots) {
      contexts.push_back(TxnCtx(txn, true, snap));
    }
    for (Xptr page : pages) {
      for (const ResolveContext& ctx : contexts) {
        ASSERT_TRUE(SameResolution(versions_->Resolve(page.raw, ctx),
                                   versions_->ResolveLocked(page.raw, ctx)))
            << "step " << step << " page " << page.ToString() << " txn "
            << ctx.txn_id << " snapshot " << ctx.snapshot_ts;
        ++compared;
      }
    }
  }
  for (uint64_t txn : writers) ASSERT_TRUE(versions_->AbortTxn(txn).ok());
  for (const auto& [txn, snap] : snapshots) {
    ASSERT_TRUE(versions_->CommitTxn(txn, 0).ok());
  }
  EXPECT_GT(compared, 10000);
}

// Lock-free resolution under concurrency; run under -DSEDNA_SANITIZE=thread.
// Writer threads run copy-on-write, commit and abort cycles on their own
// pages. After each write, Resolve through the writer's own context must
// return its working copy (the owner always sees its flag); after a commit
// or abort, a system read must return the page that is now committed.
// Reader threads resolve every page with txn_id 0 and with a read-write
// context of their own that never writes; every read must succeed. A
// directory thread allocates and frees other pages meanwhile.
TEST_F(VersionManagerTest, LockFreeResolveStress) {
  constexpr int kWriters = 2;
  constexpr int kPagesPerWriter = 4;
  constexpr int kReaders = 2;
  constexpr int kCycles = 300;
  std::vector<std::vector<Xptr>> owned(kWriters);
  std::vector<Xptr> all;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPagesPerWriter; ++i) {
      auto p = directory_->AllocLogicalPage();
      ASSERT_TRUE(p.ok());
      owned[w].push_back(*p);
      all.push_back(*p);
    }
  }
  std::atomic<uint64_t> next_txn{1};
  std::atomic<uint64_t> next_ts{1};
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  auto fail = [&] { errors.fetch_add(1); };

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rng(7 + w);
      std::map<uint64_t, PhysPageId> committed;
      for (Xptr p : owned[w]) {
        auto ppn = versions_->Resolve(p.raw, ResolveContext{});
        if (!ppn.ok()) return fail();
        committed[p.raw] = *ppn;
      }
      for (int cycle = 0; cycle < kCycles; ++cycle) {
        uint64_t txn = next_txn.fetch_add(1);
        versions_->BeginTxn(txn, false, 0);
        std::map<uint64_t, PhysPageId> copies;
        for (Xptr p : owned[w]) {
          if (!rng.Bernoulli(0.5)) continue;
          auto wt = versions_->ResolveForWrite(p.raw, TxnCtx(txn));
          if (!wt.ok()) return fail();
          copies[p.raw] = wt->ppn;
          auto own = versions_->Resolve(p.raw, TxnCtx(txn));
          if (!own.ok() || *own != wt->ppn) fail();
        }
        if (rng.Bernoulli(0.7)) {
          if (!versions_->CommitTxn(txn, next_ts.fetch_add(1)).ok()) fail();
          for (const auto& [lpid, ppn] : copies) committed[lpid] = ppn;
        } else if (!versions_->AbortTxn(txn).ok()) {
          fail();
        }
        for (const auto& [lpid, ppn] : committed) {
          auto now = versions_->Resolve(lpid, ResolveContext{});
          if (!now.ok() || *now != ppn) fail();
          auto other = versions_->Resolve(lpid, TxnCtx(txn));  // txn ended
          if (!other.ok() || *other != ppn) fail();
        }
      }
    });
  }
  std::vector<std::thread> others;
  for (int r = 0; r < kReaders; ++r) {
    others.emplace_back([&, r] {
      Random rng(70 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t txn = next_txn.fetch_add(1);
        versions_->BeginTxn(txn, false, 0);
        for (int i = 0; i < 50; ++i) {
          Xptr p = all[rng.Uniform(all.size())];
          if (!versions_->Resolve(p.raw, ResolveContext{}).ok()) fail();
          if (!versions_->Resolve(p.raw, TxnCtx(txn)).ok()) fail();
        }
        if (!versions_->CommitTxn(txn, next_ts.fetch_add(1)).ok()) fail();
      }
    });
  }
  others.emplace_back([&] {
    std::vector<Xptr> mine;
    while (!stop.load(std::memory_order_relaxed)) {
      auto p = directory_->AllocLogicalPage();
      if (!p.ok()) return fail();
      mine.push_back(*p);
      if (mine.size() > 4) {
        if (!directory_->FreeLogicalPage(mine.front()).ok()) fail();
        mine.erase(mine.begin());
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : others) t.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace sedna
