#include "sas/file_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <set>
#include <vector>

#include "common/coding.h"
#include "common/fault_vfs.h"
#include "tests/common/test_paths.h"

namespace sedna {
namespace {

class FileManagerTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return TestTempPath("fm_" + name + "_" +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
           ".sedna";
  }
};

TEST_F(FileManagerTest, CreateThenOpen) {
  std::string path = Path("create");
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    EXPECT_TRUE(fm.is_open());
    EXPECT_EQ(fm.master().page_count, 2u);  // two master slots
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  EXPECT_EQ(fm.master().page_count, 2u);
}

TEST_F(FileManagerTest, OpenMissingFileFails) {
  FileManager fm;
  Status st = fm.Open(Path("missing"));
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST_F(FileManagerTest, AllocWriteReadPage) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("rw")).ok());
  auto ppn = fm.AllocPage();
  ASSERT_TRUE(ppn.ok());
  char out[kPageSize];
  std::memset(out, 0xab, sizeof(out));
  ASSERT_TRUE(fm.WritePage(*ppn, out).ok());
  char in[kPageSize];
  ASSERT_TRUE(fm.ReadPage(*ppn, in).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST_F(FileManagerTest, ReadOutOfRangeFails) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("oob")).ok());
  char buf[kPageSize] = {};
  EXPECT_EQ(fm.ReadPage(99, buf).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fm.WritePage(99, buf).code(), StatusCode::kInvalidArgument);
  // ReadMetaBlob reads through the locked path, which shares the check.
  EXPECT_EQ(fm.ReadMetaBlob(99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FileManagerTest, PageIoOnClosedFileFails) {
  FileManager fm;
  char buf[kPageSize] = {};
  EXPECT_EQ(fm.ReadPage(2, buf).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fm.Create(Path("closed")).ok());
  auto ppn = fm.AllocPage();
  ASSERT_TRUE(ppn.ok());
  ASSERT_TRUE(fm.Close().ok());
  EXPECT_EQ(fm.ReadPage(*ppn, buf).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fm.WritePage(*ppn, buf).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fm.ReadMetaBlob(*ppn).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FileManagerTest, FreeListReusesPages) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("free")).ok());
  auto a = fm.AllocPage();
  auto b = fm.AllocPage();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(fm.FreePage(*a).ok());
  auto c = fm.AllocPage();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // reused
  auto d = fm.AllocPage();
  ASSERT_TRUE(d.ok());
  EXPECT_NE(*d, *b);  // fresh growth
}

TEST_F(FileManagerTest, FreeMasterPageRejected) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("master")).ok());
  EXPECT_FALSE(fm.FreePage(0).ok());
  EXPECT_FALSE(fm.FreePage(1).ok());
}

TEST_F(FileManagerTest, MasterRecordSurvivesReopen) {
  std::string path = Path("mrec");
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    MasterRecord m = fm.master();
    m.checkpoint_lsn = 777;
    m.next_timestamp = 42;
    fm.set_master(m);
    ASSERT_TRUE(fm.WriteMaster().ok());
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  EXPECT_EQ(fm.master().checkpoint_lsn, 777u);
  EXPECT_EQ(fm.master().next_timestamp, 42u);
}

TEST_F(FileManagerTest, MasterAlternatesSlotsAndPicksNewest) {
  std::string path = Path("slots");
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    for (int i = 0; i < 5; ++i) {
      MasterRecord m = fm.master();
      m.checkpoint_lsn = static_cast<uint64_t>(i);
      fm.set_master(m);
      ASSERT_TRUE(fm.WriteMaster().ok());
    }
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  EXPECT_EQ(fm.master().checkpoint_lsn, 4u);
}

TEST_F(FileManagerTest, MetaBlobRoundTrip) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("blob")).ok());
  std::string blob(50000, 'q');
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>(i % 251);
  auto head = fm.WriteMetaBlob(blob);
  ASSERT_TRUE(head.ok());
  auto back = fm.ReadMetaBlob(*head);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);
}

TEST_F(FileManagerTest, MetaBlobRewriteReusesFreedChain) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("blob2")).ok());
  auto head1 = fm.WriteMetaBlob(std::string(40000, 'a'));
  ASSERT_TRUE(head1.ok());
  uint32_t pages_after_first = fm.master().page_count;
  // Checkpoint-style rewrite: the new chain goes into fresh pages first
  // (the old chain must stay intact until the new master is durable), then
  // the old chain is freed; the following rewrite reuses those pages.
  auto head2 = fm.WriteMetaBlob(std::string(40000, 'b'));
  ASSERT_TRUE(head2.ok());
  ASSERT_TRUE(fm.FreeMetaBlob(*head1).ok());
  auto head3 = fm.WriteMetaBlob(std::string(40000, 'c'));
  ASSERT_TRUE(head3.ok());
  ASSERT_TRUE(fm.FreeMetaBlob(*head2).ok());
  // Steady state: each rewrite fits in the pages freed by the previous one.
  EXPECT_EQ(fm.master().page_count, 2 * (pages_after_first - 2) + 2);
  auto back = fm.ReadMetaBlob(*head3);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, std::string(40000, 'c'));
}

TEST_F(FileManagerTest, WriteMetaBlobLeavesOldChainIntact) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("blob4")).ok());
  auto head1 = fm.WriteMetaBlob(std::string(40000, 'a'));
  ASSERT_TRUE(head1.ok());
  auto head2 = fm.WriteMetaBlob(std::string(40000, 'b'));
  ASSERT_TRUE(head2.ok());
  // Until the caller frees it, the superseded chain must still read back —
  // a crash before the new master is durable recovers through it.
  auto old_back = fm.ReadMetaBlob(*head1);
  ASSERT_TRUE(old_back.ok());
  EXPECT_EQ(*old_back, std::string(40000, 'a'));
}

TEST_F(FileManagerTest, EmptyMetaBlob) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("blob3")).ok());
  auto back = fm.ReadMetaBlob(kInvalidPhysPage);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

// --- master-record corruption ----------------------------------------------

// The master magic 0x5ed0a010, little-endian, as it appears on disk.
constexpr char kMasterMagicBytes[4] = {'\x10', '\xa0', '\xd0', '\x5e'};

void CorruptSlot(const std::string& path, PhysPageId slot) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(slot) * kPageSize);
  // Zero the header: magic, crc, len and the start of the payload.
  char zeros[16] = {};
  f.write(zeros, sizeof(zeros));
}

std::string RawSlotPrefix(const std::string& path, PhysPageId slot, size_t n) {
  std::ifstream f(path, std::ios::binary);
  f.seekg(static_cast<std::streamoff>(slot) * kPageSize);
  std::string bytes(n, '\0');
  f.read(bytes.data(), static_cast<std::streamsize>(n));
  return bytes;
}

TEST_F(FileManagerTest, CorruptMasterSlotPickedOverAndRepaired) {
  std::string path = Path("corrupt_slot");
  uint64_t surviving_lsn = 0;
  PhysPageId newest_slot = 0;
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    MasterRecord m = fm.master();
    m.checkpoint_lsn = 1234;
    fm.set_master(m);
    ASSERT_TRUE(fm.WriteMaster().ok());
    surviving_lsn = 1234;
    // Close bumps the sequence once more; compute where the newest copy is.
    ASSERT_TRUE(fm.Close().ok());
  }
  {
    FileManager fm;
    ASSERT_TRUE(fm.Open(path).ok());
    newest_slot = fm.master().sequence % 2;
    ASSERT_TRUE(fm.Close().ok());
  }
  // Closing again bumped the sequence; recompute before corrupting.
  newest_slot = (newest_slot + 1) % 2;
  CorruptSlot(path, newest_slot);
  ASSERT_NE(RawSlotPrefix(path, newest_slot, 4),
            std::string(kMasterMagicBytes, 4));

  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  // The survivor was picked: its state (older sequence, same lsn) is live.
  EXPECT_EQ(fm.master().checkpoint_lsn, surviving_lsn);
  // And the corrupt slot was rewritten from the survivor: magic is back.
  EXPECT_EQ(RawSlotPrefix(path, newest_slot, 4),
            std::string(kMasterMagicBytes, 4));
}

TEST_F(FileManagerTest, RepairedSlotIsValidAfterOtherSlotDies) {
  std::string path = Path("repair_valid");
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    MasterRecord m = fm.master();
    m.checkpoint_lsn = 77;
    fm.set_master(m);
    ASSERT_TRUE(fm.WriteMaster().ok());
  }
  CorruptSlot(path, 0);
  {
    // Open repairs slot 0 from slot 1 and close rewrites one slot.
    FileManager fm;
    ASSERT_TRUE(fm.Open(path).ok());
    EXPECT_EQ(fm.master().checkpoint_lsn, 77u);
  }
  // Kill slot 1: the file must still open through the repaired slot 0.
  CorruptSlot(path, 1);
  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  EXPECT_EQ(fm.master().checkpoint_lsn, 77u);
}

TEST_F(FileManagerTest, BothSlotsCorruptFailsToOpen) {
  std::string path = Path("both_corrupt");
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
  }
  CorruptSlot(path, 0);
  CorruptSlot(path, 1);
  FileManager fm;
  EXPECT_EQ(fm.Open(path).code(), StatusCode::kCorruption);
}

// --- the free list and the master record -----------------------------------

TEST_F(FileManagerTest, AllocAndFreeFromTheListIssueNoIo) {
  FaultInjectingVfs vfs;
  FileManager fm;
  fm.set_vfs(&vfs);
  ASSERT_TRUE(fm.Create("/mem/db").ok());
  auto first = fm.AllocPage();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(fm.FreePage(*first).ok());
  const uint64_t ops = vfs.op_count();
  for (int i = 0; i < 1000; ++i) {
    auto ppn = fm.AllocPage();
    ASSERT_TRUE(ppn.ok());
    EXPECT_EQ(*ppn, *first);
    ASSERT_TRUE(fm.FreePage(*ppn).ok());
  }
  EXPECT_EQ(vfs.op_count(), ops);
}

TEST_F(FileManagerTest, FreeListSurvivesReopenInLifoOrder) {
  std::string path = Path("lifo");
  std::vector<PhysPageId> pages;
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    for (int i = 0; i < 6; ++i) pages.push_back(*fm.AllocPage());
    for (PhysPageId ppn : {pages[4], pages[1], pages[3]}) {
      ASSERT_TRUE(fm.FreePage(ppn).ok());
    }
    ASSERT_TRUE(fm.Close().ok());
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  // Close took the newest free page to hold the list; the rest come back
  // newest first.
  EXPECT_EQ(fm.FreePages(), (std::vector<PhysPageId>{pages[4], pages[1]}));
  EXPECT_EQ(*fm.AllocPage(), pages[1]);
  EXPECT_EQ(*fm.AllocPage(), pages[4]);
  EXPECT_TRUE(fm.FreePages().empty());
}

// A crash after a master write recovers exactly the list saved with that
// master, whatever the dead incarnation allocated, freed or wrote since, and
// hands out no page twice: neither a page live at that master nor the chain
// holding its list. Replaces the stamped free pages, whose stale links a
// crash could leave behind (the torture suite once double-allocated live
// pages that way).
TEST_F(FileManagerTest, CrashAfterMasterWriteRecoversTheSavedList) {
  FaultInjectingVfs vfs;
  std::vector<PhysPageId> saved;
  std::set<PhysPageId> live;
  {
    FileManager fm;
    fm.set_vfs(&vfs);
    ASSERT_TRUE(fm.Create("/mem/db").ok());
    std::vector<PhysPageId> pages;
    for (int i = 0; i < 12; ++i) pages.push_back(*fm.AllocPage());
    for (size_t i = 0; i < pages.size(); ++i) {
      if (i % 3 == 0) {
        ASSERT_TRUE(fm.FreePage(pages[i]).ok());
      } else {
        live.insert(pages[i]);
      }
    }
    ASSERT_TRUE(fm.WriteMaster().ok());
    saved = fm.FreePages();
    ASSERT_FALSE(saved.empty());
    // The doomed incarnation reuses a listed page, frees live ones, grows
    // the file and writes, but never writes another master.
    auto reused = fm.AllocPage();
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(fm.FreePage(pages[1]).ok());
    ASSERT_TRUE(fm.FreePage(*reused).ok());
    ASSERT_TRUE(fm.FreePage(pages[2]).ok());
    char junk[kPageSize];
    std::memset(junk, 0x5a, sizeof(junk));
    for (int i = 0; i < 8; ++i) {
      auto p = fm.AllocPage();
      ASSERT_TRUE(p.ok());
      ASSERT_TRUE(fm.WritePage(*p, junk).ok());
    }
    vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
    EXPECT_FALSE(fm.Sync().ok());  // trips the crash; teardown writes fail
  }
  vfs.Recover();
  vfs.ClearFaults();
  FileManager fm;
  fm.set_vfs(&vfs);
  ASSERT_TRUE(fm.Open("/mem/db").ok());
  EXPECT_EQ(fm.FreePages(), saved);
  const PhysPageId chain = fm.master().free_list_blob;
  ASSERT_NE(chain, kInvalidPhysPage);
  std::set<PhysPageId> handed;
  for (size_t i = 0; i < saved.size() + 4; ++i) {
    auto p = fm.AllocPage();
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(handed.insert(*p).second) << "page " << *p << " twice";
    EXPECT_EQ(live.count(*p), 0u) << "live page " << *p << " handed out";
    EXPECT_NE(*p, chain);
  }
}

// A crash anywhere inside a master write recovers one of the two lists,
// each with its chain intact.
TEST_F(FileManagerTest, CrashInsideMasterWriteRecoversOneOfTheTwoLists) {
  // Writes a master saving `before`, then frees more pages.
  auto prepare = [](FileManager* fm, std::vector<PhysPageId>* before) {
    ASSERT_TRUE(fm->Create("/mem/db").ok());
    std::vector<PhysPageId> pages;
    for (int i = 0; i < 8; ++i) pages.push_back(*fm->AllocPage());
    for (int i = 0; i < 8; i += 2) ASSERT_TRUE(fm->FreePage(pages[i]).ok());
    ASSERT_TRUE(fm->WriteMaster().ok());
    *before = fm->FreePages();
    for (int i = 1; i < 8; i += 2) ASSERT_TRUE(fm->FreePage(pages[i]).ok());
  };
  std::vector<PhysPageId> before, after;
  {
    FaultInjectingVfs vfs;
    FileManager fm;
    fm.set_vfs(&vfs);
    prepare(&fm, &before);
    ASSERT_TRUE(fm.WriteMaster().ok());
    after = fm.FreePages();
  }
  ASSERT_NE(before, after);
  for (CrashStyle style : {CrashStyle::kLoseUnsynced, CrashStyle::kTornWrites}) {
    for (uint64_t k = 0;; ++k) {
      FaultInjectingVfs vfs(k);
      bool crashed = false;
      {
        FileManager fm;
        fm.set_vfs(&vfs);
        std::vector<PhysPageId> unused;
        prepare(&fm, &unused);
        vfs.ScheduleCrashAtOp(vfs.op_count() + k, style);
        crashed = !fm.WriteMaster().ok();
      }
      if (!crashed) break;  // k is past the write's last op
      vfs.Recover();
      vfs.ClearFaults();
      FileManager fm;
      fm.set_vfs(&vfs);
      ASSERT_TRUE(fm.Open("/mem/db").ok()) << "crash at op +" << k;
      std::vector<PhysPageId> recovered = fm.FreePages();
      EXPECT_TRUE(recovered == before || recovered == after)
          << "crash at op +" << k;
      EXPECT_TRUE(fm.CheckFreeList({}).ok()) << "crash at op +" << k;
    }
  }
}

TEST_F(FileManagerTest, CheckFreeListReportsBadEntries) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("check")).ok());
  std::vector<PhysPageId> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(*fm.AllocPage());
  ASSERT_TRUE(fm.FreePage(pages[0]).ok());
  ASSERT_TRUE(fm.FreePage(pages[1]).ok());
  ASSERT_TRUE(fm.WriteMaster().ok());  // one of them now holds the list
  EXPECT_TRUE(fm.CheckFreeList({pages[2], pages[3]}).ok());
  EXPECT_EQ(fm.CheckFreeList({fm.FreePages().front()}).code(),
            StatusCode::kCorruption);
  // A chain the master points at.
  const PhysPageId chain = fm.master().free_list_blob;
  ASSERT_TRUE(fm.FreePage(chain).ok());
  EXPECT_EQ(fm.CheckFreeList({}).code(), StatusCode::kCorruption);
  ASSERT_EQ(*fm.AllocPage(), chain);
  // A page listed twice.
  ASSERT_TRUE(fm.FreePage(pages[2]).ok());
  ASSERT_TRUE(fm.FreePage(pages[2]).ok());
  EXPECT_EQ(fm.CheckFreeList({}).code(), StatusCode::kCorruption);
}

// Format 1 kept the free list in stamped free pages; its master's
// free-list field was a page, not a saved list. Such a file is refused.
TEST_F(FileManagerTest, OldFormatFileIsRefusedNamingTheFormat) {
  std::string payload;
  PutFixed64(&payload, 7);                 // sequence
  PutFixed32(&payload, 3);                 // page_count
  PutFixed32(&payload, 2);                 // free-list head page
  PutFixed32(&payload, kInvalidPhysPage);  // directory
  PutFixed32(&payload, kInvalidPhysPage);  // catalog
  PutFixed64(&payload, 0);                 // checkpoint lsn
  PutFixed64(&payload, 1);                 // next timestamp
  std::string page;
  page.append(kMasterMagicBytes, 4);
  PutFixed32(&page, Crc32(payload.data(), payload.size()));
  PutFixed32(&page, static_cast<uint32_t>(payload.size()));
  page += payload;
  page.resize(kPageSize, '\0');
  std::string path = Path("format1");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << page << page << std::string(kPageSize, '\0');
  }
  FileManager fm;
  Status st = fm.Open(path);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("format 1"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(fm.is_open());
}

}  // namespace
}  // namespace sedna
