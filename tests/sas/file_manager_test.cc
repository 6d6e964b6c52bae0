#include "sas/file_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "common/fault_vfs.h"

namespace sedna {
namespace {

class FileManagerTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return ::testing::TempDir() + "fm_" + name + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".sedna";
  }
};

TEST_F(FileManagerTest, CreateThenOpen) {
  std::string path = Path("create");
  {
    FileManager fm;
    ASSERT_TRUE(fm.Create(path).ok());
    EXPECT_TRUE(fm.is_open());
    EXPECT_EQ(fm.page_count(), 2u);  // two master slots
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  EXPECT_EQ(fm.page_count(), 2u);
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
  uint32_t pages_after_first = fm.page_count();
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
  EXPECT_EQ(fm.page_count(), 2 * (pages_after_first - 2) + 2);
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

// --- free-list crash staleness ---------------------------------------------

TEST_F(FileManagerTest, StaleFreeListHeadIsAbandonedNotHandedOut) {
  FileManager fm;
  ASSERT_TRUE(fm.Create(Path("stale_free")).ok());
  auto a = fm.AllocPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(fm.FreePage(*a).ok());
  // Model a crash-reverted master whose free list points at a page that was
  // since reallocated and overwritten with live data: clobber the stamp.
  char live[kPageSize];
  std::memset(live, 0x5a, sizeof(live));
  ASSERT_TRUE(fm.WritePage(*a, live).ok());
  // Allocation must detect the missing free stamp and grow the file
  // instead of handing the live page out for a second use.
  auto b = fm.AllocPage();
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*b, *a);
  // The live page is untouched.
  char check[kPageSize];
  ASSERT_TRUE(fm.ReadPage(*a, check).ok());
  EXPECT_EQ(std::memcmp(check, live, kPageSize), 0);
}

// The subtler staleness: a page re-freed AFTER the recovered master became
// durable carries a stamp that is internally valid (magic, self, CRC all
// check out) but whose next link points into a newer free list — here, at a
// page that is live in the recovered image. Only the epoch tag can tell
// this stamp from a legitimate one. Found by the concurrent-commit torture
// test: following the stale link double-allocated live pages after crash
// recovery.
TEST_F(FileManagerTest, ReFreedStampFromDeadIncarnationIsRejected) {
  FaultInjectingVfs vfs;
  PhysPageId a = 0, b = 0;
  {
    FileManager fm;
    fm.set_vfs(&vfs);
    ASSERT_TRUE(fm.Create("/mem/db").ok());
    auto pa = fm.AllocPage();
    auto pb = fm.AllocPage();
    ASSERT_TRUE(pa.ok() && pb.ok());
    a = *pa;
    b = *pb;
    ASSERT_TRUE(fm.FreePage(a).ok());
    // Durable master: free list = {a}, b live.
    ASSERT_TRUE(fm.WriteMaster().ok());
    // The doomed incarnation continues: reuses a, then frees b and re-frees
    // a, so a's fresh stamp links to b. A checkpoint-style sync makes the
    // stamps durable — but the next master write never happens.
    auto re = fm.AllocPage();
    ASSERT_TRUE(re.ok());
    ASSERT_EQ(*re, a);
    ASSERT_TRUE(fm.FreePage(b).ok());
    ASSERT_TRUE(fm.FreePage(a).ok());
    ASSERT_TRUE(fm.Sync().ok());
    vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
    EXPECT_FALSE(fm.Sync().ok());  // trips the crash; teardown writes fail
  }
  vfs.Recover();
  vfs.ClearFaults();
  // Recovery: the master says free list = {a} and b is live, but a's
  // on-disk stamp says "next: b". The stamp's epoch equals the recovered
  // master's sequence, so allocation must abandon the list and grow the
  // file instead of handing out b for a second use.
  FileManager fm;
  fm.set_vfs(&vfs);
  ASSERT_TRUE(fm.Open("/mem/db").ok());
  auto c = fm.AllocPage();
  auto d = fm.AllocPage();
  ASSERT_TRUE(c.ok() && d.ok());
  EXPECT_NE(*c, b);
  EXPECT_NE(*d, b);
}

}  // namespace
}  // namespace sedna
