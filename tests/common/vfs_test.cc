#include "common/vfs.h"

#include <gtest/gtest.h>

#include <string>

#include "common/fault_vfs.h"
#include "tests/common/test_paths.h"

namespace sedna {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath("vfs_" + name) + ".bin";
}

// Reads the whole file through `vfs`.
std::string Slurp(Vfs* vfs, const std::string& path) {
  auto file = vfs->Open(path, OpenMode::kReadOnly);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  auto size = (*file)->Size();
  EXPECT_TRUE(size.ok());
  std::string out(*size, '\0');
  if (*size > 0) {
    EXPECT_TRUE((*file)->Read(0, out.size(), out.data()).ok());
  }
  return out;
}

// --- default (stdio + fsync) vfs ---------------------------------------------

TEST(StdioVfsTest, WriteReadRoundTrip) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("roundtrip");
  {
    auto file = vfs->Open(path, OpenMode::kCreate);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_TRUE((*file)->Write(0, "hello world", 11).ok());
    ASSERT_TRUE((*file)->Sync().ok());
    auto size = (*file)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 11u);
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(Slurp(vfs, path), "hello world");
  ASSERT_TRUE(vfs->Remove(path).ok());
}

TEST(StdioVfsTest, WriteAtOffsetExtendsFile) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("offset");
  auto file = vfs->Open(path, OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(4, "tail", 4).ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 8u);
  char buf[4];
  ASSERT_TRUE((*file)->Read(4, 4, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "tail");
  ASSERT_TRUE(vfs->Remove(path).ok());
}

TEST(StdioVfsTest, AppendWritesAtEnd) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("append");
  {
    auto file = vfs->Open(path, OpenMode::kCreate);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("abc", 3).ok());
  }
  {
    auto file = vfs->Open(path, OpenMode::kAppend);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("def", 3).ok());
  }
  EXPECT_EQ(Slurp(vfs, path), "abcdef");
  ASSERT_TRUE(vfs->Remove(path).ok());
}

TEST(StdioVfsTest, TruncateShrinks) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("truncate");
  auto file = vfs->Open(path, OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "0123456789", 10).ok());
  ASSERT_TRUE((*file)->Truncate(4).ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u);
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(Slurp(vfs, path), "0123");
  ASSERT_TRUE(vfs->Remove(path).ok());
}

TEST(StdioVfsTest, ShortReadFails) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("short");
  auto file = vfs->Open(path, OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "ab", 2).ok());
  char buf[16];
  EXPECT_FALSE((*file)->Read(0, 16, buf).ok());
  ASSERT_TRUE(vfs->Remove(path).ok());
}

TEST(StdioVfsTest, OpenMissingFileFails) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("missing");
  (void)vfs->Remove(path);
  EXPECT_FALSE(vfs->Open(path, OpenMode::kReadWrite).ok());
  EXPECT_FALSE(vfs->Open(path, OpenMode::kReadOnly).ok());
}

TEST(StdioVfsTest, RemoveIsIdempotent) {
  Vfs* vfs = Vfs::Default();
  std::string path = TempPath("remove");
  EXPECT_TRUE(vfs->Remove(path).ok());  // never existed
  {
    auto file = vfs->Open(path, OpenMode::kCreate);
    ASSERT_TRUE(file.ok());
  }
  EXPECT_TRUE(vfs->Remove(path).ok());
  EXPECT_TRUE(vfs->Remove(path).ok());  // already gone
}

TEST(StdioVfsTest, RenameReplacesTarget) {
  Vfs* vfs = Vfs::Default();
  std::string from = TempPath("rename_from");
  std::string to = TempPath("rename_to");
  {
    auto f = vfs->Open(from, OpenMode::kCreate);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(0, "fresh", 5).ok());
  }
  {
    auto f = vfs->Open(to, OpenMode::kCreate);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(0, "stale", 5).ok());
  }
  ASSERT_TRUE(vfs->Rename(from, to).ok());
  EXPECT_EQ(Slurp(vfs, to), "fresh");
  EXPECT_FALSE(vfs->Open(from, OpenMode::kReadOnly).ok());
  EXPECT_FALSE(vfs->Rename(from, to).ok());  // source gone
  ASSERT_TRUE(vfs->Remove(to).ok());
}

TEST(StdioVfsTest, ListFilesReturnsSortedPrefixMatches) {
  Vfs* vfs = Vfs::Default();
  std::string prefix = TestTempPath("vfs_list") + "_";
  for (const char* suffix : {"b", "a", "c"}) {
    auto f = vfs->Open(prefix + suffix, OpenMode::kCreate);
    ASSERT_TRUE(f.ok());
  }
  auto listed = vfs->ListFiles(prefix);
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  ASSERT_EQ(listed->size(), 3u);
  EXPECT_EQ((*listed)[0], prefix + "a");
  EXPECT_EQ((*listed)[1], prefix + "b");
  EXPECT_EQ((*listed)[2], prefix + "c");
  // An unrelated prefix — or one inside a missing directory — matches
  // nothing but is not an error.
  auto none = vfs->ListFiles(prefix + "zzz");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  auto no_dir = vfs->ListFiles("/no/such/dir/at-all-");
  ASSERT_TRUE(no_dir.ok());
  EXPECT_TRUE(no_dir->empty());
  for (const char* suffix : {"a", "b", "c"}) {
    ASSERT_TRUE(vfs->Remove(prefix + suffix).ok());
  }
}

// --- fault-injecting vfs -----------------------------------------------------

TEST(FaultVfsTest, RenameIsCountedAndAtomicAcrossCrash) {
  FaultInjectingVfs vfs;
  {
    auto f = vfs.Open("/mem/tmp", OpenMode::kCreate);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Write(0, "payload", 7).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  // Crash exactly on the rename op: the publish must be all-or-nothing.
  vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
  EXPECT_EQ(vfs.Rename("/mem/tmp", "/mem/final").code(),
            StatusCode::kIOError);
  vfs.Recover();
  bool tmp_exists = vfs.FileExists("/mem/tmp");
  bool final_exists = vfs.FileExists("/mem/final");
  EXPECT_NE(tmp_exists, final_exists) << "half-renamed state after crash";
  // After recovery the rename goes through and carries the durable bytes.
  if (tmp_exists) {
    ASSERT_TRUE(vfs.Rename("/mem/tmp", "/mem/final").ok());
  }
  EXPECT_EQ(Slurp(&vfs, "/mem/final"), "payload");
}

TEST(FaultVfsTest, ListFilesSeesLiveFilesButFailsWhileCrashed) {
  FaultInjectingVfs vfs;
  { auto f = vfs.Open("/mem/seg-2", OpenMode::kCreate); ASSERT_TRUE(f.ok()); }
  { auto f = vfs.Open("/mem/seg-1", OpenMode::kCreate); ASSERT_TRUE(f.ok()); }
  { auto f = vfs.Open("/mem/other", OpenMode::kCreate); ASSERT_TRUE(f.ok()); }
  auto listed = vfs.ListFiles("/mem/seg-");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0], "/mem/seg-1");
  EXPECT_EQ((*listed)[1], "/mem/seg-2");
  // Trip the crash on a counted op, then everything — including creates
  // and listings — fails until recovery.
  vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
  {
    auto f = vfs.Open("/mem/other", OpenMode::kReadWrite);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE((*f)->Sync().ok());
  }
  EXPECT_TRUE(vfs.crashed());
  { auto f = vfs.Open("/mem/seg-3", OpenMode::kCreate); EXPECT_FALSE(f.ok()); }
  EXPECT_FALSE(vfs.ListFiles("/mem/seg-").ok());
  vfs.Recover();
  auto after = vfs.ListFiles("/mem/seg-");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);  // the crashed create never happened
}

TEST(FaultVfsTest, InMemoryRoundTrip) {
  FaultInjectingVfs vfs;
  auto file = vfs.Open("/mem/a", OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "data", 4).ok());
  ASSERT_TRUE((*file)->Append("+tail", 5).ok());
  EXPECT_EQ(Slurp(&vfs, "/mem/a"), "data+tail");
  EXPECT_TRUE(vfs.FileExists("/mem/a"));
  auto size = vfs.FileSize("/mem/a");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 9u);
  ASSERT_TRUE(vfs.Remove("/mem/a").ok());
  EXPECT_FALSE(vfs.FileExists("/mem/a"));
}

TEST(FaultVfsTest, ReadOnlyHandleRejectsWrites) {
  FaultInjectingVfs vfs;
  { auto f = vfs.Open("/mem/ro", OpenMode::kCreate); ASSERT_TRUE(f.ok()); }
  auto file = vfs.Open("/mem/ro", OpenMode::kReadOnly);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE((*file)->Write(0, "x", 1).ok());
  EXPECT_FALSE((*file)->Append("x", 1).ok());
  EXPECT_FALSE((*file)->Truncate(0).ok());
}

TEST(FaultVfsTest, CrashLosesUnsyncedData) {
  FaultInjectingVfs vfs;
  auto file = vfs.Open("/mem/f", OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "durable", 7).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Write(7, " volatile", 9).ok());

  vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
  EXPECT_EQ((*file)->Sync().code(), StatusCode::kIOError);
  EXPECT_TRUE(vfs.crashed());
  // Everything fails while crashed, including new opens.
  char b;
  EXPECT_FALSE((*file)->Read(0, 1, &b).ok());
  EXPECT_FALSE(vfs.Open("/mem/f", OpenMode::kReadOnly).ok());

  vfs.Recover();
  EXPECT_FALSE(vfs.crashed());
  EXPECT_EQ(Slurp(&vfs, "/mem/f"), "durable");
}

TEST(FaultVfsTest, RecoverWithoutCrashKeepsLiveContents) {
  FaultInjectingVfs vfs;
  auto file = vfs.Open("/mem/f", OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "never synced", 12).ok());
  vfs.Recover();  // no crash fired: a clean shutdown loses nothing
  EXPECT_EQ(Slurp(&vfs, "/mem/f"), "never synced");
}

TEST(FaultVfsTest, TornWritesKeepSyncedPrefixAndAreDeterministic) {
  auto run = [](uint64_t seed) {
    FaultInjectingVfs vfs(seed);
    auto file = vfs.Open("/mem/f", OpenMode::kCreate);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE((*file)->Write(0, "BASE", 4).ok());
    EXPECT_TRUE((*file)->Sync().ok());
    for (int i = 0; i < 8; ++i) {
      std::string chunk(16, static_cast<char>('a' + i));
      EXPECT_TRUE((*file)->Append(chunk.data(), chunk.size()).ok());
    }
    vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kTornWrites);
    EXPECT_FALSE((*file)->Sync().ok());
    vfs.Recover();
    return Slurp(&vfs, "/mem/f");
  };
  std::string a = run(42);
  std::string b = run(42);
  std::string c = run(43);
  // Same seed, same crash: byte-identical surviving image.
  EXPECT_EQ(a, b);
  // The synced prefix always survives torn writes.
  ASSERT_GE(a.size(), 4u);
  EXPECT_EQ(a.substr(0, 4), "BASE");
  ASSERT_GE(c.size(), 4u);
  EXPECT_EQ(c.substr(0, 4), "BASE");
}

TEST(FaultVfsTest, TransientFailureFailsExactlyOnce) {
  FaultInjectingVfs vfs;
  auto file = vfs.Open("/mem/f", OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  vfs.ScheduleTransientFailureAtOp(vfs.op_count());
  EXPECT_EQ((*file)->Write(0, "x", 1).code(), StatusCode::kIOError);
  // The retry of the same logical write succeeds.
  EXPECT_TRUE((*file)->Write(0, "x", 1).ok());
  EXPECT_FALSE(vfs.crashed());
  EXPECT_EQ(Slurp(&vfs, "/mem/f"), "x");
}

TEST(FaultVfsTest, StickyWriteErrorsHitOnlyMatchingFiles) {
  FaultInjectingVfs vfs;
  auto victim = vfs.Open("/mem/victim.dat", OpenMode::kCreate);
  auto other = vfs.Open("/mem/other.dat", OpenMode::kCreate);
  ASSERT_TRUE(victim.ok() && other.ok());
  ASSERT_TRUE((*victim)->Write(0, "seed", 4).ok());
  vfs.SetStickyErrorRates("victim", /*read_rate=*/0.0, /*write_rate=*/1.0);
  EXPECT_EQ((*victim)->Write(0, "y", 1).code(), StatusCode::kIOError);
  EXPECT_EQ((*victim)->Sync().code(), StatusCode::kIOError);
  // Reads on the victim and all I/O on other files stay healthy.
  char b;
  EXPECT_TRUE((*victim)->Read(0, 1, &b).ok());
  EXPECT_TRUE((*other)->Write(0, "z", 1).ok());
  vfs.ClearFaults();
  EXPECT_TRUE((*victim)->Write(0, "y", 1).ok());
}

TEST(FaultVfsTest, OpLogRecordsCountedOperations) {
  FaultInjectingVfs vfs;
  auto file = vfs.Open("/mem/f", OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  vfs.EnableOpLog(true);
  ASSERT_TRUE((*file)->Write(8, "abcd", 4).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  char buf[2];
  ASSERT_TRUE((*file)->Read(9, 2, buf).ok());
  auto log = vfs.TakeOpLog();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].kind, "write");
  EXPECT_EQ(log[0].offset, 8u);
  EXPECT_EQ(log[0].len, 4u);
  EXPECT_EQ(log[1].kind, "sync");
  EXPECT_EQ(log[2].kind, "read");
  EXPECT_EQ(log[2].offset, 9u);
  // TakeOpLog drains the log.
  EXPECT_TRUE(vfs.TakeOpLog().empty());
}

TEST(FaultVfsTest, CorruptByteFlipsLiveAndDurable) {
  FaultInjectingVfs vfs;
  auto file = vfs.Open("/mem/f", OpenMode::kCreate);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Write(0, "good", 4).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(vfs.CorruptByte("/mem/f", 0, 0xff).ok());
  std::string now = Slurp(&vfs, "/mem/f");
  EXPECT_NE(now[0], 'g');
  // The corruption is durable: it survives a crash + recovery.
  vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
  char b;
  EXPECT_FALSE((*file)->Read(0, 1, &b).ok());
  vfs.Recover();
  EXPECT_EQ(Slurp(&vfs, "/mem/f"), now);
}

TEST(FaultVfsTest, CreateIsImmediatelyDurable) {
  FaultInjectingVfs vfs;
  { auto f = vfs.Open("/mem/new", OpenMode::kCreate); ASSERT_TRUE(f.ok()); }
  vfs.ScheduleCrashAtOp(vfs.op_count(), CrashStyle::kLoseUnsynced);
  {
    auto f = vfs.Open("/mem/new", OpenMode::kReadWrite);
    ASSERT_TRUE(f.ok());
    EXPECT_FALSE((*f)->Sync().ok());  // trips the crash
  }
  vfs.Recover();
  EXPECT_TRUE(vfs.FileExists("/mem/new"));
  auto size = vfs.FileSize("/mem/new");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

}  // namespace
}  // namespace sedna
