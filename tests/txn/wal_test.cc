#include "txn/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fault_vfs.h"
#include "common/metrics.h"
#include "tests/common/sync_gate_vfs.h"
#include "tests/common/test_paths.h"
#include "txn/transaction.h"

namespace sedna {
namespace {

constexpr uint64_t kHdr = kWalSegmentHeaderSize;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestTempPath(std::string("wal_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
            ".log";
    ASSERT_TRUE(RemoveWalLog(path_).ok());
  }

  /// On-disk path of the segment starting at `start_lsn`. A record with
  /// LSN L inside it lives at file offset kHdr + (L - start_lsn).
  std::string Seg(uint64_t start_lsn) const {
    return WalSegmentFileName(path_, start_lsn);
  }

  std::string path_;
};

TEST_F(WalTest, AppendAndReadBack) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 7, "").ok());
  ASSERT_TRUE(
      writer.Append(WalRecordType::kUpdateStatement, 7, "UPDATE x").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 7, "").ok());
  ASSERT_TRUE(writer.Sync().ok());

  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kBegin);
  EXPECT_EQ((*records)[0].txn_id, 7u);
  EXPECT_EQ((*records)[1].type, WalRecordType::kUpdateStatement);
  EXPECT_EQ((*records)[1].payload, "UPDATE x");
  EXPECT_EQ((*records)[2].type, WalRecordType::kCommit);
}

TEST_F(WalTest, LsnsAreLogicalByteOffsets) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  auto lsn1 = writer.Append(WalRecordType::kBegin, 1, "");
  auto lsn2 = writer.Append(WalRecordType::kCommit, 1, "");
  ASSERT_TRUE(lsn1.ok() && lsn2.ok());
  EXPECT_EQ(*lsn1, 0u);  // LSNs exclude segment headers
  EXPECT_GT(*lsn2, *lsn1);
  EXPECT_EQ(writer.end_lsn(), *lsn2 + 17);  // 8 header + 9 body
  // The physical segment file carries the 16-byte header on top.
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(std::filesystem::file_size(Seg(0)), kHdr + writer.end_lsn());
}

TEST_F(WalTest, ReadFromLsnSkipsPrefix) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "").ok());
  uint64_t mid = writer.end_lsn();
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(writer.Sync().ok());
  auto records = ReadWal(path_, mid);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kCommit);
  EXPECT_EQ((*records)[0].lsn, mid);
}

TEST_F(WalTest, SurvivesReopenAndAppends) {
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "first").ok());
  }
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path_).ok());
    EXPECT_GT(writer.end_lsn(), 0u);
    ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "second").ok());
  }
  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
}

TEST_F(WalTest, TornTailIsCutOff) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "good").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(writer.Close().ok());
  // Simulate a torn write: append garbage that looks like a header.
  std::ofstream f(Seg(0), std::ios::binary | std::ios::app);
  f.write("\x40\x00\x00\x00\xde\xad\xbe\xefpartial", 15);
  f.close();
  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // garbage dropped
}

TEST_F(WalTest, CorruptMiddleStopsReplay) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "one").ok());
  uint64_t second = writer.end_lsn();
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "two").ok());
  ASSERT_TRUE(writer.Close().ok());
  // Flip a payload byte of the second record.
  std::fstream f(Seg(0), std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(kHdr + second) + 10);
  f.put('X');
  f.close();
  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST_F(WalTest, MissingFileYieldsNoRecords) {
  auto records = ReadWal(path_ + ".nope");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

// --- byte-level corruption ---------------------------------------------------

void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.get(b);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(b ^ 0xff));
}

TEST_F(WalTest, CrcByteFlipCutsTailAtThatRecord) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kUpdateStatement, 1, "stmt").ok());
  uint64_t third = writer.end_lsn();
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  // A byte inside the third record's CRC field.
  FlipByte(Seg(0), kHdr + third + 4);

  uint64_t valid_end = 0;
  auto records = ReadWal(path_, 0, nullptr, &valid_end);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);  // exactly the intact prefix
  EXPECT_EQ((*records)[1].payload, "stmt");
  EXPECT_EQ(valid_end, third);
}

TEST_F(WalTest, TruncationInsideLengthHeaderCutsCleanly) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "first").ok());
  uint64_t second = writer.end_lsn();
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "second").ok());
  ASSERT_TRUE(writer.Close().ok());

  // Tear mid-header: only 3 of the 4 length bytes made it to disk.
  std::filesystem::resize_file(Seg(0), kHdr + second + 3);

  uint64_t valid_end = 0;
  auto records = ReadWal(path_, 0, nullptr, &valid_end);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "first");
  EXPECT_EQ(valid_end, second);
}

TEST_F(WalTest, TruncationMidPayloadCutsCleanly) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "first").ok());
  uint64_t second = writer.end_lsn();
  ASSERT_TRUE(
      writer.Append(WalRecordType::kUpdateStatement, 1, "long payload").ok());
  ASSERT_TRUE(writer.Close().ok());

  // Header intact, payload torn: length promises more bytes than exist.
  std::filesystem::resize_file(Seg(0), kHdr + second + 8 + 4);

  uint64_t valid_end = 0;
  auto records = ReadWal(path_, 0, nullptr, &valid_end);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(valid_end, second);
}

TEST_F(WalTest, ValidEndCoversWholeCleanLog) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  uint64_t end = writer.end_lsn();
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
  uint64_t valid_end = 0;
  auto records = ReadWal(path_, 0, nullptr, &valid_end);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(valid_end, end);
}

TEST_F(WalTest, RecoveryReplaysExactlyTheIntactPrefix) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kUpdateStatement, 1, "S1").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 2, "").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kUpdateStatement, 2, "S2").ok());
  uint64_t txn2_commit = writer.end_lsn();
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 2, "").ok());
  ASSERT_TRUE(writer.Close().ok());

  // Corrupt txn 2's commit record.
  FlipByte(Seg(0), kHdr + txn2_commit + 5);

  std::vector<std::string> replayed;
  uint64_t valid_end = 0;
  ASSERT_TRUE(RecoverFromWal(
                  path_, 0,
                  [&](const std::string& stmt) {
                    replayed.push_back(stmt);
                    return Status::OK();
                  },
                  nullptr, nullptr, &valid_end)
                  .ok());
  // Txn 2's commit never became durable, so only S1 replays.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "S1");
  EXPECT_EQ(valid_end, txn2_commit);

  // Recovery truncates the torn tail; new appends are then reachable.
  ASSERT_TRUE(TruncateWalTail(path_, valid_end).ok());
  EXPECT_EQ(std::filesystem::file_size(Seg(0)), kHdr + valid_end);
  {
    WalWriter writer2;
    ASSERT_TRUE(writer2.Open(path_).ok());
    ASSERT_TRUE(writer2.Append(WalRecordType::kBegin, 3, "").ok());
    ASSERT_TRUE(writer2.Append(WalRecordType::kUpdateStatement, 3, "S3").ok());
    ASSERT_TRUE(writer2.Append(WalRecordType::kCommit, 3, "").ok());
    ASSERT_TRUE(writer2.Sync().ok());
  }
  replayed.clear();
  ASSERT_TRUE(RecoverFromWal(path_, 0,
                             [&](const std::string& stmt) {
                               replayed.push_back(stmt);
                               return Status::OK();
                             })
                  .ok());
  // Txn 2 lost its commit and stays dead; txn 3 committed after the cut.
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], "S1");
  EXPECT_EQ(replayed[1], "S3");
}

TEST_F(WalTest, LargePayloadRoundTrip) {
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  std::string big(200000, 'q');
  ASSERT_TRUE(writer.Append(WalRecordType::kUpdateStatement, 3, big).ok());
  ASSERT_TRUE(writer.Sync().ok());
  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, big);
}

// --- segment lifecycle -------------------------------------------------------

TEST_F(WalTest, RotationCreatesSegmentsAndReadSpansThem) {
  Counter* rotations = MetricsRegistry::Global().counter("wal.rotations");
  const uint64_t rotations0 = rotations->value();

  WalWriterOptions options;
  options.segment_bytes = 64;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_, options).ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(writer
                    .Append(WalRecordType::kUpdateStatement, 1,
                            "statement-" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(writer.Sync().ok());

  auto segments = writer.LiveSegments();
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 1u);
  EXPECT_EQ(rotations->value() - rotations0, segments->size() - 1);
  // Segments tile the LSN space with no gaps or overlaps.
  EXPECT_EQ(segments->front().start_lsn, 0u);
  for (size_t i = 0; i + 1 < segments->size(); ++i) {
    EXPECT_EQ((*segments)[i].end_lsn, (*segments)[i + 1].start_lsn);
  }
  EXPECT_EQ(segments->back().end_lsn, writer.end_lsn());

  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ((*records)[i].payload, "statement-" + std::to_string(i));
  }
}

TEST_F(WalTest, ReopenAfterRotationAppendsToNewestSegment) {
  WalWriterOptions options;
  options.segment_bytes = 1;  // every append seals the previous segment
  uint64_t end_before = 0;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path_, options).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "a").ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kUpdateStatement, 1, "b").ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "c").ok());
    ASSERT_TRUE(writer.Sync().ok());
    end_before = writer.end_lsn();
  }
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path_, options).ok());
    EXPECT_EQ(writer.end_lsn(), end_before);
    ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 2, "d").ok());
    ASSERT_TRUE(writer.Sync().ok());
  }
  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[3].payload, "d");
}

TEST_F(WalTest, ReadFromLsnSpansSegmentBoundary) {
  WalWriterOptions options;
  options.segment_bytes = 1;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_, options).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "a").ok());
  uint64_t from = writer.end_lsn();
  ASSERT_TRUE(writer.Append(WalRecordType::kUpdateStatement, 1, "b").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "c").ok());
  ASSERT_TRUE(writer.Sync().ok());
  auto records = ReadWal(path_, from);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].payload, "b");
  EXPECT_EQ((*records)[0].lsn, from);
  EXPECT_EQ((*records)[1].payload, "c");
}

TEST_F(WalTest, CorruptionInSealedSegmentIsRefused) {
  WalWriterOptions options;
  options.segment_bytes = 1;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_, options).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "aaaa").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "bbbb").ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  // Flip a payload byte of the record in the SEALED first segment. It was
  // fsynced before the second segment was created, so this cannot be a
  // crash artifact — recovery must refuse instead of silently dropping
  // committed history.
  FlipByte(Seg(0), kHdr + 10);
  auto records = ReadWal(path_);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, DamagedSegmentHeaderIsRefused) {
  WalWriterOptions options;
  options.segment_bytes = 1;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_, options).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "aaaa").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "bbbb").ok());
  ASSERT_TRUE(writer.Close().ok());
  FlipByte(Seg(0), 0);  // magic
  auto records = ReadWal(path_);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, RemoveSegmentsBelowRespectsBoundaries) {
  Counter* removed = MetricsRegistry::Global().counter("wal.segments_removed");
  const uint64_t removed0 = removed->value();

  WalWriterOptions options;
  options.segment_bytes = 1;
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_, options).ok());
  auto l0 = writer.Append(WalRecordType::kBegin, 1, "a");
  auto l1 = writer.Append(WalRecordType::kUpdateStatement, 1, "b");
  auto l2 = writer.Append(WalRecordType::kCommit, 1, "c");
  ASSERT_TRUE(l0.ok() && l1.ok() && l2.ok());
  ASSERT_TRUE(writer.Sync().ok());
  // Three segments: [l0,l1) [l1,l2) and the active one starting at l2.

  // An LSN inside the middle segment: only the first segment is wholly
  // below it, so only that one may go.
  ASSERT_TRUE(writer.RemoveSegmentsBelow(*l1 + 1).ok());
  EXPECT_FALSE(std::filesystem::exists(Seg(*l0)));
  EXPECT_TRUE(std::filesystem::exists(Seg(*l1)));
  EXPECT_TRUE(std::filesystem::exists(Seg(*l2)));
  EXPECT_EQ(removed->value() - removed0, 1u);

  // Even an LSN past the end never removes the active segment.
  ASSERT_TRUE(writer.RemoveSegmentsBelow(writer.end_lsn() + 1000).ok());
  EXPECT_FALSE(std::filesystem::exists(Seg(*l1)));
  EXPECT_TRUE(std::filesystem::exists(Seg(*l2)));
  EXPECT_EQ(removed->value() - removed0, 2u);

  // The surviving suffix replays from the truncation point...
  auto tail = ReadWal(path_, *l2);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].payload, "c");
  // ...but a replay point below the first retained segment is refused:
  // the log no longer contains that history.
  auto stale = ReadWal(path_, 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kCorruption);
}

TEST_F(WalTest, StartSegmentSealsTheActiveSegmentUnlessEmpty) {
  Counter* rotations = MetricsRegistry::Global().counter("wal.rotations");
  const uint64_t rotations0 = rotations->value();
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());

  // An empty active segment stays: a second file at the same LSN would
  // have its name.
  ASSERT_TRUE(writer.StartSegment().ok());
  EXPECT_EQ(rotations->value(), rotations0);

  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "a").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  const uint64_t end = writer.end_lsn();
  ASSERT_TRUE(writer.StartSegment().ok());
  EXPECT_EQ(rotations->value() - rotations0, 1u);
  EXPECT_EQ(writer.durable_lsn(), end);  // the seal synced the old segment
  auto segments = writer.LiveSegments();
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ(segments->back().start_lsn, end);

  // The sealed segment lies wholly below `end`, so it goes whole.
  ASSERT_TRUE(writer.RemoveSegmentsBelow(end).ok());
  EXPECT_FALSE(std::filesystem::exists(Seg(0)));
  ASSERT_TRUE(writer.Append(WalRecordType::kCheckpoint, 0, "").ok());
  ASSERT_TRUE(writer.Close().ok());
  auto records = ReadWal(path_, end);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ((*records)[0].lsn, end);
}

// --- sticky failure latch (fsyncgate) ---------------------------------------

TEST_F(WalTest, TransientFsyncErrorLatchesUntilReopen) {
  FaultInjectingVfs fault_vfs;
  WalWriter writer(&fault_vfs);
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 1, "x").ok());

  // Fail exactly the next counted operation — the fsync below. The fault
  // is transient: an immediate retry of the raw fsync would succeed.
  fault_vfs.ScheduleTransientFailureAtOp(fault_vfs.op_count());
  Status first = writer.Sync();
  ASSERT_FALSE(first.ok());

  // fsyncgate: a failed fsync may have dropped the dirty pages it could
  // not write, so a later fsync returning OK proves nothing. The writer
  // must stay failed even though the underlying fault has cleared.
  Status again = writer.Sync();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), first.code());
  EXPECT_FALSE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  EXPECT_FALSE(writer.AppendCommit(1).ok());
  EXPECT_FALSE(writer.WaitDurable(writer.end_lsn()).ok());

  // Only Open — the recovery path, which re-reads what is actually durable
  // — clears the latch.
  ASSERT_TRUE(writer.Close().ok());
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(writer.Sync().ok());
}

// --- group commit ------------------------------------------------------------

TEST_F(WalTest, GroupCommitBatchesConcurrentCommitters) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* syncs = reg.counter("wal.syncs");
  Counter* group_commits = reg.counter("wal.group_commits");
  const uint64_t syncs0 = syncs->value();
  const uint64_t groups0 = group_commits->value();

  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto lsn = writer.AppendCommit(
            static_cast<uint64_t>(t * kCommitsPerThread + i + 1));
        if (!lsn.ok() || !writer.WaitDurable(*lsn).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(writer.durable_lsn(), writer.end_lsn());

  // Every commit record is durable and distinct.
  auto records = ReadWal(path_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(),
            static_cast<size_t>(kThreads * kCommitsPerThread));

  // One fsync per GROUP, not per commit: the sync count moves with the
  // group count, never with the commit count.
  const uint64_t groups = group_commits->value() - groups0;
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  EXPECT_LE(syncs->value() - syncs0, groups);
}

TEST_F(WalTest, WaitDurableLoneWaiterLeadsItsOwnSync) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* syncs = reg.counter("wal.syncs");
  Histogram* waits = reg.histogram("wal.durable_wait_ns");
  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());

  auto lsn = writer.AppendCommit(1);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, writer.end_lsn());  // just past the record
  EXPECT_LT(writer.durable_lsn(), *lsn);
  const uint64_t syncs0 = syncs->value();
  const uint64_t waits0 = waits->count();
  ASSERT_TRUE(writer.WaitDurable(*lsn).ok());
  EXPECT_EQ(syncs->value(), syncs0 + 1);
  EXPECT_EQ(waits->count(), waits0 + 1);
  EXPECT_EQ(writer.durable_lsn(), *lsn);

  // Already durable: no sync, no recorded wait.
  ASSERT_TRUE(writer.WaitDurable(*lsn).ok());
  EXPECT_EQ(syncs->value(), syncs0 + 1);
  EXPECT_EQ(waits->count(), waits0 + 1);
}

TEST_F(WalTest, WaitDurableCoversConcurrentWaitersWithOneSync) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* syncs = reg.counter("wal.syncs");
  Histogram* batch = reg.histogram("wal.sync_batch_size");
  SyncGateVfs vfs;
  WalWriter writer(&vfs);
  ASSERT_TRUE(writer.Open(path_).ok());
  const uint64_t syncs0 = syncs->value();
  const uint64_t batches0 = batch->count();
  const uint64_t covered0 = batch->sum();

  // A leader parks inside the sync of the first commit record.
  auto first = writer.AppendCommit(1);
  ASSERT_TRUE(first.ok());
  vfs.BlockSyncs();
  std::thread leader([&] { EXPECT_TRUE(writer.WaitDurable(*first).ok()); });
  vfs.WaitUntilSyncParked();

  // Four more commit records arrive while that sync is in flight; their
  // waiters follow it and then share ONE further sync.
  constexpr int kWaiters = 4;
  std::vector<uint64_t> lsns;
  for (int i = 0; i < kWaiters; ++i) {
    auto lsn = writer.AppendCommit(static_cast<uint64_t>(i + 2));
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  std::vector<std::thread> waiters;
  for (uint64_t lsn : lsns) {
    waiters.emplace_back([&, lsn] { EXPECT_TRUE(writer.WaitDurable(lsn).ok()); });
  }
  vfs.UnblockSyncs();
  leader.join();
  for (auto& t : waiters) t.join();

  EXPECT_EQ(writer.durable_lsn(), writer.end_lsn());
  EXPECT_EQ(syncs->value(), syncs0 + 2);
  EXPECT_EQ(batch->count(), batches0 + 2);
  EXPECT_EQ(batch->sum(), covered0 + 1 + kWaiters);
}

TEST_F(WalTest, WaitDurableStickyErrorReachesEveryWaiterBelowTheFailedSync) {
  FaultInjectingVfs fault_vfs;
  SyncGateVfs vfs(&fault_vfs);
  WalWriter writer(&vfs);
  ASSERT_TRUE(writer.Open(path_).ok());
  auto synced = writer.AppendCommit(1);
  ASSERT_TRUE(synced.ok());
  ASSERT_TRUE(writer.WaitDurable(*synced).ok());

  auto low = writer.AppendCommit(2);
  auto high = writer.AppendCommit(3);
  ASSERT_TRUE(low.ok() && high.ok());
  vfs.BlockSyncs();
  Status leader_st, follower_st;
  std::thread leader([&] { leader_st = writer.WaitDurable(*high); });
  vfs.WaitUntilSyncParked();
  std::thread follower([&] { follower_st = writer.WaitDurable(*low); });
  // The parked sync is the next counted operation: fail it.
  fault_vfs.ScheduleTransientFailureAtOp(fault_vfs.op_count());
  vfs.UnblockSyncs();
  leader.join();
  follower.join();

  EXPECT_EQ(leader_st.code(), StatusCode::kIOError);
  EXPECT_EQ(follower_st.code(), StatusCode::kIOError);
  EXPECT_EQ(writer.durable_lsn(), *synced);
  // A commit that was durable before the failure stays acknowledged.
  EXPECT_TRUE(writer.WaitDurable(*synced).ok());
  EXPECT_EQ(writer.WaitDurable(*low).code(), StatusCode::kIOError);
}

// Registry instruments follow WAL activity. Counters are process-global
// and only grow, so assertions are on deltas.
TEST_F(WalTest, RegistryCountersFollowAppendsSyncsAndTruncations) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* records = reg.counter("wal.records");
  Counter* bytes = reg.counter("wal.bytes");
  Counter* syncs = reg.counter("wal.syncs");
  Counter* truncations = reg.counter("wal.truncations");
  Histogram* fsync_ns = reg.histogram("wal.fsync_ns");
  const uint64_t records0 = records->value();
  const uint64_t bytes0 = bytes->value();
  const uint64_t syncs0 = syncs->value();
  const uint64_t truncations0 = truncations->value();
  const uint64_t fsyncs0 = fsync_ns->count();

  WalWriter writer;
  ASSERT_TRUE(writer.Open(path_).ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kBegin, 9, "").ok());
  ASSERT_TRUE(
      writer.Append(WalRecordType::kUpdateStatement, 9, "UPDATE y").ok());
  ASSERT_TRUE(writer.Append(WalRecordType::kCommit, 9, "").ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  EXPECT_EQ(records->value(), records0 + 3);
  // Each record is framed ([len][crc][type][txn] + payload), so the byte
  // counter advances by more than the raw payload size.
  EXPECT_GT(bytes->value(), bytes0 + 8);
  EXPECT_EQ(syncs->value(), syncs0 + 1);
  // Sync latency lands in the fsync histogram.
  EXPECT_EQ(fsync_ns->count(), fsyncs0 + 1);

  // Cutting a torn tail is counted.
  std::filesystem::resize_file(Seg(0), std::filesystem::file_size(Seg(0)) - 2);
  uint64_t valid_end = 0;
  ASSERT_TRUE(ReadWal(path_, 0, nullptr, &valid_end).ok());
  ASSERT_TRUE(TruncateWalTail(path_, valid_end).ok());
  EXPECT_EQ(truncations->value(), truncations0 + 1);
}

}  // namespace
}  // namespace sedna
