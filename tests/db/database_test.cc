#include "db/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/metrics.h"
#include "txn/transaction.h"
#include "txn/wal.h"

namespace sedna {
namespace {

using namespace std::chrono_literals;

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "db_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    options_.path = base_ + ".sedna";
    options_.wal_path = base_ + ".wal";
    std::remove(options_.path.c_str());
    std::remove(options_.wal_path.c_str());
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void Reopen() {
    db_.reset();
    auto db = Database::Open(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::string Exec(Session* s, const std::string& stmt) {
    auto r = s->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n -> " << r.status().ToString();
    return r.ok() ? r->serialized : "<error: " + r.status().ToString() + ">";
  }

  std::string base_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, AutocommitRoundTrip) {
  auto session = db_->Connect();
  Exec(session.get(), "CREATE DOCUMENT 'd'");
  Exec(session.get(), "UPDATE insert <r><v>1</v></r> into doc('d')");
  EXPECT_EQ(Exec(session.get(), "doc('d')/r/v/text()"), "1");
}

TEST_F(DatabaseTest, ExplicitCommitPersistsAcrossSessions) {
  auto s1 = db_->Connect();
  ASSERT_TRUE(s1->Begin().ok());
  Exec(s1.get(), "CREATE DOCUMENT 'd'");
  Exec(s1.get(), "UPDATE insert <r><v>42</v></r> into doc('d')");
  ASSERT_TRUE(s1->Commit().ok());

  auto s2 = db_->Connect();
  EXPECT_EQ(Exec(s2.get(), "doc('d')/r/v/text()"), "42");
}

TEST_F(DatabaseTest, AbortRollsBackContentChanges) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  Exec(setup.get(), "UPDATE insert <r><v>old</v></r> into doc('d')");

  auto s = db_->Connect();
  ASSERT_TRUE(s->Begin().ok());
  Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>new</v>");
  EXPECT_EQ(Exec(s.get(), "doc('d')/r/v/text()"), "new");  // own writes
  ASSERT_TRUE(s->Abort().ok());

  EXPECT_EQ(Exec(setup.get(), "doc('d')/r/v/text()"), "old");
}

TEST_F(DatabaseTest, AbortRollsBackInsertsAndStructure) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  Exec(setup.get(), "UPDATE insert <r><a/></r> into doc('d')");

  auto s = db_->Connect();
  ASSERT_TRUE(s->Begin().ok());
  // Inserting a brand-new element kind grows the descriptive schema and
  // forces an arity rewrite — all of it must roll back.
  for (int i = 0; i < 50; ++i) {
    Exec(s.get(), "UPDATE insert <fresh n=\"" + std::to_string(i) +
                      "\"><sub/></fresh> into doc('d')/r");
  }
  EXPECT_EQ(Exec(s.get(), "count(doc('d')/r/fresh)"), "50");
  ASSERT_TRUE(s->Abort().ok());

  EXPECT_EQ(Exec(setup.get(), "count(doc('d')/r/*)"), "1");
  EXPECT_EQ(Exec(setup.get(), "count(doc('d')//fresh)"), "0");
  // The document is still fully usable for new updates.
  Exec(setup.get(), "UPDATE insert <b/> into doc('d')/r");
  EXPECT_EQ(Exec(setup.get(), "count(doc('d')/r/*)"), "2");
}

TEST_F(DatabaseTest, AbortRollsBackCreateDocument) {
  auto s = db_->Connect();
  ASSERT_TRUE(s->Begin().ok());
  Exec(s.get(), "CREATE DOCUMENT 'temp'");
  Exec(s.get(), "UPDATE insert <r/> into doc('temp')");
  ASSERT_TRUE(s->Abort().ok());

  auto s2 = db_->Connect();
  auto r = s2->Execute("doc('temp')");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, AbortRestoresDroppedDocument) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'keep'");
  Exec(setup.get(), "UPDATE insert <r><v>safe</v></r> into doc('keep')");

  auto s = db_->Connect();
  ASSERT_TRUE(s->Begin().ok());
  Exec(s.get(), "DROP DOCUMENT 'keep'");
  ASSERT_TRUE(s->Abort().ok());

  EXPECT_EQ(Exec(setup.get(), "doc('keep')/r/v/text()"), "safe");
}

// --- MVCC: read-only transactions read a snapshot (Sections 6.1/6.3) -------

TEST_F(DatabaseTest, ReadOnlySnapshotIsolation) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  Exec(setup.get(), "UPDATE insert <r><v>1</v></r> into doc('d')");

  auto reader = db_->Connect();
  ASSERT_TRUE(reader->Begin(/*read_only=*/true).ok());
  EXPECT_EQ(Exec(reader.get(), "doc('d')/r/v/text()"), "1");

  // A concurrent updater commits a change...
  Exec(setup.get(), "UPDATE replace $x in doc('d')/r/v with <v>2</v>");
  auto fresh = db_->Connect();
  EXPECT_EQ(Exec(fresh.get(), "doc('d')/r/v/text()"), "2");

  // ...but the snapshot reader keeps seeing the old state.
  EXPECT_EQ(Exec(reader.get(), "doc('d')/r/v/text()"), "1");
  ASSERT_TRUE(reader->Commit().ok());

  // A new read-only transaction sees the new state.
  auto reader2 = db_->Connect();
  ASSERT_TRUE(reader2->Begin(true).ok());
  EXPECT_EQ(Exec(reader2.get(), "doc('d')/r/v/text()"), "2");
  ASSERT_TRUE(reader2->Commit().ok());
}

TEST_F(DatabaseTest, ReadOnlyTransactionsDontBlockOnWriterLock) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  Exec(setup.get(), "UPDATE insert <r><v>1</v></r> into doc('d')");

  auto writer = db_->Connect();
  ASSERT_TRUE(writer->Begin().ok());
  Exec(writer.get(), "UPDATE replace $x in doc('d')/r/v with <v>2</v>");
  // Writer holds the exclusive lock; a snapshot reader proceeds anyway.
  auto reader = db_->Connect();
  ASSERT_TRUE(reader->Begin(true).ok());
  EXPECT_EQ(Exec(reader.get(), "doc('d')/r/v/text()"), "1");
  ASSERT_TRUE(reader->Commit().ok());
  ASSERT_TRUE(writer->Commit().ok());
}

TEST_F(DatabaseTest, ReadOnlyTransactionRejectsUpdates) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  auto reader = db_->Connect();
  ASSERT_TRUE(reader->Begin(true).ok());
  auto r = reader->Execute("UPDATE insert <x/> into doc('d')");
  EXPECT_FALSE(r.ok());
}

TEST_F(DatabaseTest, WriterBlocksWriterUntilCommit) {
  auto setup = db_->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  Exec(setup.get(), "UPDATE insert <r/> into doc('d')");

  auto w1 = db_->Connect();
  ASSERT_TRUE(w1->Begin().ok());
  Exec(w1.get(), "UPDATE insert <a/> into doc('d')/r");

  std::atomic<bool> w2_done{false};
  std::thread w2_thread([&] {
    auto w2 = db_->Connect();
    ASSERT_TRUE(w2->Begin().ok());
    auto r = w2->Execute("UPDATE insert <b/> into doc('d')/r");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(w2->Commit().ok());
    w2_done = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(w2_done.load());  // blocked on the document lock
  ASSERT_TRUE(w1->Commit().ok());
  w2_thread.join();
  EXPECT_TRUE(w2_done.load());
  EXPECT_EQ(Exec(setup.get(), "count(doc('d')/r/*)"), "2");
}

TEST_F(DatabaseTest, LockConflictTimesOutAsDeadlockVictim) {
  DatabaseOptions opts = options_;
  auto s1 = db_->Connect();
  Exec(s1.get(), "CREATE DOCUMENT 'a'");
  Exec(s1.get(), "CREATE DOCUMENT 'b'");
  Exec(s1.get(), "UPDATE insert <r/> into doc('a')");
  Exec(s1.get(), "UPDATE insert <r/> into doc('b')");

  auto ta = db_->Connect();
  auto tb = db_->Connect();
  ASSERT_TRUE(ta->Begin().ok());
  ASSERT_TRUE(tb->Begin().ok());
  Exec(ta.get(), "UPDATE insert <x/> into doc('a')/r");
  Exec(tb.get(), "UPDATE insert <x/> into doc('b')/r");
  // ta -> b while tb -> a: a true deadlock; one of them must time out.
  std::atomic<int> timeouts{0};
  std::thread t1([&] {
    auto r = ta->Execute("UPDATE insert <y/> into doc('b')/r");
    if (!r.ok()) timeouts++;
  });
  std::thread t2([&] {
    auto r = tb->Execute("UPDATE insert <y/> into doc('a')/r");
    if (!r.ok()) timeouts++;
  });
  t1.join();
  t2.join();
  EXPECT_GE(timeouts.load(), 1);
  (void)ta->Abort();
  (void)tb->Abort();
}

// --- durability: two-step recovery (Section 6.4) ----------------------------

TEST_F(DatabaseTest, RecoveryReplaysCommittedAfterCheckpoint) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>base</v></r> into doc('d')");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Exec(s.get(), "UPDATE insert <post>after-checkpoint</post> into doc('d')/r");
  ASSERT_TRUE(db_->txns()->wal()->Sync().ok());

  // Simulate a crash: preserve the checkpoint-time data file and the
  // current WAL, discarding everything the buffer pool would flush at a
  // clean shutdown.
  std::string data_copy = base_ + ".crash";
  {
    std::ifstream in(options_.path, std::ios::binary);
    std::ofstream out(data_copy, std::ios::binary);
    out << in.rdbuf();
  }
  s.reset();
  db_.reset();
  std::remove(options_.path.c_str());
  std::rename(data_copy.c_str(), options_.path.c_str());

  auto reopened = Database::Open(options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_ = std::move(reopened).value();
  EXPECT_GE(db_->recovered_statements(), 1u);
  auto s2 = db_->Connect();
  EXPECT_EQ(Exec(s2.get(), "doc('d')/r/v/text()"), "base");
  EXPECT_EQ(Exec(s2.get(), "doc('d')/r/post/text()"), "after-checkpoint");
}

TEST_F(DatabaseTest, RecoverySkipsUncommittedAndAborted) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r/> into doc('d')");
  ASSERT_TRUE(db_->Checkpoint().ok());

  // Aborted transaction: logged but must not replay.
  ASSERT_TRUE(s->Begin().ok());
  Exec(s.get(), "UPDATE insert <aborted/> into doc('d')/r");
  ASSERT_TRUE(s->Abort().ok());
  // Committed one.
  Exec(s.get(), "UPDATE insert <committed/> into doc('d')/r");
  ASSERT_TRUE(db_->txns()->wal()->Sync().ok());

  std::string data_copy = base_ + ".crash";
  {
    std::ifstream in(options_.path, std::ios::binary);
    std::ofstream out(data_copy, std::ios::binary);
    out << in.rdbuf();
  }
  s.reset();
  db_.reset();
  std::remove(options_.path.c_str());
  std::rename(data_copy.c_str(), options_.path.c_str());

  auto reopened = Database::Open(options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_ = std::move(reopened).value();
  auto s2 = db_->Connect();
  EXPECT_EQ(Exec(s2.get(), "count(doc('d')/r/committed)"), "1");
  EXPECT_EQ(Exec(s2.get(), "count(doc('d')/r/aborted)"), "0");
}

TEST_F(DatabaseTest, CleanRestartViaCheckpoint) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>persist</v></r> into doc('d')");
  ASSERT_TRUE(db_->Checkpoint().ok());
  s.reset();
  Reopen();
  auto s2 = db_->Connect();
  EXPECT_EQ(Exec(s2.get(), "doc('d')/r/v/text()"), "persist");
}

// --- hot backup (Section 6.5) -------------------------------------------------

TEST_F(DatabaseTest, FullBackupAndRestore) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>backed-up</v></r> into doc('d')");

  std::string dir = base_ + "_backup";
  ASSERT_TRUE(db_->FullBackup(dir).ok());

  // Post-backup change: must NOT appear after restore.
  Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>newer</v>");

  DatabaseOptions restored_opts;
  restored_opts.path = base_ + "_restored.sedna";
  restored_opts.wal_path = base_ + "_restored.wal";
  ASSERT_TRUE(Database::Restore(dir, restored_opts).ok());
  auto restored = Database::Open(restored_opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rs = (*restored)->Connect();
  EXPECT_EQ(Exec(rs.get(), "doc('d')/r/v/text()"), "backed-up");
}

TEST_F(DatabaseTest, IncrementalBackupCapturesLaterUpdates) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>v1</v></r> into doc('d')");

  std::string dir = base_ + "_backup";
  ASSERT_TRUE(db_->FullBackup(dir).ok());
  Exec(s.get(), "UPDATE insert <w>v2</w> into doc('d')/r");
  ASSERT_TRUE(db_->IncrementalBackup(dir).ok());

  DatabaseOptions restored_opts;
  restored_opts.path = base_ + "_restored.sedna";
  restored_opts.wal_path = base_ + "_restored.wal";
  ASSERT_TRUE(Database::Restore(dir, restored_opts).ok());
  auto restored = Database::Open(restored_opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rs = (*restored)->Connect();
  EXPECT_EQ(Exec(rs.get(), "doc('d')/r/v/text()"), "v1");
  EXPECT_EQ(Exec(rs.get(), "doc('d')/r/w/text()"), "v2");
}

// A checkpoint restarts the log at its checkpoint LSN: the log it leaves is
// one segment holding the checkpoint record, however much was logged before
// it, and what commits after it still replays.
TEST_F(DatabaseTest, CheckpointLeavesOnlyTheLogPastIt) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>0</v></r> into doc('d')");
  for (int i = 1; i <= 20; ++i) {
    Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>" +
                      std::to_string(i) + "</v>");
  }
  WalWriter* wal = db_->txns()->wal();
  const uint64_t checkpoint_lsn = wal->end_lsn();
  ASSERT_TRUE(db_->Checkpoint().ok());
  auto segments = wal->LiveSegments();
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ(segments->front().start_lsn, checkpoint_lsn);
  auto records = ReadWal(options_.wal_path, checkpoint_lsn);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(std::filesystem::file_size(segments->front().file_path),
            kWalSegmentHeaderSize + (wal->end_lsn() - checkpoint_lsn));

  Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>after</v>");
  s.reset();
  Reopen();
  EXPECT_EQ(db_->recovered_statements(), 1u);
  auto rs = db_->Connect();
  EXPECT_EQ(Exec(rs.get(), "doc('d')/r/v/text()"), "after");
}

// A backup taken between segment rotations must capture every live segment,
// and the restored log — whose copied tail may predate later writes — must
// replay to exactly the backed-up state.
TEST_F(DatabaseTest, FullBackupSpansRotatedSegmentsAndRestores) {
  DatabaseOptions options;
  options.path = base_ + "_seg.sedna";
  options.wal_path = base_ + "_seg.wal";
  options.wal_segment_bytes = 256;  // a couple of commits per segment
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto db = std::move(created).value();

  auto s = db->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>0</v></r> into doc('d')");
  for (int i = 1; i <= 12; ++i) {
    Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>" +
                      std::to_string(i) + "</v>");
  }

  std::string dir = base_ + "_seg_backup";
  ASSERT_TRUE(db->FullBackup(dir).ok());

  // Rotate further and re-copy the grown tail; no checkpoint ran since the
  // full backup, so the incremental chain is intact.
  for (int i = 13; i <= 24; ++i) {
    Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>" +
                      std::to_string(i) + "</v>");
  }
  ASSERT_TRUE(db->IncrementalBackup(dir).ok());
  // The copied log really is segmented: the incremental picked up the
  // segments rotated since the full backup (whose own checkpoint had
  // truncated the log down to the segment it started).
  int segment_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal.seg-", 0) == 0) {
      ++segment_files;
    }
  }
  EXPECT_GT(segment_files, 1);

  DatabaseOptions restored_opts;
  restored_opts.path = base_ + "_seg_restored.sedna";
  restored_opts.wal_path = base_ + "_seg_restored.wal";
  ASSERT_TRUE(Database::Restore(dir, restored_opts).ok());
  auto restored = Database::Open(restored_opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rs = (*restored)->Connect();
  EXPECT_EQ(Exec(rs.get(), "doc('d')/r/v/text()"), "24");
}

// Checkpoint truncation that unlinks segments past the last backup point
// breaks the incremental chain: the incremental must be refused (not
// silently produce an unreplayable log), and a fresh full backup in the
// same directory must supersede the stale segment set.
TEST_F(DatabaseTest, IncrementalBackupRefusedAfterTruncation) {
  DatabaseOptions options;
  options.path = base_ + "_trunc.sedna";
  options.wal_path = base_ + "_trunc.wal";
  options.wal_segment_bytes = 256;
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto db = std::move(created).value();

  auto s = db->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>full</v></r> into doc('d')");

  std::string dir = base_ + "_trunc_backup";
  ASSERT_TRUE(db->FullBackup(dir).ok());

  // Rotate well past the backup point, then checkpoint: truncation unlinks
  // the sealed segments the incremental chain would need.
  for (int i = 0; i < 12; ++i) {
    Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>x" +
                      std::to_string(i) + "</v>");
  }
  ASSERT_TRUE(db->Checkpoint().ok());

  Status st = db->IncrementalBackup(dir);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();

  // Recovery path the error demands: take a new full backup (same dir) and
  // restore from it.
  Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>refreshed</v>");
  ASSERT_TRUE(db->FullBackup(dir).ok());
  DatabaseOptions restored_opts;
  restored_opts.path = base_ + "_trunc_restored.sedna";
  restored_opts.wal_path = base_ + "_trunc_restored.wal";
  ASSERT_TRUE(Database::Restore(dir, restored_opts).ok());
  auto restored = Database::Open(restored_opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rs = (*restored)->Connect();
  EXPECT_EQ(Exec(rs.get(), "doc('d')/r/v/text()"), "refreshed");
}

// A checkpoint unlinks the whole log below it, so the first checkpoint
// after logged updates ends the incremental chain even when the log never
// rotated.
TEST_F(DatabaseTest, IncrementalBackupRefusedAfterCheckpointOfLoggedUpdates) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r><v>full</v></r> into doc('d')");
  std::string dir = base_ + "_backup";
  ASSERT_TRUE(db_->FullBackup(dir).ok());

  // A checkpoint with nothing logged since the backup keeps the chain.
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->IncrementalBackup(dir).ok());

  Exec(s.get(), "UPDATE replace $x in doc('d')/r/v with <v>later</v>");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Status st = db_->IncrementalBackup(dir);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
}

// A full backup taken while writers keep committing stays internally
// consistent: the restored database opens cleanly and holds a value the
// writer actually committed.
TEST_F(DatabaseTest, HotBackupUnderConcurrentWriterIsConsistent) {
  DatabaseOptions options;
  options.path = base_ + "_hot.sedna";
  options.wal_path = base_ + "_hot.wal";
  options.wal_segment_bytes = 512;
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto db = std::move(created).value();

  auto setup = db->Connect();
  Exec(setup.get(), "CREATE DOCUMENT 'd'");
  Exec(setup.get(), "UPDATE insert <r><v>0</v></r> into doc('d')");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto ws = db->Connect();
    for (int i = 1; !stop.load() && i <= 400; ++i) {
      auto r = ws->Execute("UPDATE replace $x in doc('d')/r/v with <v>" +
                           std::to_string(i) + "</v>");
      if (!r.ok()) break;
    }
  });
  std::string dir = base_ + "_hot_backup";
  Status backup_st = db->FullBackup(dir);
  stop.store(true);
  writer.join();
  ASSERT_TRUE(backup_st.ok()) << backup_st.ToString();

  DatabaseOptions restored_opts;
  restored_opts.path = base_ + "_hot_restored.sedna";
  restored_opts.wal_path = base_ + "_hot_restored.wal";
  ASSERT_TRUE(Database::Restore(dir, restored_opts).ok());
  auto restored = Database::Open(restored_opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rs = (*restored)->Connect();
  auto read = rs->Execute("doc('d')/r/v/text()");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  // Whatever value was current at the backup's cut must be one the writer
  // committed (a plain integer in [0, 400]) — never a torn in-between.
  int value = std::atoi(read->serialized.c_str());
  EXPECT_GE(value, 0);
  EXPECT_LE(value, 400);
  EXPECT_EQ(read->serialized, std::to_string(value));
}

// --- governor -------------------------------------------------------------------

TEST_F(DatabaseTest, GovernorTracksComponents) {
  auto s1 = db_->Connect();
  auto s2 = db_->Connect();
  auto components = Governor::Instance().Components();
  int dbs = 0, sessions = 0;
  for (const auto& c : components) {
    if (c.kind == "database") dbs++;
    if (c.kind == "session") sessions++;
  }
  EXPECT_GE(dbs, 1);
  EXPECT_GE(sessions, 2);
  uint64_t id = s1->session_id();
  s1.reset();
  bool still_there = false;
  for (const auto& c : Governor::Instance().Components()) {
    if (c.detail == "session-" + std::to_string(id)) still_there = true;
  }
  EXPECT_FALSE(still_there);
}

// --- checkpoint admission, gate and drain -----------------------------------

// Blocks until `txns` has a checkpoint parked in its drain, i.e. the gate
// for new update transactions is closed. A probe whose deadline has already
// passed is turned away only by a closed gate: the governed wait tests its
// ready condition (gate open) before the deadline.
void WaitForClosedCheckpointGate(TransactionManager* txns) {
  for (;;) {
    QueryContext expired;
    expired.set_deadline(std::chrono::steady_clock::now());
    auto probe = txns->Begin(/*read_only=*/false, &expired);
    if (!probe.ok()) {
      ASSERT_EQ(probe.status().code(), StatusCode::kDeadlineExceeded);
      return;
    }
    ASSERT_TRUE(txns->Abort(probe->get()).ok());
    std::this_thread::sleep_for(1ms);
  }
}

TEST_F(DatabaseTest, CheckpointAdmissionIsPerDatabase) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* admitted = reg.counter("governor.checkpoints_admitted");
  Counter* rejected = reg.counter("governor.checkpoints_rejected");
  const uint64_t admitted0 = admitted->value();
  const uint64_t rejected0 = rejected->value();

  // An open read-write transaction parks A's checkpoint in its drain.
  auto writer = db_->Connect();
  ASSERT_TRUE(writer->Begin(/*read_only=*/false).ok());
  Status first = Status::Internal("never ran");
  std::thread checkpointer([&] { first = db_->Checkpoint(); });
  WaitForClosedCheckpointGate(db_->txns());
  EXPECT_EQ(admitted->value(), admitted0 + 1);

  // A second checkpoint of the same database is shed, retryably...
  Status second = db_->Checkpoint();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted)
      << second.ToString();
  EXPECT_NE(second.message().find("retry"), std::string::npos);
  EXPECT_EQ(rejected->value(), rejected0 + 1);

  // ...while another database checkpoints at once: admission is per
  // database, not per process.
  DatabaseOptions other;
  other.path = base_ + "_b.sedna";
  other.wal_path = base_ + "_b.wal";
  auto b = Database::Create(other);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  if (b.ok()) {
    Status b_st = (*b)->Checkpoint();
    EXPECT_TRUE(b_st.ok()) << b_st.ToString();
  }

  // A's checkpoint completes once the transaction commits.
  EXPECT_TRUE(writer->Commit().ok());
  checkpointer.join();
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(db_->Checkpoint().ok());
}

TEST_F(DatabaseTest, CheckpointGateHonoursTheBeginDeadline) {
  TransactionManager* txns = db_->txns();
  auto updater = txns->Begin(/*read_only=*/false);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  Status checkpoint = Status::Internal("never ran");
  std::thread checkpointer([&] { checkpoint = txns->Checkpoint(); });
  WaitForClosedCheckpointGate(txns);

  // A new updater waits at the closed gate until its own deadline, then
  // fails with it, and is never counted by the drain.
  const uint64_t updaters = txns->active_updaters();
  QueryContext query;
  query.set_deadline_after(50ms);
  auto start = std::chrono::steady_clock::now();
  auto gated = txns->Begin(/*read_only=*/false, &query);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(gated.status().code(), StatusCode::kDeadlineExceeded)
      << gated.status().ToString();
  EXPECT_GE(elapsed, 40ms);
  EXPECT_LT(elapsed, 1000ms);
  EXPECT_EQ(txns->active_updaters(), updaters);

  EXPECT_TRUE(txns->Commit(updater->get()).ok());
  checkpointer.join();
  EXPECT_TRUE(checkpoint.ok()) << checkpoint.ToString();
}

TEST_F(DatabaseTest, CheckpointDrainCancelReopensTheGate) {
  TransactionManager* txns = db_->txns();
  auto updater = txns->Begin(/*read_only=*/false);
  ASSERT_TRUE(updater.ok()) << updater.status().ToString();
  QueryContext query;
  Status checkpoint = Status::Internal("never ran");
  std::thread checkpointer([&] { checkpoint = txns->Checkpoint(&query); });
  WaitForClosedCheckpointGate(txns);

  query.Cancel();
  checkpointer.join();
  EXPECT_EQ(checkpoint.code(), StatusCode::kCancelled) << checkpoint.ToString();

  // The cancelled drain reopened the gate, so the next updater begins at
  // once: even an already expired deadline does not stop it.
  QueryContext expired;
  expired.set_deadline(std::chrono::steady_clock::now());
  auto next = txns->Begin(/*read_only=*/false, &expired);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(txns->Commit(next->get()).ok());
  EXPECT_TRUE(txns->Commit(updater->get()).ok());
  EXPECT_EQ(txns->active_updaters(), 0u);
}

TEST_F(DatabaseTest, GovernorRejectsOnFullWhenQueueDisabled) {
  Governor& gov = Governor::Instance();
  gov.set_max_concurrent_statements(1);
  gov.set_max_queued_statements(0);  // legacy reject mode

  auto first = gov.AdmitStatement();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = gov.AdmitStatement();
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.queued_statements(), 0u);

  first->Release();
  auto third = gov.AdmitStatement();
  EXPECT_TRUE(third.ok());
  third->Release();
  gov.set_max_concurrent_statements(0);
}

TEST_F(DatabaseTest, GovernorQueueAdmitsWaitersInFifoOrder) {
  Governor& gov = Governor::Instance();
  gov.set_max_concurrent_statements(1);
  gov.set_max_queued_statements(4);

  auto holder = gov.AdmitStatement();
  ASSERT_TRUE(holder.ok());

  // Two waiters join the queue; when the slot frees they must be admitted
  // in arrival order, one at a time.
  std::mutex order_mu;
  std::vector<int> admitted_order;
  std::atomic<int> queued{0};
  auto waiter = [&](int id) {
    // Stagger arrival so the FIFO order is deterministic.
    while (queued.load() < id - 1) std::this_thread::yield();
    queued.fetch_add(1);
    auto ticket = gov.AdmitStatement();
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    {
      std::lock_guard<std::mutex> lock(order_mu);
      admitted_order.push_back(id);
    }
    EXPECT_EQ(gov.active_statements(), 1u);
    std::this_thread::sleep_for(20ms);
    ticket->Release();
  };
  std::thread t1(waiter, 1);
  while (queued.load() < 1) std::this_thread::yield();
  // Waiter 1 is parked in the queue (slot held) before waiter 2 arrives.
  while (gov.queued_statements() < 1) std::this_thread::yield();
  std::thread t2(waiter, 2);
  while (gov.queued_statements() < 2) std::this_thread::yield();

  holder->Release();
  t1.join();
  t2.join();
  EXPECT_EQ(admitted_order, (std::vector<int>{1, 2}));
  EXPECT_EQ(gov.active_statements(), 0u);
  EXPECT_EQ(gov.queued_statements(), 0u);
  gov.set_max_concurrent_statements(0);
  gov.set_max_queued_statements(0);
}

TEST_F(DatabaseTest, GovernorNewArrivalDoesNotBargePastQueuedWaiter) {
  Governor& gov = Governor::Instance();
  gov.set_max_concurrent_statements(1);
  gov.set_max_queued_statements(4);

  for (int round = 0; round < 5; ++round) {
    auto holder = gov.AdmitStatement();
    ASSERT_TRUE(holder.ok());

    std::atomic<bool> waiter_admitted{false};
    std::thread waiter([&] {
      auto ticket = gov.AdmitStatement();
      EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
      waiter_admitted.store(true);
      if (ticket.ok()) ticket->Release();
    });
    while (gov.queued_statements() < 1) std::this_thread::yield();

    // Release the slot and immediately try to admit. The freed slot must
    // go to the parked FIFO head — even though the head may take a wait
    // slice to wake, this arrival must queue behind it rather than barge,
    // so by the time it is admitted the waiter has already run.
    holder->Release();
    auto late = gov.AdmitStatement();
    ASSERT_TRUE(late.ok());
    EXPECT_TRUE(waiter_admitted.load());
    late->Release();
    waiter.join();
  }
  EXPECT_EQ(gov.active_statements(), 0u);
  EXPECT_EQ(gov.queued_statements(), 0u);
  gov.set_max_concurrent_statements(0);
  gov.set_max_queued_statements(0);
}

TEST_F(DatabaseTest, GovernorQueueBoundAndGovernedWait) {
  Governor& gov = Governor::Instance();
  gov.set_max_concurrent_statements(1);
  gov.set_max_queued_statements(1);

  auto holder = gov.AdmitStatement();
  ASSERT_TRUE(holder.ok());

  // A deadline-bearing waiter parks in the queue and aborts when its
  // governed wait expires — the slot is never freed.
  QueryContext deadline_query;
  deadline_query.set_deadline_after(30ms);
  std::thread expired([&] {
    auto ticket = gov.AdmitStatement(&deadline_query);
    EXPECT_EQ(ticket.status().code(), StatusCode::kDeadlineExceeded)
        << ticket.status().ToString();
  });

  // While that waiter occupies the single queue slot, the next arrival is
  // rejected immediately (queue full), not blocked.
  while (gov.queued_statements() < 1) std::this_thread::yield();
  auto overflow = gov.AdmitStatement();
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  expired.join();
  EXPECT_EQ(gov.queued_statements(), 0u);

  // Cancellation also unparks a queued waiter.
  QueryContext cancel_query;
  std::thread cancelled([&] {
    auto ticket = gov.AdmitStatement(&cancel_query);
    EXPECT_EQ(ticket.status().code(), StatusCode::kCancelled)
        << ticket.status().ToString();
  });
  while (gov.queued_statements() < 1) std::this_thread::yield();
  cancel_query.Cancel();
  cancelled.join();
  EXPECT_EQ(gov.queued_statements(), 0u);

  holder->Release();
  EXPECT_EQ(gov.active_statements(), 0u);
  gov.set_max_concurrent_statements(0);
  gov.set_max_queued_statements(0);
}

TEST_F(DatabaseTest, TransactionControlErrors) {
  auto s = db_->Connect();
  EXPECT_FALSE(s->Commit().ok());  // nothing open
  EXPECT_FALSE(s->Abort().ok());
  ASSERT_TRUE(s->Begin().ok());
  EXPECT_FALSE(s->Begin().ok());  // nested
  ASSERT_TRUE(s->Commit().ok());
}

TEST_F(DatabaseTest, FailedStatementAbortsAutocommitTxn) {
  auto s = db_->Connect();
  Exec(s.get(), "CREATE DOCUMENT 'd'");
  Exec(s.get(), "UPDATE insert <r/> into doc('d')");
  // Statement with a runtime error mid-way must not leave partial state.
  auto r = s->Execute(
      "UPDATE insert <x/> into (doc('d')/r, doc('nonexistent')/q)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(Exec(s.get(), "count(doc('d')/r/*)"), "0");
}

}  // namespace
}  // namespace sedna
