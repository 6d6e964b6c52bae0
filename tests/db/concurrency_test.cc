// Multi-threaded stress tests over the full public API: concurrent writer
// sessions on disjoint and shared documents, snapshot readers racing with
// updaters, a randomized workload validated against a reference model, and
// the commit point: locks released before the commit record's fsync, with
// no answer acknowledged before the log that covers it is durable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <thread>

#include "common/fault_vfs.h"
#include "common/metrics.h"
#include "common/random.h"
#include "db/database.h"
#include "tests/common/test_paths.h"
#include "tests/common/sync_gate_vfs.h"

namespace sedna {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = TestTempPath(std::string("cc_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name());
    options_.path = base_ + ".sedna";
    options_.wal_path = base_ + ".wal";
    options_.buffer_frames = 2048;
    std::remove(options_.path.c_str());
    std::remove(options_.wal_path.c_str());
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  /// Recreates the database over a fresh gate_ wrapping `base`.
  void CreateOverGate(Vfs* base) {
    db_.reset();
    gate_ = std::make_unique<SyncGateVfs>(base);
    options_.vfs = gate_.get();
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  /// Closes the database and reopens it (recovery) over the same vfs.
  void Reopen() {
    db_.reset();
    auto db = Database::Open(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  /// Creates document `name` holding <r><v>value</v></r>.
  void MakeDoc(const std::string& name, const std::string& value) {
    auto s = db_->Connect();
    ASSERT_TRUE(s->Execute("CREATE DOCUMENT '" + name + "'").ok());
    ASSERT_TRUE(s->Execute("UPDATE insert <r><v>" + value +
                           "</v></r> into doc('" + name + "')")
                    .ok());
  }

  static std::string SetValue(const std::string& doc,
                              const std::string& value) {
    return "UPDATE replace $x in doc('" + doc + "')/r/v with <v>" + value +
           "</v>";
  }
  static std::string GetValue(const std::string& doc) {
    return "string(doc('" + doc + "')/r/v)";
  }

  /// Commit records the log holds at or after `from_lsn`.
  size_t CommitRecordsFrom(uint64_t from_lsn) {
    auto records = ReadWal(options_.wal_path, from_lsn, options_.vfs);
    if (!records.ok()) return 0;
    return static_cast<size_t>(
        std::count_if(records->begin(), records->end(), [](const WalRecord& r) {
          return r.type == WalRecordType::kCommit;
        }));
  }

  /// Polls `done` for up to five seconds.
  static bool Eventually(const std::function<bool()>& done) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  std::string base_;
  DatabaseOptions options_;
  // Declared before db_, so the database closes before its files' vfs goes.
  FaultInjectingVfs fault_vfs_;
  std::unique_ptr<SyncGateVfs> gate_;
  std::unique_ptr<Database> db_;
};

TEST_F(ConcurrencyTest, ParallelWritersOnDisjointDocuments) {
  const int kThreads = 4;
  const int kInsertsPerThread = 60;
  {
    auto setup = db_->Connect();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(
          setup->Execute("CREATE DOCUMENT 'doc" + std::to_string(t) + "'")
              .ok());
      ASSERT_TRUE(setup
                      ->Execute("UPDATE insert <r/> into doc('doc" +
                                std::to_string(t) + "')")
                      .ok());
    }
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db_->Connect();
      for (int i = 0; i < kInsertsPerThread; ++i) {
        auto r = session->Execute("UPDATE insert <e n=\"" +
                                  std::to_string(i) + "\"/> into doc('doc" +
                                  std::to_string(t) + "')/r");
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  auto check = db_->Connect();
  for (int t = 0; t < kThreads; ++t) {
    auto r = check->Execute("count(doc('doc" + std::to_string(t) + "')/r/e)");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->serialized, std::to_string(kInsertsPerThread));
  }
}

TEST_F(ConcurrencyTest, ContendingWritersOnOneDocumentSerialize) {
  {
    auto setup = db_->Connect();
    ASSERT_TRUE(setup->Execute("CREATE DOCUMENT 'shared'").ok());
    ASSERT_TRUE(
        setup->Execute("UPDATE insert <r/> into doc('shared')").ok());
  }
  const int kThreads = 4;
  const int kPerThread = 40;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto session = db_->Connect();
      for (int i = 0; i < kPerThread; ++i) {
        // Autocommit retry loop: contention may time out, never corrupt.
        for (int attempt = 0; attempt < 20; ++attempt) {
          auto r = session->Execute(
              "UPDATE insert <e t=\"" + std::to_string(t) +
              "\"/> into doc('shared')/r");
          if (r.ok()) {
            committed.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto check = db_->Connect();
  auto r = check->Execute("count(doc('shared')/r/e)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->serialized, std::to_string(committed.load()));
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
}

TEST_F(ConcurrencyTest, SnapshotReadersNeverSeeTornState) {
  // The updater flips between two states where a + b == 100 always holds
  // inside a transaction; snapshot readers must never observe a sum != 100.
  {
    auto setup = db_->Connect();
    ASSERT_TRUE(setup->Execute("CREATE DOCUMENT 'inv'").ok());
    ASSERT_TRUE(setup
                    ->Execute("UPDATE insert <r><a>60</a><b>40</b></r> "
                              "into doc('inv')")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<int> reads{0};

  std::thread updater([&] {
    auto session = db_->Connect();
    Random rng(3);
    while (!stop.load()) {
      int a = static_cast<int>(rng.Uniform(101));
      if (!session->Begin().ok()) continue;
      bool ok =
          session
              ->Execute("UPDATE replace $x in doc('inv')/r/a with <a>" +
                        std::to_string(a) + "</a>")
              .ok() &&
          session
              ->Execute("UPDATE replace $x in doc('inv')/r/b with <b>" +
                        std::to_string(100 - a) + "</b>")
              .ok();
      if (ok) {
        (void)session->Commit();
      } else if (session->in_transaction()) {
        (void)session->Abort();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto session = db_->Connect();
      while (!stop.load()) {
        if (!session->Begin(/*read_only=*/true).ok()) continue;
        auto r = session->Execute(
            "number(doc('inv')/r/a) + number(doc('inv')/r/b)");
        (void)session->Commit();
        reads.fetch_add(1);
        // A failed read is a violation too: a snapshot registered too late
        // reads "page not visible in this snapshot".
        if (!r.ok() || r->serialized != "100") violations.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  stop.store(true);
  updater.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0) << "torn snapshot observed";
  EXPECT_GT(reads.load(), 50);
}

TEST_F(ConcurrencyTest, SnapshotIsRegisteredBeforeCommitsCanPurgeIt) {
  // A read-only transaction must take its timestamp and register it in one
  // step with respect to commits. Otherwise a commit between the two steps
  // purges a version the snapshot needs, and the reader sees that page at
  // the older persistent snapshot (or not at all) and other pages at its
  // own timestamp. The writer alternates between commits of `t` alone and
  // commits of both `x` and `t`, so every committed state has t - x in
  // {0, 1}; the checkpoint makes the persistent snapshot older than all of
  // them.
  {
    auto setup = db_->Connect();
    for (const char* doc : {"x", "t"}) {
      ASSERT_TRUE(setup->Execute(std::string("CREATE DOCUMENT '") + doc +
                                 "'")
                      .ok());
      ASSERT_TRUE(setup
                      ->Execute(std::string("UPDATE insert <r>0</r> into "
                                            "doc('") +
                                doc + "')")
                      .ok());
    }
  }
  ASSERT_TRUE(db_->Checkpoint().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<int> failed_reads{0};
  std::atomic<int> reads{0};
  std::atomic<int> commits{0};

  std::thread writer([&] {
    auto session = db_->Connect();
    int t = 0;
    for (int round = 0; !stop.load(); ++round) {
      // Even rounds: t += 1 (t - x becomes 1). Odd rounds: x = t = t + 1.
      const bool both = round % 2 == 1;
      const int next_t = t + 1;
      if (!session->Begin().ok()) continue;
      bool ok = session
                    ->Execute("UPDATE replace $v in doc('t')/r with <r>" +
                              std::to_string(next_t) + "</r>")
                    .ok();
      if (ok && both) {
        ok = session
                 ->Execute("UPDATE replace $v in doc('x')/r with <r>" +
                           std::to_string(next_t) + "</r>")
                 .ok();
      }
      if (ok && session->Commit().ok()) {
        t = next_t;
        commits.fetch_add(1);
      } else {
        if (session->in_transaction()) (void)session->Abort();
        --round;  // retry the same kind of commit
      }
    }
  });

  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) {
    readers.emplace_back([&] {
      auto session = db_->Connect();
      while (!stop.load()) {
        if (!session->Begin(/*read_only=*/true).ok()) continue;
        auto r = session->Execute(
            "number(doc('t')/r) - number(doc('x')/r)");
        (void)session->Commit();
        reads.fetch_add(1);
        if (!r.ok()) {
          failed_reads.fetch_add(1);
        } else if (r->serialized != "0" && r->serialized != "1") {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0) << "torn snapshot observed";
  EXPECT_EQ(failed_reads.load(), 0) << "snapshot read failed";
  EXPECT_GT(reads.load(), 50);
  EXPECT_GT(commits.load(), 10);
}

TEST_F(ConcurrencyTest, RandomizedWorkloadMatchesReferenceModel) {
  // Single-threaded randomized statement mix over the full stack, checked
  // against simple counters (the storage-level reference-model test covers
  // structural equality; this covers the txn + statement layers).
  auto session = db_->Connect();
  ASSERT_TRUE(session->Execute("CREATE DOCUMENT 'w'").ok());
  ASSERT_TRUE(session->Execute("UPDATE insert <r/> into doc('w')").ok());
  Random rng(12);
  int64_t live = 0;
  int64_t next_id = 0;
  std::vector<int64_t> ids;
  for (int step = 0; step < 250; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.15 && !ids.empty()) {
      // Delete a random element.
      size_t pick = rng.Uniform(ids.size());
      auto r = session->Execute("UPDATE delete doc('w')/r/e[@id = '" +
                                std::to_string(ids[pick]) + "']");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->affected, 1u);
      ids.erase(ids.begin() + static_cast<long>(pick));
      live--;
    } else if (dice < 0.3 && !ids.empty()) {
      // Replace one element (content update).
      size_t pick = rng.Uniform(ids.size());
      auto r = session->Execute(
          "UPDATE replace $x in doc('w')/r/e[@id = '" +
          std::to_string(ids[pick]) + "'] with <e id=\"" +
          std::to_string(ids[pick]) + "\" touched=\"yes\"/>");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    } else if (dice < 0.4 && live > 0) {
      // Transaction that inserts then aborts: net zero.
      ASSERT_TRUE(session->Begin().ok());
      ASSERT_TRUE(session
                      ->Execute("UPDATE insert <e id=\"tmp\"/> "
                                "into doc('w')/r")
                      .ok());
      ASSERT_TRUE(session->Abort().ok());
    } else {
      int64_t id = next_id++;
      auto r = session->Execute("UPDATE insert <e id=\"" +
                                std::to_string(id) + "\"/> into doc('w')/r");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ids.push_back(id);
      live++;
    }
    if (step % 25 == 24) {
      auto count = session->Execute("count(doc('w')/r/e)");
      ASSERT_TRUE(count.ok());
      ASSERT_EQ(count->serialized, std::to_string(live))
          << "divergence at step " << step;
    }
  }
  // Survives a checkpoint + reopen with the same state.
  ASSERT_TRUE(db_->Checkpoint().ok());
  session.reset();
  db_.reset();
  auto reopened = Database::Open(options_);
  ASSERT_TRUE(reopened.ok());
  auto check = (*reopened)->Connect();
  auto count = check->Execute("count(doc('w')/r/e)");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->serialized, std::to_string(live));
}

// Early lock release: a writer releases its document lock at the commit
// point, before its fsync, so the next writer of the same document runs
// while that sync is in flight.
TEST_F(ConcurrencyTest, CommitPointSecondWriterRunsDuringTheFirstFsync) {
  CreateOverGate(Vfs::Default());
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  auto a = db_->Connect();
  auto b = db_->Connect();

  gate.BlockSyncs();
  Status a_st, b_st;
  std::thread writer_a([&] { a_st = a->Execute(SetValue("d", "a")).status(); });
  gate.WaitUntilSyncParked();  // A is past its commit point, in its fsync
  const uint64_t a_end = db_->txns()->wal()->end_lsn();
  std::thread writer_b([&] { b_st = b->Execute(SetValue("d", "b")).status(); });
  // B takes the X lock A released and appends its own commit record while
  // A's sync is still blocked.
  const bool b_committed =
      Eventually([&] { return CommitRecordsFrom(a_end) == 1; });
  gate.UnblockSyncs();
  writer_a.join();
  writer_b.join();

  EXPECT_TRUE(b_committed) << "B did not commit during A's fsync";
  EXPECT_TRUE(a_st.ok()) << a_st.ToString();
  EXPECT_TRUE(b_st.ok()) << b_st.ToString();
  auto read = a->Execute(GetValue("d"));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->serialized, "b");
  // Both commits are durable: no stamp is left to make a reader wait.
  EXPECT_EQ(db_->txns()->locks()->StampCount(), 0u);
}

// A reader of a document whose last commit is not yet durable does not
// return until it is; a reader of another document does not wait at all.
TEST_F(ConcurrencyTest, CommitPointReaderWaitsOnlyForWhatItRead) {
  CreateOverGate(Vfs::Default());
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  MakeDoc("e", "1");
  Counter* reader_waits = MetricsRegistry::Global().counter("wal.reader_waits");
  const uint64_t waits0 = reader_waits->value();
  auto writer = db_->Connect();
  auto reader = db_->Connect();
  auto other = db_->Connect();

  gate.BlockSyncs();
  Status write_st;
  std::thread writer_thread(
      [&] { write_st = writer->Execute(SetValue("d", "a")).status(); });
  gate.WaitUntilSyncParked();

  std::atomic<bool> d_returned{false};
  StatusOr<QueryResult> d_read = Status::Internal("not run");
  std::thread reader_thread([&] {
    d_read = reader->Execute(GetValue("d"));
    d_returned = true;
  });
  // Another document reads at once while the sync is still blocked.
  auto e_read = other->Execute(GetValue("e"));
  ASSERT_TRUE(e_read.ok()) << e_read.status().ToString();
  EXPECT_EQ(e_read->serialized, "1");
  // The reader of d is parked on the log, not on a lock.
  EXPECT_TRUE(Eventually([&] { return reader_waits->value() > waits0; }));
  EXPECT_FALSE(d_returned.load());
  EXPECT_EQ(reader_waits->value(), waits0 + 1);

  gate.UnblockSyncs();
  writer_thread.join();
  reader_thread.join();
  EXPECT_TRUE(write_st.ok()) << write_st.ToString();
  ASSERT_TRUE(d_read.ok()) << d_read.status().ToString();
  EXPECT_EQ(d_read->serialized, "a");
}

// A sync that fails after the commit point: the committer gets the I/O
// error, the database degrades, and no reader of the unsynced commit gets
// an answer. Nothing is rolled back; recovery decides.
TEST_F(ConcurrencyTest, CommitPointFailedSyncReachesReadersOfThatCommit) {
  CreateOverGate(&fault_vfs_);
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  MakeDoc("e", "1");
  auto writer = db_->Connect();
  auto reader = db_->Connect();

  gate.BlockSyncs();
  Status write_st;
  std::thread writer_thread(
      [&] { write_st = writer->Execute(SetValue("d", "a")).status(); });
  gate.WaitUntilSyncParked();
  // The parked sync is the next counted operation: fail it.
  fault_vfs_.ScheduleTransientFailureAtOp(fault_vfs_.op_count());
  gate.UnblockSyncs();
  writer_thread.join();

  EXPECT_EQ(write_st.code(), StatusCode::kIOError) << write_st.ToString();
  EXPECT_TRUE(db_->degraded());
  auto d_read = reader->Execute(GetValue("d"));
  EXPECT_EQ(d_read.status().code(), StatusCode::kIOError);
  auto e_read = reader->Execute(GetValue("e"));
  ASSERT_TRUE(e_read.ok()) << e_read.status().ToString();
  EXPECT_EQ(e_read->serialized, "1");

  reader.reset();
  writer.reset();
  Reopen();
  auto check = db_->Connect();
  auto recovered = check->Execute(GetValue("d"));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->serialized == "0" || recovered->serialized == "a")
      << recovered->serialized;
}

// An error is an answer too. A statement that fails on what an unsynced
// commit did — doc('d') after an unsynced DROP DOCUMENT, CREATE DOCUMENT
// after an unsynced create — returns its error only once that commit is
// durable: after a crash the document could be back, or gone.
TEST_F(ConcurrencyTest, CommitPointFailedStatementWaitsForWhatItRead) {
  CreateOverGate(Vfs::Default());
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  Counter* reader_waits = MetricsRegistry::Global().counter("wal.reader_waits");
  auto writer = db_->Connect();
  auto reader = db_->Connect();

  // Runs `first` until its fsync parks, then `second`, which must wait in
  // its abort for that fsync; returns both statuses after the unblock.
  auto race = [&](const std::string& first, const std::string& second) {
    gate.BlockSyncs();
    Status first_st, second_st;
    std::thread first_thread(
        [&] { first_st = writer->Execute(first).status(); });
    gate.WaitUntilSyncParked();
    const uint64_t waits0 = reader_waits->value();
    std::atomic<bool> second_returned{false};
    std::thread second_thread([&] {
      second_st = reader->Execute(second).status();
      second_returned = true;
    });
    EXPECT_TRUE(Eventually([&] { return reader_waits->value() > waits0; }))
        << second << " did not wait for the log";
    EXPECT_FALSE(second_returned.load()) << second << " answered early";
    gate.UnblockSyncs();
    first_thread.join();
    second_thread.join();
    EXPECT_TRUE(first_st.ok()) << first_st.ToString();
    return second_st;
  };

  EXPECT_EQ(race("DROP DOCUMENT 'd'", "doc('d')").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(race("CREATE DOCUMENT 'n'", "CREATE DOCUMENT 'n'").code(),
            StatusCode::kAlreadyExists);
}

// When that commit's sync fails, the failed statement gets the sticky I/O
// error, not the error it computed from the unsynced commit.
TEST_F(ConcurrencyTest, CommitPointFailedSyncReachesFailedStatements) {
  CreateOverGate(&fault_vfs_);
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  Counter* reader_waits = MetricsRegistry::Global().counter("wal.reader_waits");
  auto writer = db_->Connect();
  auto reader = db_->Connect();

  gate.BlockSyncs();
  Status drop_st;
  std::thread drop_thread(
      [&] { drop_st = writer->Execute("DROP DOCUMENT 'd'").status(); });
  gate.WaitUntilSyncParked();
  const uint64_t waits0 = reader_waits->value();
  std::atomic<bool> read_returned{false};
  Status read_st;
  std::thread read_thread([&] {
    read_st = reader->Execute("doc('d')").status();
    read_returned = true;
  });
  EXPECT_TRUE(Eventually([&] { return reader_waits->value() > waits0; }));
  EXPECT_FALSE(read_returned.load());
  // The parked sync is the next counted operation: fail it.
  fault_vfs_.ScheduleTransientFailureAtOp(fault_vfs_.op_count());
  gate.UnblockSyncs();
  drop_thread.join();
  read_thread.join();

  EXPECT_EQ(drop_st.code(), StatusCode::kIOError) << drop_st.ToString();
  EXPECT_EQ(read_st.code(), StatusCode::kIOError) << read_st.ToString();
  EXPECT_TRUE(db_->degraded());

  reader.reset();
  writer.reset();
  Reopen();
  auto check = db_->Connect();
  auto recovered = check->Execute(GetValue("d"));
  if (recovered.ok()) {
    EXPECT_EQ(recovered->serialized, "0");
  } else {
    EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  }
}

// index-lookup() resolves the index name before it takes any lock, so
// after a DROP INDEX whose fsync is in flight it fails at once, with no lock
// stamp to wait for. A failed statement waits for every commit published
// before it failed, so that NotFound, too, comes only once the drop is
// durable — after a crash the index could be back.
TEST_F(ConcurrencyTest, CommitPointFailedIndexLookupWaitsForTheDrop) {
  CreateOverGate(Vfs::Default());
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  Counter* reader_waits = MetricsRegistry::Global().counter("wal.reader_waits");
  auto writer = db_->Connect();
  auto reader = db_->Connect();
  ASSERT_TRUE(writer->Execute("CREATE INDEX 'n' ON doc('d')//v").ok());

  gate.BlockSyncs();
  Status drop_st;
  std::thread drop_thread(
      [&] { drop_st = writer->Execute("DROP INDEX 'n'").status(); });
  gate.WaitUntilSyncParked();
  const uint64_t waits0 = reader_waits->value();
  std::atomic<bool> lookup_returned{false};
  Status lookup_st;
  std::thread lookup_thread([&] {
    lookup_st = reader->Execute("count(index-lookup('n', '0'))").status();
    lookup_returned = true;
  });
  EXPECT_TRUE(Eventually([&] { return reader_waits->value() > waits0; }))
      << "the lookup did not wait for the log";
  EXPECT_FALSE(lookup_returned.load()) << "the lookup answered early";
  gate.UnblockSyncs();
  drop_thread.join();
  lookup_thread.join();

  EXPECT_TRUE(drop_st.ok()) << drop_st.ToString();
  EXPECT_EQ(lookup_st.code(), StatusCode::kNotFound) << lookup_st.ToString();
}

// When the drop's sync fails, that lookup gets the sticky I/O error.
TEST_F(ConcurrencyTest, CommitPointFailedSyncReachesAFailedIndexLookup) {
  CreateOverGate(&fault_vfs_);
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  Counter* reader_waits = MetricsRegistry::Global().counter("wal.reader_waits");
  auto writer = db_->Connect();
  auto reader = db_->Connect();
  ASSERT_TRUE(writer->Execute("CREATE INDEX 'n' ON doc('d')//v").ok());

  gate.BlockSyncs();
  Status drop_st;
  std::thread drop_thread(
      [&] { drop_st = writer->Execute("DROP INDEX 'n'").status(); });
  gate.WaitUntilSyncParked();
  const uint64_t waits0 = reader_waits->value();
  std::atomic<bool> lookup_returned{false};
  Status lookup_st;
  std::thread lookup_thread([&] {
    lookup_st = reader->Execute("count(index-lookup('n', '0'))").status();
    lookup_returned = true;
  });
  EXPECT_TRUE(Eventually([&] { return reader_waits->value() > waits0; }));
  EXPECT_FALSE(lookup_returned.load());
  // The parked sync is the next counted operation: fail it.
  fault_vfs_.ScheduleTransientFailureAtOp(fault_vfs_.op_count());
  gate.UnblockSyncs();
  drop_thread.join();
  lookup_thread.join();

  EXPECT_EQ(drop_st.code(), StatusCode::kIOError) << drop_st.ToString();
  EXPECT_EQ(lookup_st.code(), StatusCode::kIOError) << lookup_st.ToString();
  EXPECT_TRUE(db_->degraded());
}

// Governance ends at the commit point: a statement cancelled before its
// commit record is written rolls back; one cancelled while it waits for
// the fsync of a written record commits.
TEST_F(ConcurrencyTest, CommitPointGovernance) {
  CreateOverGate(Vfs::Default());
  SyncGateVfs& gate = *gate_;
  MakeDoc("d", "0");
  MakeDoc("e", "1");
  auto creator = db_->Connect();
  auto leader = db_->Connect();
  auto follower = db_->Connect();

  // Cancelled while logging its statement, before the commit record.
  gate.BlockAppends();
  Status create_st;
  std::thread create_thread(
      [&] { create_st = creator->Execute("CREATE DOCUMENT 'z'").status(); });
  gate.WaitUntilAppendParked();
  creator->Cancel();
  gate.UnblockAppends();
  create_thread.join();
  EXPECT_EQ(create_st.code(), StatusCode::kCancelled) << create_st.ToString();

  // Cancelled while waiting for the durability of its commit record: as
  // the sync's leader, and as a follower of it.
  gate.BlockSyncs();
  Status leader_st, follower_st;
  std::thread leader_thread(
      [&] { leader_st = leader->Execute(SetValue("d", "a")).status(); });
  gate.WaitUntilSyncParked();
  const uint64_t leader_end = db_->txns()->wal()->end_lsn();
  std::thread follower_thread(
      [&] { follower_st = follower->Execute(SetValue("e", "b")).status(); });
  EXPECT_TRUE(Eventually([&] { return CommitRecordsFrom(leader_end) == 1; }));
  leader->Cancel();
  follower->Cancel();
  gate.UnblockSyncs();
  leader_thread.join();
  follower_thread.join();
  EXPECT_TRUE(leader_st.ok()) << leader_st.ToString();
  EXPECT_TRUE(follower_st.ok()) << follower_st.ToString();

  creator.reset();
  leader.reset();
  follower.reset();
  Reopen();
  auto check = db_->Connect();
  EXPECT_EQ(check->Execute("doc('z')").status().code(), StatusCode::kNotFound);
  auto d = check->Execute(GetValue("d"));
  auto e = check->Execute(GetValue("e"));
  ASSERT_TRUE(d.ok() && e.ok());
  EXPECT_EQ(d->serialized, "a");
  EXPECT_EQ(e->serialized, "b");
}

}  // namespace
}  // namespace sedna
