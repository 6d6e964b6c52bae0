// Multi-threaded stress tests over the full public API: concurrent writer
// sessions on disjoint and shared documents, snapshot readers racing with
// updaters, and a randomized workload validated against a reference model.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "db/database.h"

namespace sedna {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "cc_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    options_.path = base_ + ".sedna";
    options_.wal_path = base_ + ".wal";
    options_.buffer_frames = 2048;
    std::remove(options_.path.c_str());
    std::remove(options_.wal_path.c_str());
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  std::string base_;
  DatabaseOptions options_;
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

}  // namespace
}  // namespace sedna
