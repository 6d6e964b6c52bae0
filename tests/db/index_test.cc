// Value-index feature tests (paper §4.1.2: handles as index entries;
// §6.4: 'create index' as a logged operation).

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "db/database.h"
#include "tests/common/test_paths.h"

namespace sedna {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = TestTempPath(std::string("ix_") +
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name());
    options_.path = base_ + ".sedna";
    options_.wal_path = base_ + ".wal";
    std::remove(options_.path.c_str());
    std::remove(options_.wal_path.c_str());
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    session_ = db_->Connect();
    rebuilds0_ = rebuilds_->value();
    maintenance_ops0_ = maintenance_ops_->value();
    Exec("CREATE DOCUMENT 'cat'");
    Exec("UPDATE insert <items>"
         "<item><sku>aa</sku><price>10</price></item>"
         "<item><sku>bb</sku><price>20</price></item>"
         "<item><sku>cc</sku><price>20</price></item>"
         "</items> into doc('cat')");
  }

  std::string Exec(const std::string& stmt) {
    auto r = session_->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n -> " << r.status().ToString();
    return r.ok() ? r->serialized : "<error>";
  }

  void Reopen() {
    session_.reset();
    db_.reset();
    auto reopened = Database::Open(options_);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    db_ = std::move(reopened).value();
    session_ = db_->Connect();
  }

  // The index.* registry counters are process-wide: read them as deltas
  // since SetUp.
  uint64_t Rebuilds() const { return rebuilds_->value() - rebuilds0_; }
  uint64_t MaintenanceOps() const {
    return maintenance_ops_->value() - maintenance_ops0_;
  }

  Counter* rebuilds_ = MetricsRegistry::Global().counter("index.rebuilds");
  Counter* maintenance_ops_ =
      MetricsRegistry::Global().counter("index.maintenance_ops");
  uint64_t rebuilds0_ = 0;
  uint64_t maintenance_ops0_ = 0;
  std::string base_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(IndexTest, CreateAndLookup) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  EXPECT_EQ(Exec("index-lookup('by-sku', 'bb')"), "<sku>bb</sku>");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'zz'))"), "0");
}

TEST_F(IndexTest, LookupMatchesPredicateQuery) {
  Exec("CREATE INDEX 'by-price' ON doc('cat')//price");
  EXPECT_EQ(Exec("count(index-lookup('by-price', '20'))"), "2");
  EXPECT_EQ(Exec("count(doc('cat')//price[. = '20'])"), "2");
  // Navigate from index results like any node: parent axis works.
  EXPECT_EQ(Exec("string(index-lookup('by-price', '10')/../sku)"), "aa");
}

TEST_F(IndexTest, UpdatesMaintainIncrementally) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'dd'))"), "0");
  Exec("UPDATE insert <item><sku>dd</sku><price>5</price></item> "
       "into doc('cat')/items");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'dd'))"), "1");
  Exec("UPDATE delete doc('cat')//item[sku = 'bb']");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'bb'))"), "0");
  // The persistent index was maintained in place: the only build is the
  // one CREATE INDEX ran, and both updates went through the incremental
  // path.
  EXPECT_EQ(Rebuilds(), 1u);
  EXPECT_GE(MaintenanceOps(), 2u);
}

TEST_F(IndexTest, ReplaceRekeysValueAndAncestors) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  // An index over //item keys on the item's *concatenated* string value,
  // so changing a grandchild text must re-key the covered ancestor.
  Exec("CREATE INDEX 'by-item' ON doc('cat')//item");
  EXPECT_EQ(Exec("count(index-lookup('by-item', 'aa10'))"), "1");
  Exec("UPDATE replace $x in doc('cat')//item[sku = 'aa']/sku "
       "with <sku>zz</sku>");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'aa'))"), "0");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'zz'))"), "1");
  EXPECT_EQ(Exec("count(index-lookup('by-item', 'aa10'))"), "0");
  EXPECT_EQ(Exec("count(index-lookup('by-item', 'zz10'))"), "1");
  EXPECT_EQ(Rebuilds(), 2u);  // the two initial builds
}

TEST_F(IndexTest, LookupReturnsDocumentOrder) {
  // Regression for the old contract ("callers sort if they care"): lookup
  // results must come back deduplicated in document order, byte-identical
  // to the eager predicate scan.
  Exec("CREATE INDEX 'by-price' ON doc('cat')//price");
  EXPECT_EQ(Exec("index-lookup('by-price', '20')"),
            Exec("doc('cat')//price[. = '20']"));
  // Entries inserted later must merge into position, not append.
  Exec("UPDATE insert <item><sku>ab</sku><price>20</price></item> "
       "preceding doc('cat')//item[sku = 'bb']");
  EXPECT_EQ(Exec("index-lookup('by-price', '20')"),
            Exec("doc('cat')//price[. = '20']"));
}

TEST_F(IndexTest, InvalidationScopedPerDocument) {
  // A predicated definition is non-structural: the statement that updates
  // its document rebuilds it, inside that statement's transaction. Updates
  // look only at the updated document's indexes, which is the scoping this
  // test pins down.
  Exec("CREATE DOCUMENT 'other'");
  Exec("UPDATE insert <r><v>1</v></r> into doc('other')");
  Exec("CREATE INDEX 'by-disc' ON doc('cat')//item[price = '20']/sku");
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'bb'))"), "1");
  uint64_t builds = Rebuilds();
  // An update to an unrelated document must not rebuild this index.
  Exec("UPDATE insert <v>2</v> into doc('other')/r");
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'bb'))"), "1");
  EXPECT_EQ(Rebuilds(), builds);
  // An update to the indexed document rebuilds it.
  Exec("UPDATE insert <item><sku>ee</sku><price>20</price></item> "
       "into doc('cat')/items");
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'ee'))"), "1");
  EXPECT_EQ(Rebuilds(), builds + 1);
}

TEST_F(IndexTest, HandlesSurviveBlockSplits) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  // Force many inserts so the item blocks split and descriptors move;
  // stale index entries must still resolve through node handles.
  auto warm = session_->Execute("index-lookup('by-sku', 'aa')");
  ASSERT_TRUE(warm.ok());
  for (int i = 0; i < 400; ++i) {
    Exec("UPDATE insert <item><sku>s" + std::to_string(i) +
         "</sku><price>1</price></item> into doc('cat')/items");
  }
  EXPECT_EQ(Exec("string(index-lookup('by-sku', 's123')/../price)"), "1");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'aa'))"), "1");
}

TEST_F(IndexTest, DropIndex) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  Exec("DROP INDEX 'by-sku'");
  auto r = session_->Execute("index-lookup('by-sku', 'aa')");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  auto drop_again = session_->Execute("DROP INDEX 'by-sku'");
  EXPECT_EQ(drop_again.status().code(), StatusCode::kNotFound);
}

TEST_F(IndexTest, ErrorsAreReported) {
  // Path not anchored at doc().
  EXPECT_FALSE(session_->Execute("CREATE INDEX 'bad' ON (1, 2, 3)").ok());
  // Unknown document.
  EXPECT_FALSE(
      session_->Execute("CREATE INDEX 'bad' ON doc('nope')//x").ok());
  // Duplicate name.
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  auto dup = session_->Execute("CREATE INDEX 'by-sku' ON doc('cat')//price");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(IndexTest, DefinitionsSurviveCheckpointAndReopen) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  ASSERT_TRUE(db_->Checkpoint().ok());
  const uint64_t builds = Rebuilds();
  Reopen();
  EXPECT_EQ(Exec("string(index-lookup('by-sku', 'cc'))"), "cc");
  // The B+tree pages were checkpointed with the node blocks: the reopened
  // database answers from the persistent tree without a single rebuild.
  EXPECT_EQ(Rebuilds(), builds);
}

TEST_F(IndexTest, PlannerChoosesIndexScanAutomatically) {
  // Enough rows that the cost model prefers the probe (est_rows = 1 vs a
  // block scan over every <item>).
  for (int i = 0; i < 32; ++i) {
    Exec("UPDATE insert <item><sku>s" + std::to_string(i) +
         "</sku><price>7</price></item> into doc('cat')/items");
  }
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");

  auto plan = session_->Execute("explain doc('cat')//item[sku = 's17']");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->serialized.find("index-scan[by-sku"), std::string::npos)
      << plan->serialized;

  auto probe = session_->Execute("doc('cat')//item[sku = 's17']");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->stats.index_scans.load(), 1u);
  EXPECT_EQ(probe->serialized, "<item><sku>s17</sku><price>7</price></item>");

  // A predicate no index covers keeps the scan plan.
  auto scan = session_->Execute("doc('cat')//item[price = '7']");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->stats.index_scans.load(), 0u);
}

TEST_F(IndexTest, IndexPlanMatchesScanPlanByteForByte) {
  for (int i = 0; i < 32; ++i) {
    Exec("UPDATE insert <item><sku>t" + std::to_string(i % 8) +
         "</sku><price>9</price></item> into doc('cat')/items");
  }
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  // Multi-hit key: order and dedup must match the scan, not just the set.
  const std::string query = "doc('cat')//item[sku = 't3']";

  auto indexed = session_->Execute(query);
  ASSERT_TRUE(indexed.ok());
  ASSERT_GE(indexed->stats.index_scans.load(), 1u);

  // Same statement with the value-index rewriter pass off: the executor
  // never sees an index candidate and runs the block-scan plan.
  RewriteOptions no_index;
  no_index.use_value_indexes = false;
  auto scanned = session_->Execute(query, no_index);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->stats.index_scans.load(), 0u);
  EXPECT_EQ(indexed->serialized, scanned->serialized);
}

TEST_F(IndexTest, CreateIndexIsWalLoggedAndRecovered) {
  ASSERT_TRUE(db_->Checkpoint().ok());
  Exec("CREATE INDEX 'by-price' ON doc('cat')//price");
  ASSERT_TRUE(db_->txns()->wal()->Sync().ok());
  // Crash simulation: data as-of checkpoint + current WAL.
  std::string crash_copy = base_ + ".crash";
  {
    std::ifstream in(options_.path, std::ios::binary);
    std::ofstream out(crash_copy, std::ios::binary);
    out << in.rdbuf();
  }
  session_.reset();
  db_.reset();
  std::remove(options_.path.c_str());
  std::rename(crash_copy.c_str(), options_.path.c_str());
  auto reopened = Database::Open(options_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_ = std::move(reopened).value();
  session_ = db_->Connect();
  EXPECT_EQ(Exec("count(index-lookup('by-price', '20'))"), "2");
}

// --- an index is part of its document's state -------------------------------
// The definition lives in the document's metadata and its tree pages are
// versioned like node blocks, so checkpoint, reopen, abort and DROP
// DOCUMENT carry the index with the document; reads never write.

TEST_F(IndexTest, NonStructuralIndexIsCurrentAfterCheckpointAndReopen) {
  Exec("CREATE INDEX 'by-disc' ON doc('cat')//item[price = '20']/sku");
  Exec("UPDATE insert <item><sku>ff</sku><price>20</price></item> "
       "into doc('cat')/items");
  ASSERT_TRUE(db_->Checkpoint().ok());
  Reopen();
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'ff'))"), "1");
  EXPECT_EQ(Exec("count(doc('cat')//item[price = '20']/sku[. = 'ff'])"), "1");
}

TEST_F(IndexTest, ReadOnlyTransactionReadsAnUpdatedIndex) {
  Exec("CREATE INDEX 'by-disc' ON doc('cat')//item[price = '20']/sku");
  Exec("UPDATE insert <item><sku>ee</sku><price>20</price></item> "
       "into doc('cat')/items");
  ASSERT_TRUE(session_->Begin(/*read_only=*/true).ok());
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'ee'))"), "1");
  EXPECT_TRUE(session_->Commit().ok());
}

TEST_F(IndexTest, AbortedReaderLeavesTheIndexIntact) {
  Exec("CREATE INDEX 'by-disc' ON doc('cat')//item[price = '20']/sku");
  Exec("UPDATE insert <item><sku>ee</sku><price>20</price></item> "
       "into doc('cat')/items");
  ASSERT_TRUE(session_->Begin(/*read_only=*/false).ok());
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'ee'))"), "1");
  ASSERT_TRUE(session_->Abort().ok());
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'ee'))"), "1");
  EXPECT_EQ(Exec("count(index-lookup('by-disc', 'bb'))"), "1");
  Status consistency = db_->CheckConsistency();
  EXPECT_TRUE(consistency.ok()) << consistency.ToString();
}

TEST_F(IndexTest, CreateIndexRollsBackWithItsTransaction) {
  Exec("CREATE DOCUMENT 'd'");
  Exec("UPDATE insert <r><a>1</a><a>2</a></r> into doc('d')");
  ASSERT_TRUE(session_->Begin(/*read_only=*/false).ok());
  Exec("CREATE INDEX 'ia' ON doc('d')//a");
  EXPECT_EQ(Exec("count(index-lookup('ia', '1'))"), "1");
  ASSERT_TRUE(session_->Abort().ok());
  EXPECT_EQ(session_->Execute("index-lookup('ia', '1')").status().code(),
            StatusCode::kNotFound);
  Exec("CREATE INDEX 'ia' ON doc('d')//a");
  EXPECT_EQ(Exec("count(index-lookup('ia', '1'))"), "1");
  Status consistency = db_->CheckConsistency();
  EXPECT_TRUE(consistency.ok()) << consistency.ToString();
}

TEST_F(IndexTest, DropIndexRollsBackWithItsTransaction) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  const std::string before = Exec("index-lookup('by-sku', 'bb')");
  ASSERT_TRUE(session_->Begin(/*read_only=*/false).ok());
  Exec("DROP INDEX 'by-sku'");
  ASSERT_TRUE(session_->Abort().ok());
  EXPECT_EQ(Exec("index-lookup('by-sku', 'bb')"), before);
  Exec("UPDATE insert <item><sku>dd</sku><price>5</price></item> "
       "into doc('cat')/items");
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'dd'))"), "1");
  Status consistency = db_->CheckConsistency();
  EXPECT_TRUE(consistency.ok()) << consistency.ToString();
}

TEST_F(IndexTest, DropDocumentRollsBackWithItsIndexes) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  Exec("CREATE INDEX 'by-disc' ON doc('cat')//item[price = '20']/sku");
  const std::string sku_before = Exec("index-lookup('by-sku', 'bb')");
  const std::string disc_before = Exec("index-lookup('by-disc', 'cc')");
  ASSERT_TRUE(session_->Begin(/*read_only=*/false).ok());
  Exec("DROP DOCUMENT 'cat'");
  ASSERT_TRUE(session_->Abort().ok());
  EXPECT_EQ(Exec("index-lookup('by-sku', 'bb')"), sku_before);
  EXPECT_EQ(Exec("index-lookup('by-disc', 'cc')"), disc_before);
  Status consistency = db_->CheckConsistency();
  EXPECT_TRUE(consistency.ok()) << consistency.ToString();
  // A committed drop takes the indexes with the document.
  Exec("DROP DOCUMENT 'cat'");
  EXPECT_EQ(session_->Execute("index-lookup('by-sku', 'bb')").status().code(),
            StatusCode::kNotFound);
}

TEST_F(IndexTest, IndexLookupAndDropIndexTakeTheDocumentLock) {
  Exec("CREATE INDEX 'by-sku' ON doc('cat')//sku");
  auto writer = db_->Connect();
  ASSERT_TRUE(writer->Begin(/*read_only=*/false).ok());
  ASSERT_TRUE(writer
                  ->Execute("UPDATE insert <item><sku>w</sku><price>1</price>"
                            "</item> into doc('cat')/items")
                  .ok());
  // The writer's open transaction holds the X lock on 'cat'.
  session_->set_statement_timeout(std::chrono::milliseconds(100));
  EXPECT_EQ(session_->Execute("index-lookup('by-sku', 'aa')").status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session_->Execute("DROP INDEX 'by-sku'").status().code(),
            StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(writer->Commit().ok());
  session_->set_statement_timeout(std::chrono::nanoseconds(0));
  EXPECT_EQ(Exec("count(index-lookup('by-sku', 'w'))"), "1");
}

TEST_F(IndexTest, SnapshotReadersWhileIndexDdlRuns) {
  // Enough rows that the planner prefers a probe whenever the index exists.
  for (int i = 0; i < 32; ++i) {
    Exec("UPDATE insert <item><sku>s" + std::to_string(i) +
         "</sku><price>7</price></item> into doc('cat')/items");
  }
  const std::string planned_query = "doc('cat')//item[sku = 's17']";
  const std::string lookup_query = "index-lookup('by-sku', 's17')";
  const std::string scan_answer = Exec(planned_query);
  const std::string lookup_answer = "<sku>s17</sku>";

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> index_served{0};
  std::mutex bad_mu;
  std::vector<std::string> bad;  // reads that were neither answer
  auto check = [&](const std::string& what, const StatusOr<QueryResult>& r,
                   const std::string& want) {
    if (r.ok() ? r->serialized == want
               : r.status().code() == StatusCode::kNotFound) {
      return;
    }
    std::lock_guard<std::mutex> lock(bad_mu);
    bad.push_back(what + " -> " +
                  (r.ok() ? r->serialized : r.status().ToString()));
  };
  auto reader = [&] {
    auto s = db_->Connect();
    while (!stop.load()) {
      Status begun = s->Begin(/*read_only=*/true);
      if (!begun.ok()) {
        std::lock_guard<std::mutex> lock(bad_mu);
        bad.push_back("Begin -> " + begun.ToString());
        return;
      }
      auto planned = s->Execute(planned_query);
      check(planned_query, planned, scan_answer);
      if (planned.ok() && planned->stats.index_scans.load() > 0) {
        index_served.fetch_add(1);
      }
      auto looked = s->Execute(lookup_query);
      check(lookup_query, looked, lookup_answer);
      if (looked.ok()) index_served.fetch_add(1);
      Status committed = s->Commit();
      if (!committed.ok()) {
        std::lock_guard<std::mutex> lock(bad_mu);
        bad.push_back("Commit -> " + committed.ToString());
      }
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  // The fourth session creates and drops the index, committing some rounds
  // and aborting others. (No ASSERT while the readers run: they must be
  // joined.)
  auto ddl = db_->Connect();
  auto ok = [](const Status& st, const std::string& what) {
    EXPECT_TRUE(st.ok()) << what << " -> " << st.ToString();
    return st.ok();
  };
  auto run = [&](const std::string& stmt) {
    return ok(ddl->Execute(stmt).status(), stmt);
  };
  const std::string create = "CREATE INDEX 'by-sku' ON doc('cat')//sku";
  const std::string drop = "DROP INDEX 'by-sku'";
  // A committed index stays until the readers have been served by it, so
  // the drop that follows races readers whose snapshots see the tree.
  int starved = 0;  // waits that timed out
  auto await_served = [&] {
    const uint64_t target = index_served.load() + 1;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (index_served.load() < target) {
      if (std::chrono::steady_clock::now() > deadline) {
        ++starved;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  for (int round = 0; round < 24; ++round) {
    if (!ok(ddl->Begin(/*read_only=*/false), "Begin") || !run(create)) break;
    if (round % 3 == 0) {
      if (!ok(ddl->Abort(), "Abort")) break;
      continue;
    }
    if (!ok(ddl->Commit(), "Commit")) break;
    await_served();
    if (!ok(ddl->Begin(/*read_only=*/false), "Begin") || !run(drop)) break;
    const bool committed = round % 3 == 2;
    if (!ok(committed ? ddl->Commit() : ddl->Abort(), "End") ||
        (!committed && !run(drop))) {
      break;
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(starved, 0) << "readers were never served by a committed index";
  EXPECT_TRUE(bad.empty()) << bad.size() << " bad reads, first: " << bad[0];
  Status consistency = db_->CheckConsistency();
  EXPECT_TRUE(consistency.ok()) << consistency.ToString();
  ddl.reset();
  EXPECT_EQ(db_->storage()->buffers()->PinnedFrameCount(), 0u);
}

}  // namespace
}  // namespace sedna
