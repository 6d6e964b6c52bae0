// Index crash-torture suite.
//
// A scripted workload exercises the whole persistent-index lifecycle —
// CREATE INDEX, incremental maintenance under insert/delete/replace,
// checkpoints (which flush B+tree pages with the node blocks), DROP INDEX,
// re-creation — on top of a FaultInjectingVfs with a crash scheduled at
// some operation index. After the crash the vfs reboots, the database
// recovers, and the index invariants are checked:
//
//   1. recovery succeeds and CheckConsistency is green — which since the
//      index subsystem landed includes a structural walk of every B+tree
//      page and resolution of every stored handle through the indirection
//      table,
//   2. every surviving index answers lookups byte-identical to (a) the
//      equivalent scan predicate over the recovered document and (b) a
//      second index built from scratch on the same path over the same data,
//   3. no buffer frame stays pinned once sessions are gone.
//
// Crash points sweep the full op stream in both crash styles plus aimed
// trials inside every checkpoint. Every trial is seeded and deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/fault_vfs.h"
#include "common/metrics.h"
#include "db/database.h"

namespace sedna {
namespace {

struct TortureStep {
  bool checkpoint = false;
  std::string stmt;
};

// The index lifecycle workload. 'inv' is indexed from the start and lives
// through splits-by-volume; 'sec' is created late, dropped, and re-created
// so crashes land inside create/drop; every mutation batch runs through the
// incremental maintenance path of whichever indexes exist at that point.
std::vector<TortureStep> Script() {
  std::vector<TortureStep> steps;
  auto stmt = [&](const std::string& s) { steps.push_back({false, s}); };
  auto checkpoint = [&] { steps.push_back({true, ""}); };

  stmt("CREATE DOCUMENT 'inv'");
  stmt("UPDATE insert <items></items> into doc('inv')");
  for (int i = 0; i < 12; ++i) {
    stmt("UPDATE insert <item><sku>a" + std::to_string(i) +
         "</sku><qty>base</qty></item> into doc('inv')/items");
  }
  stmt("CREATE INDEX 'by-sku' ON doc('inv')//sku");
  checkpoint();
  for (int i = 0; i < 8; ++i) {
    stmt("UPDATE insert <item><sku>b" + std::to_string(i) +
         "</sku><qty>hot</qty></item> into doc('inv')/items");
  }
  stmt("UPDATE delete doc('inv')//item[sku = 'a3']");
  stmt("UPDATE replace $x in doc('inv')//item[sku = 'a5']/sku "
       "with <sku>a5x</sku>");
  checkpoint();
  stmt("CREATE INDEX 'by-qty' ON doc('inv')//qty");
  stmt("UPDATE insert <item><sku>c0</sku><qty>hot</qty></item> "
       "into doc('inv')/items");
  stmt("DROP INDEX 'by-qty'");
  stmt("CREATE INDEX 'by-qty' ON doc('inv')//qty");
  checkpoint();
  stmt("UPDATE delete doc('inv')//item[qty = 'hot']");
  stmt("UPDATE insert <item><sku>d0</sku><qty>cold</qty></item> "
       "into doc('inv')/items");
  return steps;
}

DatabaseOptions TortureOptions(Vfs* vfs) {
  DatabaseOptions options;
  options.path = "/ixtorture/db.data";
  options.wal_path = "/ixtorture/db.wal";
  options.buffer_frames = 64;
  options.vfs = vfs;
  return options;
}

// Probe keys spanning hits, misses, re-keyed and deleted values.
const char* kSkuProbes[] = {"a0", "a3", "a5", "a5x", "b1", "b7",
                            "c0", "d0", "zz"};
const char* kQtyProbes[] = {"base", "hot", "cold", "zz"};

/// index-lookup results for every probe key, or empty strings where the
/// index (or key) is absent. kNotFound is the only acceptable error.
std::vector<std::string> Probe(Session* s, const std::string& index,
                               const char* const* keys, size_t n,
                               bool* index_exists) {
  std::vector<std::string> out;
  *index_exists = false;
  for (size_t i = 0; i < n; ++i) {
    auto r = s->Execute("index-lookup('" + index + "', '" +
                        std::string(keys[i]) + "')");
    if (r.ok()) {
      *index_exists = true;
      out.push_back(r->serialized);
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
          << index << "/" << keys[i] << ": " << r.status().ToString();
      out.push_back("");
    }
  }
  return out;
}

void RunCrashTrial(uint64_t rel_crash, CrashStyle style, uint64_t seed) {
  SCOPED_TRACE("crash_at=" + std::to_string(rel_crash) + " style=" +
               (style == CrashStyle::kTornWrites ? "torn" : "lose-unsynced") +
               " seed=" + std::to_string(seed));
  FaultInjectingVfs vfs(seed);
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(created).value();

  vfs.ScheduleCrashAtOp(vfs.op_count() + rel_crash, style);
  {
    auto session = db->Connect();
    for (const TortureStep& step : Script()) {
      bool ok = step.checkpoint ? db->Checkpoint().ok()
                                : session->Execute(step.stmt).ok();
      if (!ok) break;  // the crash fired
    }
  }
  db.reset();

  vfs.Recover();
  vfs.ClearFaults();
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok())
      << "recovery failed: " << reopened.status().ToString();
  db = std::move(reopened).value();

  // Invariant 1: the consistency sweep (node blocks + every B+tree)
  // is green right after recovery.
  ASSERT_TRUE(db->CheckConsistency().ok());

  {
    auto session = db->Connect();
    // Invariant 2a: surviving indexes agree with the scan plan over the
    // recovered document, key by key.
    bool has_sku = false, has_qty = false;
    std::vector<std::string> sku_recovered = Probe(
        session.get(), "by-sku", kSkuProbes, std::size(kSkuProbes), &has_sku);
    std::vector<std::string> qty_recovered = Probe(
        session.get(), "by-qty", kQtyProbes, std::size(kQtyProbes), &has_qty);
    if (has_sku) {
      for (size_t i = 0; i < std::size(kSkuProbes); ++i) {
        auto scan = session->Execute("doc('inv')//sku[. = '" +
                                     std::string(kSkuProbes[i]) + "']");
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        EXPECT_EQ(sku_recovered[i], scan->serialized) << kSkuProbes[i];
      }
    }

    // Invariant 2b: the recovered trees are byte-identical to a fresh
    // build of the same definition over the same recovered data: a second
    // index on the same path under another name.
    if (has_sku) {
      ASSERT_TRUE(
          session->Execute("CREATE INDEX 'by-sku-fresh' ON doc('inv')//sku")
              .ok());
      bool fresh = false;
      EXPECT_EQ(sku_recovered,
                Probe(session.get(), "by-sku-fresh", kSkuProbes,
                      std::size(kSkuProbes), &fresh));
    }
    if (has_qty) {
      ASSERT_TRUE(
          session->Execute("CREATE INDEX 'by-qty-fresh' ON doc('inv')//qty")
              .ok());
      bool fresh = false;
      EXPECT_EQ(qty_recovered,
                Probe(session.get(), "by-qty-fresh", kQtyProbes,
                      std::size(kQtyProbes), &fresh));
    }

    // The fresh trees pass the same deep sweep, and the database is
    // fully writable again (maintenance still runs post-recovery). Early
    // crashes may predate the document itself; the container existence
    // check keeps the writability probe valid for every crash point.
    ASSERT_TRUE(db->CheckConsistency().ok());
    auto items = session->Execute("count(doc('inv')/items)");
    if (items.ok() && items->serialized == "1") {
      EXPECT_TRUE(session
                      ->Execute("UPDATE insert <item><sku>post</sku>"
                                "<qty>post</qty></item> into doc('inv')/items")
                      .ok());
      if (has_sku) {
        auto post = session->Execute("count(index-lookup('by-sku', 'post'))");
        ASSERT_TRUE(post.ok());
        EXPECT_EQ(post->serialized, "1");
      }
    } else {
      EXPECT_TRUE(session->Execute("CREATE DOCUMENT 'post_crash'").ok());
    }
  }

  // Invariant 3: with sessions gone, nothing is left pinned.
  EXPECT_EQ(db->storage()->buffers()->PinnedFrameCount(), 0u);
}

TEST(IndexTortureTest, RecoveredIndexesMatchFreshRebuildAcrossCrashes) {
  // Fault-free probe run to size the op stream and locate checkpoints.
  uint64_t total_ops = 0;
  std::vector<std::pair<uint64_t, uint64_t>> checkpoint_ranges;
  {
    FaultInjectingVfs vfs(1);
    DatabaseOptions options = TortureOptions(&vfs);
    auto created = Database::Create(options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<Database> db = std::move(created).value();
    uint64_t base = vfs.op_count();
    auto session = db->Connect();
    for (const TortureStep& step : Script()) {
      uint64_t start = vfs.op_count();
      if (step.checkpoint) {
        ASSERT_TRUE(db->Checkpoint().ok());
        checkpoint_ranges.emplace_back(start - base, vfs.op_count() - base);
      } else {
        auto r = session->Execute(step.stmt);
        ASSERT_TRUE(r.ok()) << step.stmt << " -> " << r.status().ToString();
      }
    }
    total_ops = vfs.op_count() - base;
  }
  ASSERT_GT(total_ops, 0u);
  ASSERT_FALSE(checkpoint_ranges.empty());

  struct Trial {
    uint64_t rel;
    CrashStyle style;
  };
  std::vector<Trial> trials;
  uint64_t stride = std::max<uint64_t>(1, total_ops / 60);
  size_t n = 0;
  for (uint64_t rel = 0; rel < total_ops; rel += stride, ++n) {
    trials.push_back({rel, n % 2 == 0 ? CrashStyle::kTornWrites
                                      : CrashStyle::kLoseUnsynced});
  }
  for (const auto& [start, stop] : checkpoint_ranges) {
    trials.push_back({(start + stop) / 2, CrashStyle::kLoseUnsynced});
    trials.push_back({(start + stop) / 2, CrashStyle::kTornWrites});
  }
  ASSERT_GE(trials.size(), 60u);

  uint64_t seed = 0xb7ee;
  const char* env_seed = std::getenv("SEDNA_TORTURE_SEEDS");
  if (env_seed != nullptr && *env_seed != '\0') {
    seed = std::strtoull(env_seed, nullptr, 10);
  }
  for (const Trial& t : trials) {
    RunCrashTrial(t.rel, t.style, seed++);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Clean-shutdown variant: no crash, but the same byte-identity check after
// an ordinary reopen — the cheap fast path CI runs under sanitizers.
TEST(IndexTortureTest, CleanReopenMatchesFreshRebuild) {
  FaultInjectingVfs vfs(3);
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Database> db = std::move(created).value();
  {
    auto session = db->Connect();
    for (const TortureStep& step : Script()) {
      if (step.checkpoint) {
        ASSERT_TRUE(db->Checkpoint().ok());
      } else {
        ASSERT_TRUE(session->Execute(step.stmt).ok()) << step.stmt;
      }
    }
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  db.reset();

  Counter* rebuilds = MetricsRegistry::Global().counter("index.rebuilds");
  const uint64_t rebuilds_before_open = rebuilds->value();
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db = std::move(reopened).value();
  ASSERT_TRUE(db->CheckConsistency().ok());
  auto session = db->Connect();
  bool exists = false;
  std::vector<std::string> before = Probe(session.get(), "by-sku", kSkuProbes,
                                          std::size(kSkuProbes), &exists);
  ASSERT_TRUE(exists);
  // Served straight from disk: reopening and probing build nothing.
  EXPECT_EQ(rebuilds->value(), rebuilds_before_open);
  ASSERT_TRUE(
      session->Execute("CREATE INDEX 'by-sku-fresh' ON doc('inv')//sku").ok());
  std::vector<std::string> after = Probe(
      session.get(), "by-sku-fresh", kSkuProbes, std::size(kSkuProbes),
      &exists);
  EXPECT_EQ(before, after);
  EXPECT_EQ(rebuilds->value(), rebuilds_before_open + 1);
  session.reset();
  EXPECT_EQ(db->storage()->buffers()->PinnedFrameCount(), 0u);
}

}  // namespace
}  // namespace sedna
