// Crash-recovery torture suite.
//
// A scripted insert/update/delete/checkpoint workload runs on top of a
// FaultInjectingVfs while a crash is scheduled at some operation index.
// After the crash the vfs "reboots" (lose-unsynced or torn-writes style),
// the database reopens, and three invariants are checked:
//
//   1. every acknowledged-committed transaction's effects are queryable,
//   2. no unacknowledged effect survives, except a whole in-flight
//      transaction whose commit record made it to disk (commit-unknown),
//   3. the master record always resolves to a valid slot (reopen succeeds).
//
// Crash points sweep the whole op stream (well over 100 trials) and are
// additionally aimed at master-record writes and checkpoint interiors.
// Every trial is seeded and fully deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_vfs.h"
#include "common/metrics.h"
#include "db/database.h"
#include "sas/file_manager.h"

namespace sedna {
namespace {

// doc name -> text of /r/v ("" = document exists with no content).
// A doc absent from the map does not exist.
using Model = std::map<std::string, std::string>;

struct Effect {
  std::string doc;
  bool drop;
  std::string value;
};

struct Step {
  enum class Kind { kAuto, kTxn, kCheckpoint };
  Kind kind;
  std::vector<std::string> stmts;
  std::vector<Effect> effects;
};

void Apply(const Step& step, Model& m) {
  for (const Effect& e : step.effects) {
    if (e.drop) {
      m.erase(e.doc);
    } else {
      m[e.doc] = e.value;
    }
  }
}

// The deterministic mixed workload. Each step is valid given the state the
// previous steps leave behind; checkpoints land between mutation bursts so
// crashes hit before, inside and after persistent-snapshot writes.
std::vector<Step> Script() {
  using K = Step::Kind;
  auto create = [](const std::string& d) {
    return Step{K::kAuto, {"CREATE DOCUMENT '" + d + "'"}, {{d, false, ""}}};
  };
  auto insert = [](const std::string& d, const std::string& v) {
    return Step{K::kAuto,
                {"UPDATE insert <r><v>" + v + "</v></r> into doc('" + d + "')"},
                {{d, false, v}}};
  };
  auto replace = [](const std::string& d, const std::string& v) {
    return Step{
        K::kAuto,
        {"UPDATE replace $x in doc('" + d + "')/r/v with <v>" + v + "</v>"},
        {{d, false, v}}};
  };
  auto erase = [](const std::string& d) {
    return Step{K::kAuto, {"UPDATE delete doc('" + d + "')/r"}, {{d, false, ""}}};
  };
  auto drop = [](const std::string& d) {
    return Step{K::kAuto, {"DROP DOCUMENT '" + d + "'"}, {{d, true, ""}}};
  };
  auto checkpoint = [] { return Step{K::kCheckpoint, {}, {}}; };
  auto txn = [](std::vector<Step> parts) {
    Step out{K::kTxn, {}, {}};
    for (Step& p : parts) {
      out.stmts.push_back(p.stmts[0]);
      out.effects.push_back(p.effects[0]);
    }
    return out;
  };

  return {
      create("alpha"),
      insert("alpha", "a1"),
      create("beta"),
      insert("beta", "b1"),
      checkpoint(),
      replace("alpha", "a2"),
      txn({replace("alpha", "a3"), replace("beta", "b2")}),
      create("gamma"),
      insert("gamma", "g1"),
      checkpoint(),
      erase("beta"),
      insert("beta", "b3"),
      txn({replace("gamma", "g2"), replace("alpha", "a4")}),
      drop("gamma"),
      checkpoint(),
      create("gamma"),
      insert("gamma", "g4"),
      replace("beta", "b4"),
      txn({replace("alpha", "a5"), replace("beta", "b5"),
           replace("gamma", "g5")}),
      checkpoint(),
      drop("beta"),
      replace("alpha", "a6"),
      replace("gamma", "g6"),
      checkpoint(),
      replace("alpha", "a7"),
  };
}

std::set<std::string> AllDocs() {
  std::set<std::string> docs;
  for (const Step& step : Script()) {
    for (const Effect& e : step.effects) docs.insert(e.doc);
  }
  return docs;
}

DatabaseOptions TortureOptions(Vfs* vfs) {
  DatabaseOptions options;
  options.path = "/torture/db.data";
  options.wal_path = "/torture/db.wal";
  options.buffer_frames = 64;
  options.vfs = vfs;
  return options;
}

enum class StepOutcome {
  kOk,
  kFailedNoCommit,        // no commit record was ever appended
  kFailedMaybeCommitted,  // the commit may have reached disk before the crash
};

StepOutcome ExecuteStep(Database* db, Session* s, const Step& step) {
  if (step.kind == Step::Kind::kCheckpoint) {
    return db->Checkpoint().ok() ? StepOutcome::kOk
                                 : StepOutcome::kFailedMaybeCommitted;
  }
  if (step.kind == Step::Kind::kAuto) {
    // Autocommit hides whether the failure hit before or after the commit
    // record was appended, so a surviving whole effect is acceptable.
    return s->Execute(step.stmts[0]).ok() ? StepOutcome::kOk
                                          : StepOutcome::kFailedMaybeCommitted;
  }
  if (!s->Begin().ok()) return StepOutcome::kFailedNoCommit;
  for (const std::string& stmt : step.stmts) {
    if (!s->Execute(stmt).ok()) {
      (void)s->Abort();  // best-effort; the vfs may already be down
      return StepOutcome::kFailedNoCommit;
    }
  }
  return s->Commit().ok() ? StepOutcome::kOk
                          : StepOutcome::kFailedMaybeCommitted;
}

struct WorkloadEnd {
  Model acked;               // all acknowledged steps applied
  Model with_pending;        // acked + the in-flight step, when acceptable
  bool pending_possible = false;
};

WorkloadEnd RunWorkload(Database* db) {
  WorkloadEnd end;
  auto session = db->Connect();
  for (const Step& step : Script()) {
    Model next = end.acked;
    Apply(step, next);
    StepOutcome out = ExecuteStep(db, session.get(), step);
    if (out == StepOutcome::kOk) {
      end.acked = std::move(next);
      continue;
    }
    if (out == StepOutcome::kFailedMaybeCommitted) {
      end.with_pending = std::move(next);
      end.pending_possible = true;
    }
    break;  // the crash fired; everything after would fail too
  }
  return end;
}

Model ReadActual(Session* s, const std::set<std::string>& docs) {
  Model m;
  for (const std::string& doc : docs) {
    auto r = s->Execute("doc('" + doc + "')/r/v/text()");
    if (r.ok()) {
      m[doc] = r->serialized;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
          << doc << ": " << r.status().ToString();
    }
  }
  return m;
}

std::string Dump(const Model& m) {
  std::string out = "{ ";
  for (const auto& [doc, value] : m) out += doc + "='" + value + "' ";
  return out + "}";
}

// One crash trial: run the workload, crash at `rel_crash` ops past database
// creation, reboot the vfs, reopen, and check the invariants.
void RunCrashTrial(uint64_t rel_crash, CrashStyle style, uint64_t seed,
                   const std::set<std::string>& docs) {
  SCOPED_TRACE("crash_at=" + std::to_string(rel_crash) + " style=" +
               (style == CrashStyle::kTornWrites ? "torn" : "lose-unsynced") +
               " seed=" + std::to_string(seed));
  FaultInjectingVfs vfs(seed);
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(created).value();

  vfs.ScheduleCrashAtOp(vfs.op_count() + rel_crash, style);
  WorkloadEnd end = RunWorkload(db.get());
  db.reset();  // teardown amid the crash; flush errors are logged, not fatal

  vfs.Recover();
  vfs.ClearFaults();
  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok())
      << "recovery failed: " << reopened.status().ToString();
  // Pages and the recovered free list, checked before anything allocates.
  Status deep = (*reopened)->CheckConsistency();
  EXPECT_TRUE(deep.ok()) << deep.ToString();
  auto session = (*reopened)->Connect();
  Model actual = ReadActual(session.get(), docs);
  EXPECT_TRUE(actual == end.acked ||
              (end.pending_possible && actual == end.with_pending))
      << "recovered state " << Dump(actual) << "\n  acked " << Dump(end.acked)
      << (end.pending_possible ? "\n  acked+pending " + Dump(end.with_pending)
                               : std::string());
  // The recovered database must be fully writable again.
  EXPECT_TRUE(session->Execute("CREATE DOCUMENT 'post_crash'").ok());
  EXPECT_TRUE(
      session->Execute("UPDATE insert <r><v>ok</v></r> into doc('post_crash')")
          .ok());
  auto back = session->Execute("doc('post_crash')/r/v/text()");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->serialized, "ok");
  EXPECT_FALSE((*reopened)->degraded());
}

struct Probe {
  uint64_t total_ops = 0;
  std::vector<uint64_t> master_write_ops;  // master-slot writes, rel indices
  std::vector<std::pair<uint64_t, uint64_t>> checkpoint_ranges;
};

// Fault-free run that measures the op stream: total length, where the
// master-record writes land, and which spans belong to checkpoints. The op
// stream is deterministic, so these indices are valid for every trial.
Probe RunProbe() {
  Probe p;
  FaultInjectingVfs vfs(1);
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return p;
  std::unique_ptr<Database> db = std::move(created).value();
  uint64_t base = vfs.op_count();
  vfs.EnableOpLog(true);
  auto session = db->Connect();
  for (const Step& step : Script()) {
    uint64_t start = vfs.op_count();
    EXPECT_EQ(ExecuteStep(db.get(), session.get(), step), StepOutcome::kOk);
    if (step.kind == Step::Kind::kCheckpoint) {
      p.checkpoint_ranges.emplace_back(start - base, vfs.op_count() - base);
    }
  }
  p.total_ops = vfs.op_count() - base;
  for (const VfsOpRecord& rec : vfs.TakeOpLog()) {
    if (rec.path == options.path && rec.kind == "write" &&
        (rec.offset == 0 || rec.offset == kPageSize)) {
      p.master_write_ops.push_back(rec.op_index - base);
    }
  }
  return p;
}

TEST(CrashRecoveryTortureTest, CommittedEffectsSurviveRandomizedCrashes) {
  Probe probe = RunProbe();
  ASSERT_GT(probe.total_ops, 0u);
  ASSERT_FALSE(probe.master_write_ops.empty());
  ASSERT_FALSE(probe.checkpoint_ranges.empty());
  std::set<std::string> docs = AllDocs();

  struct Trial {
    uint64_t rel;
    CrashStyle style;
  };
  std::vector<Trial> trials;
  // Sweep the whole op stream, alternating crash styles.
  uint64_t stride = std::max<uint64_t>(1, probe.total_ops / 110);
  size_t n = 0;
  for (uint64_t rel = 0; rel < probe.total_ops; rel += stride, ++n) {
    trials.push_back({rel, n % 2 == 0 ? CrashStyle::kTornWrites
                                      : CrashStyle::kLoseUnsynced});
  }
  // Aim at every master-record write: just before the write, and between
  // the write and its sync (a torn master slot the reopen must survive).
  for (uint64_t rel : probe.master_write_ops) {
    trials.push_back({rel, CrashStyle::kTornWrites});
    trials.push_back({rel + 1, CrashStyle::kTornWrites});
  }
  // And at the middle of every checkpoint, in both styles.
  for (const auto& [start, stop] : probe.checkpoint_ranges) {
    trials.push_back({(start + stop) / 2, CrashStyle::kLoseUnsynced});
    trials.push_back({(start + stop) / 2, CrashStyle::kTornWrites});
  }
  ASSERT_GE(trials.size(), 100u);

  MetricsRegistry& reg = MetricsRegistry::Global();
  const uint64_t syncs_before = reg.counter("wal.syncs")->value();
  const uint64_t records_before = reg.counter("wal.records")->value();
  const uint64_t truncations_before = reg.counter("wal.truncations")->value();

  uint64_t seed = 0x70a7;
  for (const Trial& t : trials) {
    RunCrashTrial(t.rel, t.style, seed++, docs);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Observability: the torture ran hundreds of commits and recoveries, so
  // the registry's WAL instruments must have moved — fsyncs and records on
  // the commit path, and at least one torn-tail truncation during replay
  // (the kTornWrites trials guarantee torn tails).
  EXPECT_GT(reg.counter("wal.syncs")->value(), syncs_before);
  EXPECT_GT(reg.counter("wal.records")->value(), records_before);
  EXPECT_GT(reg.counter("wal.truncations")->value(), truncations_before);
}

// --- transient errors: bounded retries ---------------------------------------

TEST(TransientFaultTest, RetriesRideThroughTransientDataFileErrors) {
  // Probe the op stream for data-file writes (all wrapped in RetryIo).
  std::vector<uint64_t> write_ops;
  {
    FaultInjectingVfs vfs(7);
    DatabaseOptions options = TortureOptions(&vfs);
    auto created = Database::Create(options);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<Database> db = std::move(created).value();
    vfs.EnableOpLog(true);
    auto session = db->Connect();
    for (const Step& step : Script()) {
      ASSERT_EQ(ExecuteStep(db.get(), session.get(), step), StepOutcome::kOk);
    }
    for (const VfsOpRecord& rec : vfs.TakeOpLog()) {
      if (rec.path == options.path && rec.kind == "write") {
        write_ops.push_back(rec.op_index);
      }
    }
  }
  ASSERT_GE(write_ops.size(), 3u);

  // Re-run with transient failures on three spread-out data writes. Each
  // failed attempt consumes one op index, shifting later ops by one, hence
  // the +1/+2 on the later targets.
  FaultInjectingVfs vfs(7);
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Database> db = std::move(created).value();
  vfs.ScheduleTransientFailureAtOp(write_ops[write_ops.size() / 4]);
  vfs.ScheduleTransientFailureAtOp(write_ops[write_ops.size() / 2] + 1);
  vfs.ScheduleTransientFailureAtOp(write_ops[3 * write_ops.size() / 4] + 2);

  Model expected;
  auto session = db->Connect();
  for (const Step& step : Script()) {
    ASSERT_EQ(ExecuteStep(db.get(), session.get(), step), StepOutcome::kOk);
    Apply(step, expected);
  }
  EXPECT_FALSE(db->degraded());
  session.reset();
  db.reset();

  auto reopened = Database::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto s2 = (*reopened)->Connect();
  EXPECT_EQ(Dump(ReadActual(s2.get(), AllDocs())), Dump(expected));
}

// --- graceful degradation: read-only mode ------------------------------------

TEST(DegradedModeTest, CheckpointWriteFailureTripsReadOnlyMode) {
  FaultInjectingVfs vfs;
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Database> db = std::move(created).value();
  auto session = db->Connect();
  ASSERT_TRUE(session->Execute("CREATE DOCUMENT 'd'").ok());
  ASSERT_TRUE(
      session->Execute("UPDATE insert <r><v>v1</v></r> into doc('d')").ok());
  ASSERT_FALSE(db->degraded());

  // The data file dies for writes. Retries are exhausted, the io-failure
  // handler fires, and the database trips into read-only mode.
  vfs.SetStickyErrorRates("db.data", /*read_rate=*/0.0, /*write_rate=*/1.0);
  EXPECT_FALSE(db->Checkpoint().ok());
  EXPECT_TRUE(db->degraded());
  EXPECT_EQ(db->degraded_status().code(), StatusCode::kReadOnlyDegraded);

  // Updates are rejected with the dedicated status before mutating anything.
  auto update =
      session->Execute("UPDATE replace $x in doc('d')/r/v with <v>v2</v>");
  ASSERT_FALSE(update.ok());
  EXPECT_EQ(update.status().code(), StatusCode::kReadOnlyDegraded);

  // Reads keep serving the pre-failure state.
  auto read = session->Execute("doc('d')/r/v/text()");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->serialized, "v1");
}

TEST(DegradedModeTest, WalFailureTripsReadOnlyMode) {
  FaultInjectingVfs vfs;
  DatabaseOptions options = TortureOptions(&vfs);
  auto created = Database::Create(options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Database> db = std::move(created).value();
  auto session = db->Connect();
  ASSERT_TRUE(session->Execute("CREATE DOCUMENT 'd'").ok());
  ASSERT_TRUE(
      session->Execute("UPDATE insert <r><v>v1</v></r> into doc('d')").ok());

  vfs.SetStickyErrorRates("db.wal", /*read_rate=*/0.0, /*write_rate=*/1.0);
  // The first update hits the dead WAL and trips degraded mode...
  auto first =
      session->Execute("UPDATE replace $x in doc('d')/r/v with <v>v2</v>");
  EXPECT_FALSE(first.ok());
  EXPECT_TRUE(db->degraded());
  // ...and every later update is gated before it reaches the WAL at all.
  auto second =
      session->Execute("UPDATE replace $x in doc('d')/r/v with <v>v3</v>");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kReadOnlyDegraded);
  // Reads are unaffected.
  auto read = session->Execute("doc('d')/r/v/text()");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->serialized, "v1");
}

}  // namespace
}  // namespace sedna
