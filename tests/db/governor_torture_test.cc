// Governor torture suite: kills statements at hundreds of deterministic
// points — every governance tick (cooperative cancellation) and every
// budget charge (injected allocation faults) — through the full
// Database/Session stack, and asserts the engine comes back clean every
// single time:
//
//   * the abort carries the right status code (kCancelled /
//     kDeadlineExceeded / kResourceExhausted),
//   * no buffer frame stays pinned,
//   * no document lock stays held (the autocommit abort released it: the
//     very next statement, including updates, succeeds),
//   * no transaction stays open, and
//   * an immediate re-run of the killed statement produces the exact
//     result it would have produced unmolested.
//
// Also covers the admission gate (load shedding with a retryable
// rejection), governed lock waits (cancel/deadline wake a blocked
// statement early with the statement's own status), and the governor
// metric invariants.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "db/database.h"
#include "tests/common/test_paths.h"

namespace sedna {
namespace {

using namespace std::chrono_literals;

class GovernorTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = TestTempPath(std::string("gov_") + info->name());
    options_.path = base_ + ".sedna";
    options_.wal_path = base_ + ".wal";
    std::remove(options_.path.c_str());
    std::remove(options_.wal_path.c_str());
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    SeedCorpus();
  }

  void TearDown() override {
    // The admission cap is process-wide state; never leak it into other
    // tests.
    Governor::Instance().set_max_concurrent_statements(0);
  }

  // One document with enough fanout that scans and order-by materialize a
  // few hundred governance ticks / budget charges.
  void SeedCorpus() {
    auto s = db_->Connect();
    ASSERT_TRUE(Exec(s.get(), "CREATE DOCUMENT 'd'").ok());
    std::string tree = "<r>";
    for (int i = 0; i < 120; ++i) {
      tree += "<item><v>" + std::to_string(99 - (i * 37) % 100 + 100) +
              "</v><w>" + std::to_string(i) + "</w></item>";
    }
    tree += "</r>";
    ASSERT_TRUE(Exec(s.get(), "UPDATE insert " + tree + " into doc('d')").ok());
  }

  StatusOr<QueryResult> Exec(Session* s, const std::string& stmt) {
    return s->Execute(stmt);
  }

  std::string MustExec(Session* s, const std::string& stmt) {
    auto r = s->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n  -> " << r.status().ToString();
    return r.ok() ? r->serialized : std::string();
  }

  size_t PinnedFrames() {
    return db_->storage()->buffers()->PinnedFrameCount();
  }

  // The three victim shapes: a streaming scan, an aggregation, and an
  // order-by FLWOR (the heaviest materialization barrier).
  static std::vector<std::string> VictimQueries() {
    return {
        "doc('d')/r/item/v",
        "count(doc('d')/r/item/w)",
        "for $x in doc('d')/r/item order by $x/v/text() "
        "return $x/w/text()",
    };
  }

  std::string base_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
};

// Tentpole acceptance: sweep every governance tick of every victim query
// as a kill point. Each killed statement must abort kCancelled, release
// every pin and lock, close its autocommit transaction, and leave the
// session able to re-run the statement to the identical result.
TEST_F(GovernorTortureTest, CancellationPointSweep) {
  Counter* cancelled = MetricsRegistry::Global().counter("governor.cancelled");
  uint64_t cancelled_before = cancelled->value();

  auto session = db_->Connect();
  session->set_check_interval(1);  // maximum kill granularity

  std::vector<std::string> queries = VictimQueries();
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    expected.push_back(MustExec(session.get(), q));
  }

  size_t kill_points = 0;
  constexpr uint64_t kMaxTick = 400;  // bounds the sweep per query
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string& q = queries[qi];
    for (uint64_t k = 1; k <= kMaxTick; ++k) {
      session->set_cancel_at_tick(k);
      auto r = session->Execute(q);
      session->set_cancel_at_tick(0);
      if (r.ok()) {
        // k is past the query's last governance tick: the statement ran to
        // completion, so this query's kill-point space is exhausted.
        EXPECT_EQ(r->serialized, expected[qi]) << q;
        break;
      }
      ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
          << q << " killed at tick " << k << "\n  -> "
          << r.status().ToString();
      ++kill_points;
      // Invariants after every single kill.
      ASSERT_EQ(PinnedFrames(), 0u) << q << " @ tick " << k;
      ASSERT_FALSE(session->in_transaction()) << q << " @ tick " << k;
      auto rerun = session->Execute(q);
      ASSERT_TRUE(rerun.ok())
          << q << " session unusable after kill @ tick " << k << "\n  -> "
          << rerun.status().ToString();
      ASSERT_EQ(rerun->serialized, expected[qi]) << q << " @ tick " << k;
    }
  }
  // The acceptance floor: a substantial sweep of distinct kill points.
  printf("[          ] swept %zu distinct cancellation points\n", kill_points);
  EXPECT_GE(kill_points, 200u);
  // Metric invariant: every kill was counted exactly once.
  EXPECT_EQ(cancelled->value(), cancelled_before + kill_points);
  // Locks really are free: an update (exclusive lock) succeeds afterwards.
  EXPECT_TRUE(
      Exec(session.get(), "UPDATE insert <fin><z>1</z></fin> into doc('d')/r")
          .ok());
}

// Tentpole acceptance, OOM half: sweep every budget charge of the
// order-by victim as an injected allocation fault. Every abort must be
// kResourceExhausted, leak nothing, and the statement must replay cleanly.
TEST_F(GovernorTortureTest, OomInjectionSweep) {
  Counter* oom = MetricsRegistry::Global().counter("governor.oom_aborts");
  uint64_t oom_before = oom->value();

  auto session = db_->Connect();
  session->set_check_interval(1);
  // Order-by charges per collected tuple and per result item — the densest
  // allocation-point sequence of the victim shapes.
  const std::string q = VictimQueries()[2];
  const std::string expected = MustExec(session.get(), q);

  size_t oom_points = 0;
  bool completed = false;
  for (uint64_t n = 0; n < 4096; ++n) {
    AllocFaultInjector inj(/*seed=*/n);  // fresh injector: charge count resets
    inj.FailAtCharge(n);
    session->set_alloc_faults(&inj);
    auto r = session->Execute(q);
    session->set_alloc_faults(nullptr);
    if (r.ok()) {
      // n is past the statement's last allocation point.
      EXPECT_EQ(r->serialized, expected);
      completed = true;
      break;
    }
    ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "fault @ charge " << n << "\n  -> " << r.status().ToString();
    ++oom_points;
    ASSERT_EQ(PinnedFrames(), 0u) << "fault @ charge " << n;
    ASSERT_FALSE(session->in_transaction());
    auto rerun = session->Execute(q);
    ASSERT_TRUE(rerun.ok()) << "session unusable after fault @ charge " << n;
    ASSERT_EQ(rerun->serialized, expected) << "fault @ charge " << n;
  }
  EXPECT_TRUE(completed) << "sweep never exhausted the charge sequence";
  printf("[          ] swept %zu distinct allocation-fault points\n",
         oom_points);
  EXPECT_GE(oom_points, 50u);
  EXPECT_EQ(oom->value(), oom_before + oom_points);
}

// Seeded random OOM storm: a fixed failure rate across many runs must
// never wedge the engine, and the same seed must fail identically.
TEST_F(GovernorTortureTest, SeededRandomOomStormIsDeterministic) {
  auto session = db_->Connect();
  session->set_check_interval(1);
  const std::string q = VictimQueries()[2];
  const std::string expected = MustExec(session.get(), q);

  auto run = [&](uint64_t seed) {
    AllocFaultInjector inj(seed);
    inj.FailRandomly(0.02);
    session->set_alloc_faults(&inj);
    auto r = session->Execute(q);
    session->set_alloc_faults(nullptr);
    EXPECT_EQ(PinnedFrames(), 0u) << "seed " << seed;
    return r.ok() ? Status::OK() : r.status();
  };

  size_t failures = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Status first = run(seed);
    Status second = run(seed);  // replay: identical verdict
    EXPECT_EQ(first.ok(), second.ok()) << "seed " << seed;
    if (!first.ok()) {
      EXPECT_EQ(first.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(second.code(), StatusCode::kResourceExhausted);
      ++failures;
    }
  }
  EXPECT_GE(failures, 1u);  // a 2% rate over ~300 charges fails often
  // The engine survived the storm fully intact.
  EXPECT_EQ(MustExec(session.get(), q), expected);
}

// A statement past its wall-clock deadline aborts with kDeadlineExceeded
// (not a generic error), and the session stays usable.
TEST_F(GovernorTortureTest, DeadlineAbortCarriesDeadlineExceeded) {
  auto session = db_->Connect();
  session->set_check_interval(1);
  session->set_statement_timeout(1us);  // expires before the first pull
  auto r = session->Execute("count(doc('d')/r/item/v)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(PinnedFrames(), 0u);
  session->set_statement_timeout(0ns);  // back to no deadline
  EXPECT_EQ(MustExec(session.get(), "count(doc('d')/r/item)"), "120");
}

// A budget-starved statement aborts kResourceExhausted while concurrent
// statements on other sessions keep completing normally.
TEST_F(GovernorTortureTest, BudgetAbortLeavesConcurrentStatementsUnharmed) {
  auto victim = db_->Connect();
  victim->set_check_interval(1);
  victim->set_statement_memory_budget(256);  // far below the order-by need
  const std::string heavy = VictimQueries()[2];

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::thread worker([&] {
    auto other = db_->Connect();
    while (!stop.load()) {
      auto r = other->Execute("count(doc('d')/r/item)");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->serialized, "120");
        completed.fetch_add(1);
      }
    }
  });

  // Keep aborting the starved victim until the concurrent worker has
  // demonstrably completed statements alongside the failures (at least 8
  // victim aborts either way).
  int aborts = 0;
  for (; aborts < 8 || (completed.load() < 2 && aborts < 5000); ++aborts) {
    auto r = victim->Execute(heavy);
    ASSERT_FALSE(r.ok()) << "budget of 256 B cannot satisfy an order-by";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(victim->in_transaction());
  }
  stop.store(true);
  worker.join();
  EXPECT_GE(completed.load(), 2u);
  EXPECT_EQ(PinnedFrames(), 0u);

  // Lifting the budget restores the victim completely.
  victim->set_statement_memory_budget(0);
  auto full = victim->Execute(heavy);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full->peak_memory_bytes, 256u);
}

// Admission gate unit surface: tickets occupy slots, the N+1-th statement
// is shed with a retryable kResourceExhausted, and freed slots readmit.
TEST_F(GovernorTortureTest, AdmissionGateShedsExcessStatements) {
  Governor& gov = Governor::Instance();
  Counter* rejected = MetricsRegistry::Global().counter("governor.rejected");
  uint64_t rejected_before = rejected->value();

  gov.set_max_concurrent_statements(2);
  auto t1 = gov.AdmitStatement();
  ASSERT_TRUE(t1.ok());
  auto t2 = gov.AdmitStatement();
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(gov.active_statements(), 2u);

  auto t3 = gov.AdmitStatement();
  ASSERT_FALSE(t3.ok());
  EXPECT_EQ(t3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(t3.status().message().find("retry"), std::string::npos)
      << "rejection must advertise retryability: "
      << t3.status().ToString();
  EXPECT_EQ(rejected->value(), rejected_before + 1);

  (*t2).Release();
  EXPECT_EQ(gov.active_statements(), 1u);
  EXPECT_TRUE(gov.AdmitStatement().ok());  // slot freed; readmitted

  gov.set_max_concurrent_statements(0);  // unlimited again
  EXPECT_TRUE(gov.AdmitStatement().ok());
}

// Admission end-to-end: a statement blocked in a lock wait holds the only
// slot, so a second session's statement is shed with a retryable
// rejection — and succeeds on retry once the slot frees.
TEST_F(GovernorTortureTest, AdmissionRejectionIsRetryableEndToEnd) {
  Governor& gov = Governor::Instance();

  auto holder = db_->Connect();
  ASSERT_TRUE(holder->Begin().ok());
  // Holds the exclusive document lock until Commit.
  ASSERT_TRUE(
      Exec(holder.get(), "UPDATE insert <h><z>1</z></h> into doc('d')/r").ok());

  gov.set_max_concurrent_statements(1);
  Status blocked_status = Status::Internal("never ran");
  auto blocked = db_->Connect();
  std::thread t([&] {
    // Blocks in the lock wait while occupying the single admission slot.
    auto r = blocked->Execute("UPDATE insert <b><z>2</z></b> into doc('d')/r");
    blocked_status = r.status();
  });
  while (gov.active_statements() == 0) std::this_thread::sleep_for(1ms);

  auto shed = db_->Connect();
  auto r = shed->Execute("count(doc('d')/r/item)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("retry"), std::string::npos);

  // Free the lock; the blocked statement completes and releases the slot.
  ASSERT_TRUE(holder->Commit().ok());
  t.join();
  EXPECT_TRUE(blocked_status.ok()) << blocked_status.ToString();

  gov.set_max_concurrent_statements(0);
  EXPECT_EQ(MustExec(shed.get(), "count(doc('d')/r/h)"), "1");
}

// Satellite 1 end-to-end: Session::Cancel() from another thread wakes a
// statement blocked in a lock wait, which aborts kCancelled well before
// the deadlock timeout — and the lock space is clean afterwards.
TEST_F(GovernorTortureTest, CancelWakesBlockedLockWait) {
  Counter* gov_aborts =
      MetricsRegistry::Global().counter("lock.governance_aborts");
  uint64_t aborts_before = gov_aborts->value();

  auto holder = db_->Connect();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(
      Exec(holder.get(), "UPDATE insert <h><z>1</z></h> into doc('d')/r").ok());

  auto waiter = db_->Connect();
  Status st = Status::Internal("never ran");
  std::thread t([&] {
    auto r = waiter->Execute("UPDATE insert <w><z>2</z></w> into doc('d')/r");
    st = r.status();
  });
  std::this_thread::sleep_for(50ms);
  waiter->Cancel();
  t.join();
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_GE(gov_aborts->value(), aborts_before);

  ASSERT_TRUE(holder->Commit().ok());
  // The cancelled waiter leaked nothing: its session still works and the
  // document takes new exclusive locks immediately.
  EXPECT_TRUE(
      Exec(waiter.get(), "UPDATE insert <ok><z>3</z></ok> into doc('d')/r").ok());
  EXPECT_EQ(PinnedFrames(), 0u);
}

// Satellite 1 end-to-end, deadline flavor: a statement deadline shorter
// than the deadlock timeout cuts the lock wait with kDeadlineExceeded.
TEST_F(GovernorTortureTest, DeadlineCutsBlockedLockWait) {
  auto holder = db_->Connect();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(
      Exec(holder.get(), "UPDATE insert <h><z>1</z></h> into doc('d')/r").ok());

  auto waiter = db_->Connect();
  waiter->set_statement_timeout(100ms);
  auto start = std::chrono::steady_clock::now();
  auto r = waiter->Execute("UPDATE insert <w><z>2</z></w> into doc('d')/r");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // Far below the 1 s (jittered) deadlock timeout: the deadline, not the
  // timeout, ended the wait.
  EXPECT_LT(elapsed, 900ms);

  ASSERT_TRUE(holder->Commit().ok());
  waiter->set_statement_timeout(0ns);
  EXPECT_TRUE(Exec(waiter.get(), "count(doc('d')/r)").ok());
}

// EXPLAIN surfaces the per-statement budget accounting.
TEST_F(GovernorTortureTest, ExplainReportsGovernorUsage) {
  auto session = db_->Connect();
  session->set_statement_memory_budget(1 << 20);
  auto r = session->Execute("EXPLAIN " + VictimQueries()[2]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->profile_text.find("governor:"), std::string::npos)
      << r->profile_text;
  EXPECT_NE(r->profile_text.find("budget"), std::string::npos);
}

}  // namespace
}  // namespace sedna
