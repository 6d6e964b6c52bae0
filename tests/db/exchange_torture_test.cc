// Exchange governance torture suite: kills morsel-parallel statements at
// every deterministic point — each governance tick (cooperative
// cancellation, observed by whichever worker thread ticks it) and each
// budget charge (injected allocation faults racing across workers) — and
// asserts the exchange tears down clean every single time:
//
//   * the abort carries the exact status code of the original failure
//     (kCancelled / kDeadlineExceeded / kResourceExhausted), never a
//     sibling worker's secondary "exchange aborted" status,
//   * every worker thread is joined (the statement returns at all, and the
//     pool destructor joins before the shared state dies),
//   * no buffer frame stays pinned across any kill, and
//   * an immediate re-run — parallel or serial — produces the byte-exact
//     result of an unmolested serial execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "db/database.h"
#include "tests/common/test_paths.h"

namespace sedna {
namespace {

using namespace std::chrono_literals;

class ExchangeTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = TestTempPath(std::string("exch_") + info->name());
    options_.path = base_ + ".sedna";
    options_.wal_path = base_ + ".wal";
    std::remove(options_.path.c_str());
    std::remove(options_.wal_path.c_str());
    auto db = Database::Create(options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    SeedCorpus();
  }

  // Enough same-name elements that their schema-node chains span many
  // blocks — the exchange only engages on multi-block chains.
  void SeedCorpus() {
    auto s = db_->Connect();
    ASSERT_TRUE(s->Execute("CREATE DOCUMENT 'd'").ok());
    std::string tree = "<r>";
    for (int i = 0; i < 2000; ++i) {
      tree += "<item><v>" + std::to_string(i % 7) + "</v><w>" +
              std::to_string(i) + "</w></item>";
    }
    tree += "</r>";
    auto r = s->Execute("UPDATE insert " + tree + " into doc('d')");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  std::string MustExec(Session* s, const std::string& stmt) {
    auto r = s->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n  -> " << r.status().ToString();
    return r.ok() ? r->serialized : std::string();
  }

  size_t PinnedFrames() {
    return db_->storage()->buffers()->PinnedFrameCount();
  }

  // Two victim shapes, both full drains (so the deferred exchange engages):
  // a bare multi-block chain scan, and a predicate-extended fragment whose
  // filter and tail steps run inside the workers.
  static std::vector<std::string> VictimQueries() {
    return {
        "doc('d')/r/item/v",
        "doc('d')//item[v = 1]/w/text()",
    };
  }

  std::string base_;
  DatabaseOptions options_;
  std::unique_ptr<Database> db_;
};

// Sanity gate for the whole suite: at workers=4 the victims really do run
// through the exchange (morsels dispatched, workers launched) and produce
// byte-identical output to the serial pipeline. Without this the sweeps
// below could silently torture the serial path.
TEST_F(ExchangeTortureTest, ExchangeEngagesAndMatchesSerial) {
  auto session = db_->Connect();
  for (const std::string& q : VictimQueries()) {
    session->set_parallel_workers(1);
    std::string serial = MustExec(session.get(), q);
    session->set_parallel_workers(4);
    auto r = session->Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n  -> " << r.status().ToString();
    EXPECT_EQ(r->serialized, serial) << q;
    EXPECT_GE(r->stats.morsels_dispatched.load(std::memory_order_relaxed), 2u)
        << q << ": exchange did not engage";
    EXPECT_GE(r->stats.exchange_workers.load(std::memory_order_relaxed), 2u)
        << q;
    EXPECT_EQ(PinnedFrames(), 0u) << q;
  }
}

// EXPLAIN surfaces the exchange and its per-worker operator subtrees.
TEST_F(ExchangeTortureTest, ExplainShowsPerWorkerStats) {
  auto session = db_->Connect();
  session->set_parallel_workers(4);
  auto r = session->Execute("EXPLAIN " + VictimQueries()[1]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->profile_text.find("exchange["), std::string::npos)
      << r->profile_text;
  EXPECT_NE(r->profile_text.find("workers="), std::string::npos);
  EXPECT_NE(r->profile_text.find("morsels="), std::string::npos);
  EXPECT_NE(r->profile_text.find("worker 0"), std::string::npos)
      << r->profile_text;
  EXPECT_NE(r->profile_text.find("morsel-scan"), std::string::npos)
      << r->profile_text;
}

// Cancel-at-tick sweep with 4 workers: the tick counter is shared across
// worker threads, so the kill lands inside whichever worker ticks k-th and
// must abort the whole exchange with kCancelled — first error wins over
// sibling workers' secondary aborts.
TEST_F(ExchangeTortureTest, CancellationPointSweepAcrossWorkers) {
  auto session = db_->Connect();
  session->set_parallel_workers(4);
  session->set_check_interval(1);  // maximum kill granularity

  std::vector<std::string> queries = VictimQueries();
  std::vector<std::string> expected;
  for (const std::string& q : queries) {
    session->set_parallel_workers(1);
    expected.push_back(MustExec(session.get(), q));
    session->set_parallel_workers(4);
  }

  size_t kill_points = 0;
  constexpr uint64_t kMaxTick = 200;  // bounds the sweep per query
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::string& q = queries[qi];
    for (uint64_t k = 1; k <= kMaxTick; ++k) {
      session->set_cancel_at_tick(k);
      auto r = session->Execute(q);
      session->set_cancel_at_tick(0);
      if (r.ok()) {
        // k is past the query's last governance tick.
        EXPECT_EQ(r->serialized, expected[qi]) << q;
        break;
      }
      ASSERT_EQ(r.status().code(), StatusCode::kCancelled)
          << q << " killed at tick " << k << "\n  -> "
          << r.status().ToString();
      ++kill_points;
      // Invariants after every single kill: nothing pinned (the pool
      // joined all workers and their un-taken morsel reservations
      // released), and both execution modes still byte-match.
      ASSERT_EQ(PinnedFrames(), 0u) << q << " @ tick " << k;
      ASSERT_FALSE(session->in_transaction()) << q << " @ tick " << k;
      auto parallel_rerun = session->Execute(q);
      ASSERT_TRUE(parallel_rerun.ok())
          << q << " session unusable after kill @ tick " << k;
      ASSERT_EQ(parallel_rerun->serialized, expected[qi])
          << q << " @ tick " << k;
      session->set_parallel_workers(1);
      auto serial_rerun = session->Execute(q);
      session->set_parallel_workers(4);
      ASSERT_TRUE(serial_rerun.ok()) << q << " @ tick " << k;
      ASSERT_EQ(serial_rerun->serialized, expected[qi]) << q << " @ tick "
                                                        << k;
    }
  }
  printf("[          ] swept %zu worker-thread cancellation points\n",
         kill_points);
  EXPECT_GE(kill_points, 100u);
}

// Allocation-fault sweep with 4 workers: the injector's charge counter is
// shared, so fault n fires in whichever worker (or the parent's take-side
// accounting) charges n-th. Every abort must be kResourceExhausted with a
// fully clean teardown.
TEST_F(ExchangeTortureTest, AllocFaultSweepAcrossWorkers) {
  auto session = db_->Connect();
  session->set_parallel_workers(4);
  session->set_check_interval(1);
  const std::string q = VictimQueries()[1];
  session->set_parallel_workers(1);
  const std::string expected = MustExec(session.get(), q);
  session->set_parallel_workers(4);

  // Probe the charge-space size: which worker observes each charge index
  // varies run to run, but the *count* of charges is deterministic (same
  // morsels, same drains, same serialization).
  AllocFaultInjector probe(/*seed=*/0);
  session->set_alloc_faults(&probe);
  ASSERT_EQ(MustExec(session.get(), q), expected);
  session->set_alloc_faults(nullptr);
  const uint64_t total = probe.charges();
  ASSERT_GT(total, 128u) << "victim makes too few charges to torture";

  // Dense sweep through the startup charges (pool launch, first morsels),
  // then stride through the long drain tail to bound the runtime.
  std::vector<uint64_t> points;
  for (uint64_t n = 0; n < 128; ++n) points.push_back(n);
  const uint64_t stride = std::max<uint64_t>(1, (total - 128) / 384);
  for (uint64_t n = 128; n < total; n += stride) points.push_back(n);

  size_t fault_points = 0;
  for (uint64_t n : points) {
    AllocFaultInjector inj(/*seed=*/n);  // fresh injector: charge count resets
    inj.FailAtCharge(n);
    session->set_alloc_faults(&inj);
    auto r = session->Execute(q);
    session->set_alloc_faults(nullptr);
    ASSERT_FALSE(r.ok()) << "charge " << n << " of " << total
                         << " never happened";
    ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << "fault @ charge " << n << "\n  -> " << r.status().ToString();
    ++fault_points;
    ASSERT_EQ(PinnedFrames(), 0u) << "fault @ charge " << n;
    auto rerun = session->Execute(q);
    ASSERT_TRUE(rerun.ok()) << "session unusable after fault @ charge " << n;
    ASSERT_EQ(rerun->serialized, expected) << "fault @ charge " << n;
  }
  // A fault placed past the last charge never fires: the statement
  // completes — the sweep really did cover the whole charge space.
  AllocFaultInjector past(/*seed=*/1);
  past.FailAtCharge(total + 8);
  session->set_alloc_faults(&past);
  EXPECT_EQ(MustExec(session.get(), q), expected);
  session->set_alloc_faults(nullptr);
  printf("[          ] swept %zu of %llu worker-thread allocation-fault "
         "points\n",
         fault_points, static_cast<unsigned long long>(total));
  EXPECT_GE(fault_points, 300u);
}

// An already-expired deadline aborts the exchange with kDeadlineExceeded —
// the worker that trips the deadline publishes it sticky, so no sibling's
// secondary status leaks out.
TEST_F(ExchangeTortureTest, DeadlineAbortCarriesDeadlineExceeded) {
  auto session = db_->Connect();
  session->set_parallel_workers(4);
  session->set_check_interval(1);
  session->set_statement_timeout(1us);
  auto r = session->Execute(VictimQueries()[0]);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_EQ(PinnedFrames(), 0u);
  session->set_statement_timeout(0ns);
  EXPECT_EQ(MustExec(session.get(), "count(doc('d')/r/item)"), "2000");
}

// Workers drain morsels into reservations charged against the *shared*
// statement budget: a budget far below the scan's materialization need
// must abort kResourceExhausted no matter which worker crosses the line,
// and lifting the budget restores parallel execution completely.
TEST_F(ExchangeTortureTest, SharedBudgetAbortAcrossWorkers) {
  auto session = db_->Connect();
  session->set_parallel_workers(4);
  session->set_check_interval(1);
  const std::string q = VictimQueries()[0];
  session->set_parallel_workers(1);
  const std::string expected = MustExec(session.get(), q);
  session->set_parallel_workers(4);

  session->set_statement_memory_budget(512);  // ~a dozen items' worth
  for (int i = 0; i < 8; ++i) {
    auto r = session->Execute(q);
    ASSERT_FALSE(r.ok()) << "512 B cannot hold a 2000-node morsel drain";
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
        << r.status().ToString();
    EXPECT_EQ(PinnedFrames(), 0u) << "iteration " << i;
  }
  session->set_statement_memory_budget(0);
  auto full = session->Execute(q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->serialized, expected);
  EXPECT_GE(full->stats.morsels_dispatched.load(std::memory_order_relaxed),
            2u);
}

// Seeded random fault storm across the worker pool: a fixed failure rate
// must never wedge the engine — every run either completes with the exact
// serial result or aborts kResourceExhausted with nothing pinned.
TEST_F(ExchangeTortureTest, SeededRandomFaultStormNeverWedges) {
  auto session = db_->Connect();
  session->set_parallel_workers(4);
  session->set_check_interval(1);
  const std::string q = VictimQueries()[1];
  session->set_parallel_workers(1);
  const std::string expected = MustExec(session.get(), q);
  session->set_parallel_workers(4);

  size_t failures = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    AllocFaultInjector inj(seed);
    inj.FailRandomly(0.02);
    session->set_alloc_faults(&inj);
    auto r = session->Execute(q);
    session->set_alloc_faults(nullptr);
    EXPECT_EQ(PinnedFrames(), 0u) << "seed " << seed;
    if (r.ok()) {
      EXPECT_EQ(r->serialized, expected) << "seed " << seed;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
          << "seed " << seed << "\n  -> " << r.status().ToString();
      ++failures;
    }
  }
  EXPECT_GE(failures, 1u);
  // The engine survived the storm fully intact, in both modes.
  EXPECT_EQ(MustExec(session.get(), q), expected);
  session->set_parallel_workers(1);
  EXPECT_EQ(MustExec(session.get(), q), expected);
}

}  // namespace
}  // namespace sedna
