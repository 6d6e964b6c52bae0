#include "txn/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/metrics.h"

namespace sedna {
namespace {

using namespace std::chrono_literals;

// The registry counter "lock.<event>", the lock manager's only record of
// it. Tests compare readings taken around their own work.
uint64_t LockEvents(const char* event) {
  return MetricsRegistry::Global()
      .counter(std::string("lock.") + event)
      ->value();
}

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager locks;
  EXPECT_TRUE(locks.Acquire(1, "doc", LockMode::kShared).ok());
  EXPECT_TRUE(locks.Acquire(2, "doc", LockMode::kShared).ok());
  EXPECT_TRUE(locks.Acquire(3, "doc", LockMode::kShared).ok());
}

TEST(LockManagerTest, ExclusiveConflictsWithShared) {
  LockManager locks(10ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kShared).ok());
  Status st = locks.Acquire(2, "doc", LockMode::kExclusive, 10ms);
  EXPECT_EQ(st.code(), StatusCode::kTimedOut);
}

TEST(LockManagerTest, ExclusiveConflictsWithExclusive) {
  LockManager locks(10ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  EXPECT_EQ(locks.Acquire(2, "doc", LockMode::kExclusive, 10ms).code(),
            StatusCode::kTimedOut);
  EXPECT_EQ(locks.Acquire(2, "doc", LockMode::kShared, 10ms).code(),
            StatusCode::kTimedOut);
}

TEST(LockManagerTest, ReacquireIsNoOp) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks.Acquire(1, "doc", LockMode::kShared).ok());
  LockMode mode;
  EXPECT_TRUE(locks.Holds(1, "doc", &mode));
  EXPECT_EQ(mode, LockMode::kExclusive);  // kept the stronger lock
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kShared).ok());
  EXPECT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  LockMode mode;
  ASSERT_TRUE(locks.Holds(1, "doc", &mode));
  EXPECT_EQ(mode, LockMode::kExclusive);
}

TEST(LockManagerTest, UpgradeBlockedByOtherReader) {
  LockManager locks(10ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, "doc", LockMode::kShared).ok());
  EXPECT_EQ(locks.Acquire(1, "doc", LockMode::kExclusive, 10ms).code(),
            StatusCode::kTimedOut);
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager locks(2000ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  std::thread waiter([&] {
    Status st = locks.Acquire(2, "doc", LockMode::kExclusive, 2000ms);
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  std::this_thread::sleep_for(20ms);
  locks.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(locks.Holds(2, "doc"));
}

TEST(LockManagerTest, DifferentResourcesDontConflict) {
  LockManager locks;
  EXPECT_TRUE(locks.Acquire(1, "a", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks.Acquire(2, "b", LockMode::kExclusive).ok());
}

TEST(LockManagerTest, ReleaseAllReleasesEverything) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(locks.Acquire(1, "b", LockMode::kShared).ok());
  locks.ReleaseAll(1);
  EXPECT_FALSE(locks.Holds(1, "a"));
  EXPECT_FALSE(locks.Holds(1, "b"));
  EXPECT_TRUE(locks.Acquire(2, "a", LockMode::kExclusive).ok());
}

TEST(LockManagerTest, StatsTrackWaitsAndTimeouts) {
  const uint64_t waits = LockEvents("waits");
  const uint64_t aborts = LockEvents("deadlock_aborts");
  const uint64_t acquired = LockEvents("acquired");
  LockManager locks(10ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  (void)locks.Acquire(2, "doc", LockMode::kShared, 10ms);
  EXPECT_EQ(LockEvents("waits") - waits, 1u);
  EXPECT_EQ(LockEvents("deadlock_aborts") - aborts, 1u);
  EXPECT_EQ(LockEvents("acquired") - acquired, 1u);
}

TEST(LockManagerTest, ManyThreadsSerializeOnExclusive) {
  LockManager locks(5000ms);
  int counter = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < 50; ++k) {
        uint64_t txn = static_cast<uint64_t>(i * 1000 + k + 1);
        ASSERT_TRUE(
            locks.Acquire(txn, "ctr", LockMode::kExclusive, 5000ms).ok());
        counter++;  // protected by the exclusive lock
        locks.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 400);
}

// --- wait-budget jitter ------------------------------------------------------

TEST(LockManagerTest, JitterIsDeterministicPerTxn) {
  LockManager locks;
  auto a = locks.JitteredTimeout(7, 100ms);
  auto b = locks.JitteredTimeout(7, 100ms);
  EXPECT_EQ(a, b);  // same txn id, same budget
}

TEST(LockManagerTest, JitterStaysWithinFraction) {
  LockManager locks;  // default fraction 0.25
  bool saw_spread = false;
  auto first = locks.JitteredTimeout(1, 1000ms);
  for (uint64_t txn = 1; txn <= 64; ++txn) {
    auto t = locks.JitteredTimeout(txn, 1000ms);
    EXPECT_GE(t, 1000ms);
    EXPECT_LE(t, 1250ms);
    if (t != first) saw_spread = true;
  }
  // Different txn ids land on different budgets — that spread is what
  // breaks symmetric deadlock/retry lockstep.
  EXPECT_TRUE(saw_spread);
}

TEST(LockManagerTest, ZeroJitterIsPassThrough) {
  LockManager locks;
  locks.set_timeout_jitter(0.0);
  EXPECT_EQ(locks.JitteredTimeout(9, 100ms), 100ms);
  EXPECT_EQ(locks.JitteredTimeout(10, 100ms), 100ms);
}

TEST(LockManagerTest, OpposingLockOrdersMakeProgress) {
  // Deadlock stress: pairs of threads take "a"/"b" in opposite orders with a
  // short wait budget. Timeouts break each deadlock; the per-txn jitter keeps
  // retries from re-colliding in lockstep. The test passes iff every thread
  // finishes its quota — i.e. no livelock — within the harness timeout.
  const uint64_t waits0 = LockEvents("waits");
  const uint64_t aborts0 = LockEvents("deadlock_aborts");
  const uint64_t acquired0 = LockEvents("acquired");
  LockManager locks(20ms);
  constexpr int kThreads = 4;
  constexpr int kTxnsEach = 10;
  std::atomic<uint64_t> next_txn{1};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string first = (i % 2 == 0) ? "a" : "b";
      const std::string second = (i % 2 == 0) ? "b" : "a";
      for (int k = 0; k < kTxnsEach; ++k) {
        for (;;) {
          // Fresh txn id per attempt: retries draw a fresh jittered budget.
          uint64_t txn = next_txn.fetch_add(1);
          bool got_first = locks.Acquire(txn, first, LockMode::kExclusive, 20ms).ok();
          // Hold the first lock long enough that opposing pairs really
          // entangle, instead of racing through uncontended.
          if (got_first) std::this_thread::sleep_for(1ms);
          if (got_first &&
              locks.Acquire(txn, second, LockMode::kExclusive, 20ms).ok()) {
            locks.ReleaseAll(txn);
            break;
          }
          // Abort, then retry after a pause, as a client should. An
          // immediate retry takes back the lock this thread just released
          // before the waiters it woke can run; on an idle machine the
          // pairs then deadlock again forever (parallel ctest load hid it).
          locks.ReleaseAll(txn);
          std::this_thread::sleep_for(1ms);
        }
      }
      done.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), kThreads);
  // Observable-state checks, not just "it didn't crash": the workload really
  // did deadlock (aborts fired), every abort came from a genuine wait, and
  // the wait-time histogram saw every blocking acquire.
  const uint64_t aborts = LockEvents("deadlock_aborts") - aborts0;
  EXPECT_GE(aborts, 1u);
  EXPECT_GE(LockEvents("waits") - waits0, aborts);
  EXPECT_GE(LockEvents("acquired") - acquired0,
            static_cast<uint64_t>(2 * kThreads * kTxnsEach));
}

// --- governed waits ----------------------------------------------------------

TEST(LockManagerTest, GovernedWaitWakesOnCancel) {
  const uint64_t governance_aborts = LockEvents("governance_aborts");
  LockManager locks(10000ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  QueryContext query;
  Status st;
  std::thread waiter([&] {
    st = locks.Acquire(2, "doc", LockMode::kExclusive, 10000ms, &query);
  });
  std::this_thread::sleep_for(30ms);
  auto cancelled_at = std::chrono::steady_clock::now();
  query.Cancel();
  waiter.join();
  auto wake_latency = std::chrono::steady_clock::now() - cancelled_at;
  // The wait returned the statement's status, not the generic deadlock
  // abort, and did so via the sliced wait — far sooner than the 10 s budget.
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
  EXPECT_LT(wake_latency, 1000ms);
  EXPECT_FALSE(locks.Holds(2, "doc"));
  EXPECT_EQ(LockEvents("governance_aborts") - governance_aborts, 1u);
}

TEST(LockManagerTest, GovernedWaitObservesDeadline) {
  LockManager locks(10000ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  QueryContext query;
  query.set_deadline_after(50ms);
  auto start = std::chrono::steady_clock::now();
  Status st = locks.Acquire(2, "doc", LockMode::kExclusive, 10000ms, &query);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  // The wait is capped exactly at the deadline, not at the lock timeout.
  EXPECT_LT(elapsed, 2000ms);
  EXPECT_FALSE(locks.Holds(2, "doc"));
}

TEST(LockManagerTest, AlreadyAbortedStatementNeverWaits) {
  LockManager locks(10000ms);
  ASSERT_TRUE(locks.Acquire(1, "doc", LockMode::kExclusive).ok());
  QueryContext query;
  query.Cancel();
  auto start = std::chrono::steady_clock::now();
  Status st = locks.Acquire(2, "doc", LockMode::kExclusive, 10000ms, &query);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_LT(elapsed, 1000ms);  // the pre-wait check fired; no blocking
}

TEST(LockManagerTest, HealthyGovernedAcquireBehavesNormally) {
  LockManager locks;
  QueryContext query;
  EXPECT_TRUE(locks.Acquire(1, "doc", LockMode::kShared, &query).ok());
  EXPECT_TRUE(locks.Acquire(2, "doc", LockMode::kShared, &query).ok());
  EXPECT_TRUE(locks.Holds(1, "doc"));
  // A governed waiter still gets the lock when the holder releases in time.
  Status st;
  std::thread waiter([&] {
    QueryContext q2;
    st = locks.Acquire(3, "doc", LockMode::kExclusive, 5000ms, &q2);
  });
  std::this_thread::sleep_for(20ms);
  locks.ReleaseAll(1);
  locks.ReleaseAll(2);
  waiter.join();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(locks.Holds(3, "doc"));
}

// A commit stamp reaches the next holder of the resource and goes once the
// log covers it, so the stamp map does not keep one entry per resource
// ever written.
TEST(LockManagerTest, StampsReachTheNextHolderAndClearOnceDurable) {
  LockManager locks;
  for (uint64_t txn = 1; txn <= 100; ++txn) {
    ASSERT_TRUE(
        locks.Acquire(txn, "doc" + std::to_string(txn), LockMode::kExclusive)
            .ok());
    locks.ReleaseAll(txn, /*commit_lsn=*/txn * 10);
  }
  EXPECT_EQ(locks.StampCount(), 100u);

  uint64_t stamp = 0;
  ASSERT_TRUE(locks.Acquire(200, "doc7", LockMode::kShared, nullptr, &stamp)
                  .ok());
  EXPECT_EQ(stamp, 70u);
  locks.ReleaseAll(200);  // a shared holder stamps nothing
  EXPECT_EQ(locks.StampCount(), 100u);

  locks.ClearStampsUpTo(500);
  EXPECT_EQ(locks.StampCount(), 50u);
  stamp = 0;
  ASSERT_TRUE(locks.Acquire(201, "doc7", LockMode::kShared, nullptr, &stamp)
                  .ok());
  EXPECT_EQ(stamp, 0u);  // durable: nothing to wait for
  locks.ReleaseAll(201);

  locks.ClearStampsUpTo(1000);
  EXPECT_EQ(locks.StampCount(), 0u);
}

}  // namespace
}  // namespace sedna
