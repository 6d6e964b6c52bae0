// Per-statement resource governance (paper Figure 1: the Governor is the
// control center of the process architecture).
//
// A QueryContext travels with one executing statement and carries the three
// controls the governor enforces:
//
//   * a deadline     — a steady-clock point after which every governance
//                      check returns kDeadlineExceeded;
//   * a cancellation — a shared token another thread (the session owner,
//     token            an admin console) can trip at any time; the running
//                      statement observes it at the next check and aborts
//                      with kCancelled;
//   * a memory       — a byte-accounted budget every materialization buffer
//     budget           (DDO sort, order-by tuples, last() predicates, lazy
//                      FLWOR domain caches, client result accumulation)
//                      charges before it grows; exceeding it aborts the
//                      statement with kResourceExhausted instead of growing
//                      without bound.
//
// The pull pipeline consults CheckTick() once per delivered item; the real
// clock read and flag load happen only every check_interval ticks, so the
// per-pull cost is a decrement and a predictable branch. Materialization
// barriers charge through MemoryReservation, an RAII grant that releases
// its bytes when the owning buffer dies, so `bytes_in_use` tracks live
// buffers and `peak_bytes` the statement's high-water mark.
//
// For fault injection, an AllocFaultInjector — the in-memory sibling of
// FaultInjectingVfs — can be attached: every budget charge is a counted
// "allocation point" and the injector fails the N-th one (or a seeded
// random subset) with kResourceExhausted, deterministically, so OOM
// torture tests can sweep hundreds of distinct failure points.
//
// Every blocking point a statement can reach (admission queue, checkpoint
// gate and drain, group-commit follower, lock wait, result flow control)
// waits through GovernedWait below, so all of them observe the deadline and
// a cancel the same way and report the same terminal status.
//
// Thread-safety: Cancel() may be called from any thread at any time; the
// accounting members are atomics, so a statement's own pipeline (single
// threaded today, possibly parallel later) and a monitoring thread can
// touch one QueryContext concurrently. The governor metrics for a terminal
// status (cancelled / deadline / oom) are counted exactly once per context.

#ifndef SEDNA_COMMON_QUERY_CONTEXT_H_
#define SEDNA_COMMON_QUERY_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "common/status.h"

namespace sedna {

/// Cooperative cancellation flag, shared between the statement's executing
/// thread and whoever may cancel it. Cancel() is sticky.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Deterministic allocation-fault injector: every budget charge is one
/// counted allocation point; the injector decides whether it fails. The
/// in-memory sibling of FaultInjectingVfs — all randomness comes from the
/// seed, so any observed failure replays exactly.
class AllocFaultInjector {
 public:
  explicit AllocFaultInjector(uint64_t seed = 0x0a110cULL) : seed_(seed) {}

  /// The charge with 0-based index `n` (and only it) fails.
  void FailAtCharge(uint64_t n) { fail_at_ = n; }

  /// Every charge independently fails with probability `rate`, derived
  /// deterministically from the seed and the charge index.
  void FailRandomly(double rate) { random_rate_ = rate; }

  void Clear() {
    fail_at_.reset();
    random_rate_ = 0.0;
  }

  /// Charges observed so far (== the index the next charge will get).
  uint64_t charges() const {
    return charge_counter_.load(std::memory_order_relaxed);
  }

  /// Counts one allocation point and returns the injected failure, if any.
  Status OnCharge(uint64_t bytes);

 private:
  uint64_t seed_;
  std::atomic<uint64_t> charge_counter_{0};
  std::optional<uint64_t> fail_at_;
  double random_rate_ = 0.0;
};

/// Per-statement governance state. Created by the session layer for each
/// statement (or by tests directly) and threaded through the executor.
class QueryContext {
 public:
  QueryContext();

  /// Wall-clock budget for the whole statement, measured from now.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    deadline_ = std::chrono::steady_clock::now() + budget;
    has_deadline_ = true;
  }
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// Memory budget in bytes charged by materialization buffers. 0 (the
  /// default) means unlimited — accounting still runs so peak_bytes and
  /// EXPLAIN output stay meaningful.
  void set_memory_budget(uint64_t bytes) { memory_budget_ = bytes; }
  uint64_t memory_budget() const { return memory_budget_; }

  /// Cancellation token; never null. Share it with the thread that may
  /// cancel the statement.
  const std::shared_ptr<CancellationToken>& cancellation() const {
    return cancel_;
  }
  void Cancel() { cancel_->Cancel(); }

  /// Attaches the allocation-fault injector (not owned; test scope).
  void set_alloc_faults(AllocFaultInjector* inj) { alloc_faults_ = inj; }

  /// Ticks between full governance checks on the pull hot path. 1 checks
  /// every pull (torture tests, maximum kill granularity); the default 64
  /// keeps the hot-path cost to a decrement + branch.
  void set_check_interval(uint32_t n) {
    check_interval_ = n == 0 ? 1 : n;
    check_countdown_.store(check_interval_, std::memory_order_relaxed);
  }
  uint32_t check_interval() const { return check_interval_; }

  /// Test hook: trip the cancellation token automatically at the N-th
  /// governance tick (1-based), so torture suites can kill a statement at
  /// an exact, reproducible pull count without a second thread.
  void set_cancel_at_tick(uint64_t n) { cancel_at_tick_ = n; }

  /// Cheap per-batch check: one atomic decrement and a predictable branch
  /// until the interval expires, then a full Check(). Called once per
  /// delivered batch; exchange workers share the countdown, so it is
  /// atomic (an occasional double-reset between racing workers only makes
  /// checks more frequent, never skipped unboundedly).
  Status CheckTick() {
    ticks_.fetch_add(1, std::memory_order_relaxed);
    if (check_countdown_.fetch_sub(1, std::memory_order_relaxed) > 1 &&
        cancel_at_tick_ == 0) {
      return Status::OK();
    }
    check_countdown_.store(check_interval_, std::memory_order_relaxed);
    return Check();
  }

  /// Full governance check: cancellation flag, then deadline. Used by
  /// GovernedWait and at statement boundaries.
  Status Check();

  /// Charges `bytes` against the memory budget (one allocation point for
  /// the fault injector). On failure nothing is charged.
  Status ChargeBytes(uint64_t bytes);

  /// Releases a previous charge.
  void ReleaseBytes(uint64_t bytes);

  uint64_t bytes_in_use() const {
    return bytes_in_use_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// The terminal governance status (kCancelled / kDeadlineExceeded /
  /// kResourceExhausted), sticky after the first failed check or charge.
  /// Lets the session classify an abort even when an operator wrapped the
  /// original status. OK while the statement is healthy.
  Status abort_status() const;

  /// Folds this statement's terminal accounting into the process-wide
  /// governor metrics (cancelled / deadline_aborts / oom_aborts counters,
  /// peak_statement_bytes gauge). Idempotent; the session layer calls it
  /// once when the statement finishes.
  void PublishMetrics();

 private:
  Status Fail(Status st);

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  uint64_t memory_budget_ = 0;
  std::shared_ptr<CancellationToken> cancel_;
  AllocFaultInjector* alloc_faults_ = nullptr;

  uint32_t check_interval_ = 64;
  std::atomic<uint32_t> check_countdown_{64};
  uint64_t cancel_at_tick_ = 0;
  std::atomic<uint64_t> ticks_{0};

  std::atomic<uint64_t> bytes_in_use_{0};
  std::atomic<uint64_t> peak_bytes_{0};

  // First terminal status, kept for classification. `fail_claim_` elects
  // the single writer; `failed_` publishes the written status with release
  // ordering, so concurrent failures record exactly one and readers never
  // see a torn status.
  std::atomic<bool> fail_claim_{false};
  std::atomic<bool> failed_{false};
  StatusCode abort_code_ = StatusCode::kOk;
  std::string abort_message_;
  bool metrics_published_ = false;
};

/// RAII grant against a statement's memory budget. A materialization buffer
/// owns one reservation and grows it as it appends; destruction (or the
/// owning stream's destruction) releases every byte, so a statement killed
/// mid-materialization cannot leak budget. Null context = no-op, so
/// ungoverned callers pay nothing.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  explicit MemoryReservation(QueryContext* query) : query_(query) {}
  MemoryReservation(MemoryReservation&& other) noexcept {
    *this = std::move(other);
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      Release();
      query_ = other.query_;
      bytes_ = other.bytes_;
      other.query_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~MemoryReservation() { Release(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// Charges `bytes` more; on failure the reservation keeps its prior size.
  Status Grow(uint64_t bytes) {
    if (query_ == nullptr || bytes == 0) return Status::OK();
    SEDNA_RETURN_IF_ERROR(query_->ChargeBytes(bytes));
    bytes_ += bytes;
    return Status::OK();
  }

  void Release() {
    if (query_ != nullptr && bytes_ > 0) query_->ReleaseBytes(bytes_);
    bytes_ = 0;
  }

  uint64_t bytes() const { return bytes_; }

 private:
  QueryContext* query_ = nullptr;
  uint64_t bytes_ = 0;
};

/// Longest a GovernedWait sleeps between checks. A cancel has no notify
/// channel into the waiter's condvar, so it is noticed within one slice.
inline constexpr std::chrono::milliseconds kGovernedSlice{5};

/// Blocks on `cv` (with `lock` held) until `ready()` holds, the statement
/// aborts, or `until` passes. `ready()` is tested first, so a wait whose
/// condition already holds never fails and never sleeps. Each round then
/// runs the governance check and sleeps until a notify, one slice, the
/// deadline or `until`, whichever comes first: the deadline is observed
/// exactly, a cancel within one slice.
///
/// Returns OK when ready; kTimedOut when `until` passes; otherwise the
/// statement's terminal status, which is its sticky abort status if one
/// was recorded (an operator may have failed it first) and the failed check
/// if not. A null `query` waits ungoverned, still waking every slice. The
/// caller undoes its own bookkeeping (leaves a queue, reopens a gate) on
/// failure.
template <typename Ready>
Status GovernedWait(QueryContext* query, std::condition_variable& cv,
                    std::unique_lock<std::mutex>& lock, Ready ready,
                    std::chrono::steady_clock::time_point until =
                        std::chrono::steady_clock::time_point::max()) {
  for (;;) {
    if (ready()) return Status::OK();
    if (query != nullptr) {
      Status check = query->Check();
      if (!check.ok()) {
        Status abort = query->abort_status();
        return abort.ok() ? check : abort;
      }
    }
    auto now = std::chrono::steady_clock::now();
    if (now >= until) return Status::TimedOut("governed wait timed out");
    auto wake = std::min(until, now + kGovernedSlice);
    if (query != nullptr && query->has_deadline()) {
      wake = std::min(wake, query->deadline());
    }
    cv.wait_until(lock, wake);
  }
}

}  // namespace sedna

#endif  // SEDNA_COMMON_QUERY_CONTEXT_H_
