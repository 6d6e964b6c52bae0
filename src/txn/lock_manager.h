// Lock manager implementing strict two-phase locking (paper Section 6.2).
//
// Locking granularity is a whole XML document, exactly as the paper states
// ("At the present moment, locking granularity is an XML document"), with
// shared/exclusive modes, lock upgrade, and timeout-based deadlock
// resolution (the waiter times out, returns kTimedOut, and its transaction
// aborts — a standard deadlock-breaking strategy for coarse lock spaces).
//
// Locks are released at the commit point, before the commit record is
// durable (early lock release). The committer stamps each document it held
// exclusively with the end LSN of its commit record; a later transaction
// learns the stamp when it is granted that document and must not
// acknowledge anything before the log is durable up to it.

#ifndef SEDNA_TXN_LOCK_MANAGER_H_
#define SEDNA_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/status.h"

namespace sedna {

enum class LockMode { kShared, kExclusive };

class LockManager {
 public:
  explicit LockManager(std::chrono::milliseconds default_timeout =
                           std::chrono::milliseconds(1000));

  /// Sets the per-transaction jitter applied to wait budgets, as a fraction
  /// of the timeout in [0, 1]. Timeout-based deadlock resolution is
  /// livelock-prone when symmetric deadlockers share one budget: both time
  /// out together, retry together, and deadlock again. Jitter breaks the
  /// symmetry. Deterministic: derived by hashing the transaction id, so a
  /// given txn always gets the same budget for a given base timeout.
  void set_timeout_jitter(double fraction) { jitter_fraction_ = fraction; }

  /// The effective wait budget for `txn_id`: `timeout` stretched by up to
  /// `jitter_fraction` (deterministically per transaction). Exposed for
  /// tests.
  std::chrono::milliseconds JitteredTimeout(
      uint64_t txn_id, std::chrono::milliseconds timeout) const;

  /// Acquires (or upgrades to) `mode` on `resource` for `txn_id`, blocking
  /// up to `timeout` (default constructor value). Re-acquiring an
  /// already-held compatible lock is a no-op; holding S and requesting X
  /// upgrades when possible.
  ///
  /// When `query` is non-null the wait also observes the statement's
  /// governance state: the wait wakes early on cancellation or deadline and
  /// returns the statement's abort status (kCancelled / kDeadlineExceeded)
  /// instead of the generic deadlock abort, so a blocked statement can be
  /// killed without waiting out the deadlock timeout.
  ///
  /// When `stamp` is non-null, a fresh grant raises `*stamp` to the
  /// resource's commit stamp (see ReleaseAll), read under the same mutex
  /// as the grant.
  Status Acquire(uint64_t txn_id, const std::string& resource, LockMode mode,
                 QueryContext* query = nullptr, uint64_t* stamp = nullptr);
  Status Acquire(uint64_t txn_id, const std::string& resource, LockMode mode,
                 std::chrono::milliseconds timeout,
                 QueryContext* query = nullptr, uint64_t* stamp = nullptr);

  /// Releases every lock of the transaction (strict 2PL: all locks are held
  /// until commit/abort). A non-zero `commit_lsn` stamps every resource the
  /// transaction held exclusively: its commit record ends there and may not
  /// be durable yet.
  void ReleaseAll(uint64_t txn_id, uint64_t commit_lsn = 0);

  /// Drops every stamp at or below `durable_lsn`: the log is durable up to
  /// there, so those stamps make no reader wait. Called once a commit is
  /// durable, so the map holds only stamps of syncs in flight or failed.
  void ClearStampsUpTo(uint64_t durable_lsn);

  /// Resources currently carrying a stamp (observability/tests).
  size_t StampCount() const;

  /// Mode currently held by the transaction on the resource, if any.
  bool Holds(uint64_t txn_id, const std::string& resource,
             LockMode* mode = nullptr) const;

  /// Total (txn, resource) grants currently held across all resources.
  /// Zero between transactions — torture suites assert this after every
  /// injected fault to prove no abort path leaks a lock.
  size_t TotalHeldLocks() const;

 private:
  struct LockState {
    // txn -> mode. Multiple kShared holders, or exactly one kExclusive.
    std::map<uint64_t, LockMode> holders;
    int waiters = 0;
  };

  bool CanGrantLocked(const LockState& state, uint64_t txn_id,
                      LockMode mode) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, LockState> locks_;
  // Resource -> end LSN of the last commit that held it exclusively, while
  // that commit may not be durable. Kept apart from locks_, whose entries
  // go when the last holder leaves.
  std::map<std::string, uint64_t> stamps_;
  std::chrono::milliseconds default_timeout_;
  double jitter_fraction_ = 0.25;

  // Process-wide registry instruments, resolved once at construction: the
  // only record of lock events.
  Counter* m_acquired_ = nullptr;
  Counter* m_waits_ = nullptr;            // acquisitions that had to block
  Counter* m_deadlock_aborts_ = nullptr;  // waits that timed out
  Counter* m_governance_aborts_ = nullptr;  // cut short by cancel/deadline
  Histogram* m_wait_ns_ = nullptr;
};

}  // namespace sedna

#endif  // SEDNA_TXN_LOCK_MANAGER_H_
