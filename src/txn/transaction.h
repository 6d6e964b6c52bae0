// Transaction manager (paper Section 6): ties S2PL locking, page-level
// multiversioning, WAL and checkpointing together.
//
//  * Every statement executes within a transaction (autocommit wraps one).
//  * Updaters hold exclusive document locks to commit; read-only
//    transactions read a snapshot and take no locks (Section 6.3).
//  * Durability: update statements are WAL-logged before their mutations
//    apply; commit forces the log through the WAL's group commit — one
//    fsync covers every transaction in the batch (Section 6.4).
//  * Early lock release: the commit point is the commit record's append.
//    A committer publishes its versions and releases its locks there, and
//    only then waits for the fsync, so the next writer of the same document
//    runs while that sync is in flight. No transaction returns from Commit
//    before the log is durable up to every commit it may have read: a
//    writer waits for its own commit record, a transaction that logged
//    nothing for the newest commit stamp on the documents it locked, a
//    snapshot reader for the newest commit published when it began. A
//    failed autocommit statement waits the same way after its Abort.
//  * Checkpoint creates the paper's "persistent snapshot": it drains
//    active update transactions (new ones are gated at Begin, where they
//    hold no locks), flushes all committed state, serializes catalog +
//    directory, stamps the checkpoint LSN into the master record, and then
//    unlinks WAL segments wholly below it. Commits of already-running
//    transactions are never blocked — they are exactly what the drain
//    waits for.
//
// Why drain instead of a fuzzy flip: working page versions never enter the
// page directory (copy-on-write), but the in-memory catalog and document
// metadata are mutated in place by active update transactions and restored
// on abort. A master-record flip concurrent with such a transaction would
// persist unacknowledged metadata. With zero update transactions active,
// everything the flip captures is committed.

#ifndef SEDNA_TXN_TRANSACTION_H_
#define SEDNA_TXN_TRANSACTION_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "common/query_context.h"
#include "storage/storage_engine.h"
#include "txn/lock_manager.h"
#include "txn/version_manager.h"
#include "txn/wal.h"

namespace sedna {

class TransactionManager;

/// A running transaction. Obtained from TransactionManager::Begin; must be
/// finished with Commit or Abort (the destructor aborts a live one).
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  bool read_only() const { return read_only_; }
  bool active() const { return active_; }
  uint64_t snapshot_ts() const { return snapshot_ts_; }

  /// Storage context carrying this transaction's identity/snapshot.
  OpCtx ctx() const;

  /// Acquires a document lock (no-op for read-only transactions, which are
  /// isolated by the snapshot instead). A non-null `query` lets the lock
  /// wait wake early on the statement's cancellation or deadline.
  Status LockDocument(const std::string& name, LockMode mode,
                      QueryContext* query = nullptr);

  /// Appends an update-statement record to the WAL (called by the statement
  /// executor's update listener before mutations are applied).
  Status LogUpdate(const std::string& statement_text);

 private:
  friend class TransactionManager;
  Transaction(TransactionManager* mgr, uint64_t id, bool read_only,
              uint64_t snapshot_ts)
      : mgr_(mgr), id_(id), read_only_(read_only), snapshot_ts_(snapshot_ts) {}

  TransactionManager* mgr_;
  uint64_t id_;
  bool read_only_;
  uint64_t snapshot_ts_;
  bool active_ = true;
  bool logged_any_update_ = false;
  bool counted_updater_ = false;  // registered in the checkpoint drain count
  // End LSN of the newest commit this transaction may have read; a Commit
  // that logged nothing returns only once the log is durable up to it.
  uint64_t read_lsn_ = 0;
  // Documents locked exclusively: name -> metadata at first lock (nullopt
  // if the document did not exist yet). Restored on abort.
  std::map<std::string, std::optional<std::string>> meta_snapshots_;
};

class TransactionManager {
 public:
  /// Returns OK when update statements may proceed; a non-OK status (e.g.
  /// Status::ReadOnlyDegraded) blocks every update before it mutates any
  /// state. Installed by the database layer.
  using WriteGate = std::function<Status()>;

  /// `wal` may be null (no durability — used by some benchmarks).
  TransactionManager(StorageEngine* storage, VersionManager* versions,
                     WalWriter* wal);

  /// Install during initialization, before transactions run.
  void set_write_gate(WriteGate gate) { write_gate_ = std::move(gate); }

  /// OK, or the gate's error if updates are currently disallowed.
  Status CheckWriteAllowed() const {
    return write_gate_ ? write_gate_() : Status::OK();
  }

  /// Starts a transaction. A non-read-only Begin waits (a governed wait
  /// when `query` is non-null) while a checkpoint is flipping — the gate
  /// sits before any lock or WAL record, so a gated transaction holds
  /// nothing another transaction could wait on.
  StatusOr<std::unique_ptr<Transaction>> Begin(bool read_only = false,
                                               QueryContext* query = nullptr);

  /// Commits. A transaction that logged updates checks `query` (when
  /// non-null) first: a cancelled or expired statement is rolled back —
  /// metadata restored, versions aborted, locks released — and returns its
  /// status, as does one whose commit record cannot be appended. Past that
  /// check the commit record is appended, the versions are published and
  /// the locks released (the commit point); then the call waits, ungoverned,
  /// until the log is durable up to that record. A failed sync after the
  /// commit point is returned but rolls nothing back: later transactions
  /// may already have read the commit. Every Commit, including read-only
  /// ones, returns only once the log is durable up to what the transaction
  /// read, or returns the log's sticky failure.
  Status Commit(Transaction* txn, QueryContext* query = nullptr);
  /// Rolls back and releases. An abort acknowledges nothing, so it does
  /// not wait for the log.
  Status Abort(Transaction* txn);

  /// Waits, ungoverned, until the log is durable up to every commit `txn`
  /// may have read, counting `wal.reader_waits` when it is not already;
  /// returns the log's sticky failure if that sync failed. Commit calls it
  /// for a transaction that logged nothing; a failed autocommit statement
  /// calls it after its Abort, because its error is an answer too.
  Status WaitForReads(const Transaction* txn);

  /// Persistent snapshot (Section 6.4): drains active update transactions,
  /// flushes + serializes catalog/directory + checkpoint LSN, then unlinks
  /// WAL segments wholly below the new checkpoint. Safe under concurrent
  /// writers; a non-null `query` bounds the drain wait by the caller's
  /// deadline/cancellation. Serialized against itself.
  Status Checkpoint(QueryContext* query = nullptr);

  /// Runs `fn` holding the checkpoint serialization lock: no checkpoint can
  /// flip the master record or unlink WAL segments while it runs. Commits
  /// proceed normally. Backup copies the data file and log segments under
  /// this — copy-on-write keeps the persistent snapshot's pages immutable
  /// between checkpoints, so the copy is consistent without blocking
  /// writers.
  Status WithCheckpointLock(const std::function<Status()>& fn);

  LockManager* locks() { return &locks_; }
  WalWriter* wal() { return wal_; }

  /// Update transactions currently counted by the checkpoint drain
  /// (observability/tests).
  uint64_t active_updaters() const;

  /// Transactions begun but not yet committed or aborted, read-only ones
  /// included. Zero when no client holds an open transaction — the network
  /// torture suites assert this after every injected fault to prove no
  /// disconnect/drain path orphans a transaction.
  uint64_t live_transactions() const {
    return live_transactions_.load(std::memory_order_acquire);
  }

 private:
  friend class Transaction;

  /// Best-effort rollback shared by Abort and the failed-commit path:
  /// restores document metadata, logs the abort record (errors ignored —
  /// recovery treats missing-commit as aborted anyway), aborts the
  /// versions. Returns the first hard error but keeps going.
  Status RollbackWork(Transaction* txn);

  /// Removes the transaction from the drain count (idempotent per txn).
  void FinishUpdater(Transaction* txn);

  /// Appends the commit record of `txn` (when it logged updates), takes
  /// the commit timestamp and publishes the versions, as one step under
  /// publish_mu_. Sets `*commit_lsn` to the end of the commit record once
  /// it is appended.
  Status Publish(Transaction* txn, uint64_t* commit_lsn);

  StorageEngine* storage_;
  VersionManager* versions_;
  WalWriter* wal_;
  LockManager locks_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> clock_;
  std::atomic<uint64_t> last_commit_ts_;
  // Commit-record append, commit-timestamp assignment and version
  // publication happen together under this mutex, so commit records sit in
  // the log in commit-timestamp order (the order recovery replays them in)
  // and snapshot readers always see a prefix of the commit order. A
  // read-only Begin takes and registers its snapshot under it too.
  std::mutex publish_mu_;
  uint64_t last_commit_lsn_ = 0;  // end of the newest published commit
                                  // record; guarded by publish_mu_
  Counter* m_reader_waits_ = nullptr;  // wal.reader_waits
  // Checkpoint drain state: count of live update transactions and the
  // gate that holds new ones while a checkpoint runs.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  uint64_t active_updaters_ = 0;
  std::atomic<uint64_t> live_transactions_{0};
  bool checkpoint_pending_ = false;
  std::mutex checkpoint_mu_;  // one checkpoint at a time
  WriteGate write_gate_;
};

/// Two-step recovery (paper Section 6.4): the caller has already restored
/// the persistent snapshot by opening the storage engine; this replays the
/// update statements of transactions that committed after the checkpoint.
/// `replay` executes one statement against the restored engine. `vfs`
/// defaults to Vfs::Default(); if `wal_valid_end` is non-null it receives
/// the end of the valid record prefix (pass it to TruncateWalTail so a torn
/// tail cannot corrupt later appends). Corruption in a sealed (non-newest)
/// WAL segment is returned as kCorruption — it cannot be a crash artifact.
Status RecoverFromWal(
    const std::string& wal_path, uint64_t checkpoint_lsn,
    const std::function<Status(const std::string& statement)>& replay,
    uint64_t* replayed_statements = nullptr, Vfs* vfs = nullptr,
    uint64_t* wal_valid_end = nullptr);

}  // namespace sedna

#endif  // SEDNA_TXN_TRANSACTION_H_
