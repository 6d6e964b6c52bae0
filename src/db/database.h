// Public Sedna-repro API (paper Figure 1).
//
// The Governor is the "control center": it keeps a registry of databases
// and sessions. A Database bundles the storage engine (buffer manager +
// page directory), the transaction manager (locks + versions + WAL) and
// recovery/backup. A Session is the per-client connection: it creates a
// transaction per statement (autocommit) or spans several statements
// (Begin/Commit/Abort), acquires document locks through the executor's
// access hook, and logs update statements to the WAL.

#ifndef SEDNA_DB_DATABASE_H_
#define SEDNA_DB_DATABASE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <deque>

#include "common/vfs.h"
#include "storage/storage_engine.h"
#include "txn/backup.h"
#include "txn/transaction.h"
#include "txn/version_manager.h"
#include "xquery/statement.h"
#include "xquery/value_index.h"

namespace sedna {

struct DatabaseOptions {
  std::string path;       // data file
  std::string wal_path;   // write-ahead log base ("" = derive from path);
                          // segments live at <base>.seg-<start LSN>
  size_t buffer_frames = 1024;
  bool enable_mvcc = true;   // page-level multiversioning (Section 6.1)
  bool enable_wal = true;    // durability (Section 6.4)
  uint64_t wal_segment_bytes = 8ull * 1024 * 1024;  // rotation threshold
  Vfs* vfs = nullptr;        // null = Vfs::Default(); tests inject faults here

  std::string EffectiveWalPath() const {
    return wal_path.empty() ? path + ".wal" : wal_path;
  }
};

/// Result of one statement, as returned to a client.
struct QueryResult {
  StatementKind kind = StatementKind::kQuery;
  std::string serialized;  // query output
  uint64_t affected = 0;   // update/DDL counts
  ExecStats stats;
  std::string profile_text;  // annotated plan tree (EXPLAIN statements)
  uint64_t peak_memory_bytes = 0;  // statement's budget high-water mark
};

class Session;

class Database {
 public:
  /// Creates a fresh database (truncating existing files).
  static StatusOr<std::unique_ptr<Database>> Create(
      const DatabaseOptions& options);

  /// Opens an existing database, running the two-step recovery: the
  /// storage engine restores the persistent snapshot, then committed update
  /// statements from the WAL are replayed (Section 6.4).
  static StatusOr<std::unique_ptr<Database>> Open(
      const DatabaseOptions& options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens a client session.
  std::unique_ptr<Session> Connect();

  /// Persistent snapshot (checkpoint). Safe under concurrent writers: the
  /// transaction manager drains active update transactions and gates new
  /// ones only for the flip. A second concurrent checkpoint of this
  /// database is rejected with a retryable status; other databases are
  /// unaffected.
  Status Checkpoint();

  /// Deep offline-style consistency sweep (CHECK DATABASE): validates every
  /// document's page chains, slot chains and indirection cross-references.
  /// Intended to run while no update transactions are active (e.g. right
  /// after recovery); reads the latest committed version of each page.
  Status CheckConsistency();

  /// Hot backups (Section 6.5).
  Status FullBackup(const std::string& dir);
  Status IncrementalBackup(const std::string& dir);
  static Status Restore(const std::string& dir,
                        const DatabaseOptions& options);

  StorageEngine* storage() { return storage_.get(); }
  TransactionManager* txns() { return txns_.get(); }
  VersionManager* versions() { return versions_; }
  ValueIndexManager* indexes() { return indexes_.get(); }
  const DatabaseOptions& options() const { return options_; }
  uint64_t recovered_statements() const { return recovered_statements_; }

  // --- graceful degradation -------------------------------------------------
  // When FileManager or WalWriter exhausts its I/O retries on the write
  // path, the database trips into read-only degraded mode: reads keep
  // working from memory/disk, every update statement is rejected with
  // kReadOnlyDegraded before it mutates anything.

  /// True once an unrecoverable write error has tripped read-only mode.
  bool degraded() const;

  /// OK while healthy; the kReadOnlyDegraded status (with the original
  /// cause) once degraded. Installed as the transaction write gate.
  Status degraded_status() const;

  /// Trips read-only degraded mode. Idempotent; the first cause is kept.
  void EnterDegradedMode(const Status& cause);

 private:
  Database() = default;
  Status Init(const DatabaseOptions& options, bool create);

  DatabaseOptions options_;
  // Declared before storage_/wal_ so the state outlives them: their
  // io-failure handlers can fire from flushes during destruction.
  mutable std::mutex degraded_mu_;
  bool degraded_ = false;
  std::string degraded_cause_;
  std::unique_ptr<StorageEngine> storage_;
  VersionManager* versions_ = nullptr;  // owned by storage_ hooks
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<BackupManager> backup_;
  std::unique_ptr<ValueIndexManager> indexes_;
  uint64_t recovered_statements_ = 0;
  std::atomic<bool> checkpoint_running_{false};  // admits one Checkpoint()
};

/// A client session (Figure 1's connection + transaction components).
class Session {
 public:
  explicit Session(Database* db);
  ~Session();

  /// Executes one statement. Outside an explicit transaction the statement
  /// runs in its own autocommit transaction. Each statement runs under a
  /// fresh QueryContext built from this session's governance knobs below.
  StatusOr<QueryResult> Execute(const std::string& statement,
                                const RewriteOptions& options = {});

  /// Explicit transaction control. `read_only` transactions read a
  /// snapshot and never block on (or take) document locks. Begin, Commit
  /// and each statement run under the session's governance knobs: the
  /// statement timeout and Cancel() also bound the checkpoint gate in
  /// Begin and the group-commit wait in Commit.
  Status Begin(bool read_only = false);
  Status Commit();
  Status Abort();
  bool in_transaction() const { return txn_ != nullptr; }

  uint64_t session_id() const { return session_id_; }

  // --- statement governance -------------------------------------------------

  /// Wall-clock deadline applied to each statement. Zero (default) = none.
  void set_statement_timeout(std::chrono::nanoseconds timeout) {
    statement_timeout_ = timeout;
  }

  /// Memory budget charged by each statement's materialization buffers.
  /// Zero (default) = unlimited (accounting still runs).
  void set_statement_memory_budget(uint64_t bytes) {
    statement_memory_budget_ = bytes;
  }

  /// Pulls between governance checks on the pipeline hot path (default 64;
  /// 1 = check every pull, used by torture tests for kill granularity).
  void set_check_interval(uint32_t n) { check_interval_ = n; }

  /// Attaches a deterministic allocation-fault injector to every subsequent
  /// statement (not owned; pass nullptr to detach).
  void set_alloc_faults(AllocFaultInjector* inj) { alloc_faults_ = inj; }

  /// Test hook: each subsequent statement trips its own cancellation at the
  /// N-th governance tick (0 = disabled).
  void set_cancel_at_tick(uint64_t n) { cancel_at_tick_ = n; }

  /// Worker threads a morsel exchange may use for eligible path scans in
  /// subsequent statements (<= 1 = serial; the SEDNA_PARALLEL_WORKERS
  /// environment variable seeds the default).
  void set_parallel_workers(uint32_t n) { executor_.set_parallel_workers(n); }
  uint32_t parallel_workers() const { return executor_.parallel_workers(); }

  /// Items per pipeline batch on full-drain paths (0 = built-in default;
  /// the SEDNA_BATCH_SIZE environment variable seeds it).
  void set_batch_size(size_t n) { executor_.set_batch_size(n); }
  size_t batch_size() const { return executor_.batch_size(); }

  /// Cancels the currently executing statement, if any (thread-safe; no-op
  /// between statements). The statement aborts with kCancelled at its next
  /// governance check.
  void Cancel();

  /// Governance context of the statement executing right now (null between
  /// statements). The pointer is valid only while that statement runs, so
  /// only code on the statement's own thread may use it: the network front
  /// end's result sink governs its flow-control wait with it, so the
  /// statement deadline and an out-of-band Cancel also end a statement
  /// stalled on a slow reader.
  QueryContext* current_query() const {
    std::lock_guard<std::mutex> lock(query_mu_);
    return current_query_;
  }

  /// Incremental result delivery: when set, each query-result item is
  /// serialized and handed to the sink as the pipeline produces it, and
  /// QueryResult::serialized stays empty — the network front end streams
  /// chunks to the client without ever materializing the result server-side.
  /// A non-OK status from the sink aborts the statement.
  void set_result_sink(std::function<Status(std::string_view)> fn) {
    executor_.set_result_sink(std::move(fn));
  }

 private:
  StatusOr<QueryResult> ExecuteIn(Transaction* txn,
                                  const std::string& statement,
                                  const RewriteOptions& options,
                                  QueryContext* query);

  /// Applies the session's governance knobs to a fresh context and installs
  /// it as the current one (so Cancel() reaches it).
  /// The context lives in the caller's frame: it must span every governed
  /// wait of the operation, including an autocommit's group-commit wait.
  void BeginGoverned(QueryContext* query);
  void EndGoverned(QueryContext* query);

  Database* db_;
  StatementExecutor executor_;
  std::unique_ptr<Transaction> txn_;  // explicit transaction, if open
  uint64_t session_id_;

  std::chrono::nanoseconds statement_timeout_{0};
  uint64_t statement_memory_budget_ = 0;
  uint32_t check_interval_ = 64;
  uint64_t cancel_at_tick_ = 0;
  AllocFaultInjector* alloc_faults_ = nullptr;

  // Context of the statement executing right now; Cancel() callers on
  // other threads reach it under the mutex.
  mutable std::mutex query_mu_;
  QueryContext* current_query_ = nullptr;
};

/// Process-wide control center (Figure 1's governor): component registry
/// plus statement admission control. Admission caps the number of
/// concurrently executing statements so a burst sheds load with a
/// retryable rejection instead of thrashing the buffer pool.
class Governor {
 public:
  static Governor& Instance();

  uint64_t RegisterSession();
  void UnregisterSession(uint64_t id);
  void RegisterDatabase(Database* db, const std::string& path);
  void UnregisterDatabase(Database* db);

  struct ComponentInfo {
    std::string kind;  // "database" | "session"
    std::string detail;
  };
  std::vector<ComponentInfo> Components() const;

  // --- admission control ----------------------------------------------------

  /// RAII admission slot: one executing statement holds one ticket; the
  /// slot frees when the ticket dies (whatever path the statement exits
  /// through).
  class StatementTicket {
   public:
    StatementTicket() = default;
    StatementTicket(StatementTicket&& other) noexcept : gov_(other.gov_) {
      other.gov_ = nullptr;
    }
    StatementTicket& operator=(StatementTicket&& other) noexcept {
      if (this != &other) {
        Release();
        gov_ = other.gov_;
        other.gov_ = nullptr;
      }
      return *this;
    }
    ~StatementTicket() { Release(); }

    StatementTicket(const StatementTicket&) = delete;
    StatementTicket& operator=(const StatementTicket&) = delete;

    void Release();

   private:
    friend class Governor;
    explicit StatementTicket(Governor* gov) : gov_(gov) {}
    Governor* gov_ = nullptr;
  };

  /// Caps concurrently executing statements process-wide. 0 (default) =
  /// unlimited.
  void set_max_concurrent_statements(uint32_t n);
  uint32_t max_concurrent_statements() const;
  uint32_t active_statements() const;

  /// Statements allowed to QUEUE (bounded FIFO) when the concurrency cap is
  /// reached, instead of bouncing immediately. 0 (default) keeps the legacy
  /// reject-on-full behavior; an embedding program sets this so a burst of
  /// client statements waits its turn (backpressure) rather than raining
  /// retryable errors on every client.
  void set_max_queued_statements(uint32_t n);
  uint32_t max_queued_statements() const;
  uint32_t queued_statements() const;

  /// Admits one statement. When the concurrency cap is reached: with the
  /// queue disabled the statement is rejected with a retryable
  /// kResourceExhausted (load shedding); with `set_max_queued_statements`
  /// the caller joins a bounded FIFO and blocks until a slot frees. The
  /// wait is governed — `query`'s deadline/cancellation abort it (and a
  /// full queue still rejects immediately).
  StatusOr<StatementTicket> AdmitStatement(QueryContext* query = nullptr);

 private:
  Governor() = default;
  void ReleaseStatement();
  bool SlotFreeLocked() const;

  mutable std::mutex mu_;
  std::condition_variable admit_cv_;
  uint64_t next_session_id_ = 1;
  std::map<uint64_t, bool> sessions_;
  std::map<Database*, std::string> databases_;
  uint32_t max_concurrent_statements_ = 0;
  uint32_t active_statements_ = 0;
  uint32_t max_queued_statements_ = 0;
  uint64_t next_waiter_id_ = 1;
  std::deque<uint64_t> admit_queue_;  // FIFO of waiting statement ids
};

}  // namespace sedna

#endif  // SEDNA_DB_DATABASE_H_
