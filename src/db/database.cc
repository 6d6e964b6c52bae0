#include "db/database.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace sedna {

namespace {

struct AdmissionMetrics {
  Counter* admitted;
  Counter* rejected;
  Counter* queue_admitted;
  Counter* queue_aborts;
  Counter* checkpoints_admitted;
  Counter* checkpoints_rejected;
  Gauge* active;
  Gauge* queued;
};

const AdmissionMetrics& GovernorAdmissionMetrics() {
  static const AdmissionMetrics m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return AdmissionMetrics{reg.counter("governor.admitted"),
                            reg.counter("governor.rejected"),
                            reg.counter("governor.queue_admitted"),
                            reg.counter("governor.queue_aborts"),
                            reg.counter("governor.checkpoints_admitted"),
                            reg.counter("governor.checkpoints_rejected"),
                            reg.gauge("governor.active_statements"),
                            reg.gauge("governor.queued_statements")};
  }();
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<Database>> Database::Create(
    const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database());
  SEDNA_RETURN_IF_ERROR(db->Init(options, /*create=*/true));
  return db;
}

StatusOr<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  std::unique_ptr<Database> db(new Database());
  SEDNA_RETURN_IF_ERROR(db->Init(options, /*create=*/false));
  return db;
}

Database::~Database() {
  Governor::Instance().UnregisterDatabase(this);
}

Status Database::Init(const DatabaseOptions& options, bool create) {
  options_ = options;
  Vfs* vfs = options.vfs != nullptr ? options.vfs : Vfs::Default();

  StorageHooks hooks;
  if (options.enable_mvcc) {
    hooks.resolver_factory = [this](FileManager* file,
                                    SimplePageDirectory* directory)
        -> std::unique_ptr<PageResolver> {
      auto vm = std::make_unique<VersionManager>(file, directory);
      versions_ = vm.get();
      return vm;
    };
    hooks.allocator_factory =
        [this](SimplePageDirectory* directory) -> std::unique_ptr<PageAllocator> {
      return std::make_unique<TrackingAllocator>(directory, versions_);
    };
  }

  StorageOptions storage_options;
  storage_options.path = options.path;
  storage_options.buffer_frames = options.buffer_frames;
  storage_options.vfs = options.vfs;
  if (create) {
    SEDNA_ASSIGN_OR_RETURN(storage_,
                           StorageEngine::Create(storage_options, hooks));
    if (options.enable_wal) {
      SEDNA_RETURN_IF_ERROR(RemoveWalLog(options.EffectiveWalPath(), vfs));
    }
  } else {
    SEDNA_ASSIGN_OR_RETURN(storage_,
                           StorageEngine::Open(storage_options, hooks));
  }
  if (versions_ != nullptr) {
    versions_->BindBuffers(storage_->buffers());
  }
  indexes_ = std::make_unique<ValueIndexManager>(storage_.get());

  if (!create && options.enable_wal) {
    // Two-step recovery, step 2: replay committed statements on top of the
    // persistent snapshot the storage engine just restored. Runs before the
    // WAL is reopened for appending so the torn tail (anything past the
    // last valid record) can be cut off — otherwise new appends would land
    // behind garbage and be unreachable to the next recovery.
    uint64_t checkpoint_lsn = storage_->file()->master().checkpoint_lsn;
    StatementExecutor replayer(storage_.get());
    replayer.set_index_manager(indexes_.get());
    uint64_t wal_valid_end = 0;
    SEDNA_RETURN_IF_ERROR(RecoverFromWal(
        options.EffectiveWalPath(), checkpoint_lsn,
        [&](const std::string& stmt) -> Status {
          OpCtx system;
          StatusOr<StatementResult> r = replayer.Execute(stmt, system);
          return r.status();
        },
        &recovered_statements_, vfs, &wal_valid_end));
    SEDNA_RETURN_IF_ERROR(
        TruncateWalTail(options.EffectiveWalPath(), wal_valid_end, vfs));
  }

  if (options.enable_wal) {
    wal_ = std::make_unique<WalWriter>(vfs);
    WalWriterOptions wal_options;
    wal_options.segment_bytes = options.wal_segment_bytes;
    SEDNA_RETURN_IF_ERROR(wal_->Open(options.EffectiveWalPath(), wal_options));
    wal_->set_io_failure_handler(
        [this](const Status& st) { EnterDegradedMode(st); });
  }
  storage_->file()->set_io_failure_handler(
      [this](const Status& st) { EnterDegradedMode(st); });
  txns_ = std::make_unique<TransactionManager>(storage_.get(), versions_,
                                               wal_.get());
  txns_->set_write_gate([this] { return degraded_status(); });
  backup_ = std::make_unique<BackupManager>(storage_.get(), txns_.get());

  if (!create && options.enable_wal && recovered_statements_ > 0) {
    // Fold the replayed state into a fresh persistent snapshot.
    SEDNA_RETURN_IF_ERROR(txns_->Checkpoint());
  }

  Governor::Instance().RegisterDatabase(this, options.path);
  return Status::OK();
}

bool Database::degraded() const {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  return degraded_;
}

Status Database::degraded_status() const {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  if (!degraded_) return Status::OK();
  return Status::ReadOnlyDegraded(
      "database is read-only after an unrecoverable write error: " +
      degraded_cause_);
}

void Database::EnterDegradedMode(const Status& cause) {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  if (degraded_) return;
  degraded_ = true;
  degraded_cause_ = cause.ToString();
  SEDNA_LOG(kError) << "entering read-only degraded mode: "
                    << degraded_cause_;
}

std::unique_ptr<Session> Database::Connect() {
  return std::make_unique<Session>(this);
}

Status Database::Checkpoint() {
  // Admission before the drain: a second concurrent checkpoint of this
  // database would only queue behind the first and re-drain its writers for
  // no benefit, so it is shed with a retryable rejection instead.
  const AdmissionMetrics& m = GovernorAdmissionMetrics();
  if (checkpoint_running_.exchange(true)) {
    m.checkpoints_rejected->Add();
    return Status::ResourceExhausted(
        "a checkpoint of this database is already running; retry later");
  }
  m.checkpoints_admitted->Add();
  Status st = txns_->Checkpoint();
  checkpoint_running_.store(false);
  return st;
}

Status Database::CheckConsistency() {
  SEDNA_RETURN_IF_ERROR(storage_->CheckConsistency());
  // Walk every clean persistent index: B+tree structure plus resolution of
  // each stored handle through its document's indirection table.
  if (indexes_ != nullptr) {
    SEDNA_RETURN_IF_ERROR(indexes_->Validate(OpCtx::System()));
  }
  return Status::OK();
}

Status Database::FullBackup(const std::string& dir) {
  return backup_->FullBackup(dir);
}

Status Database::IncrementalBackup(const std::string& dir) {
  return backup_->IncrementalBackup(dir);
}

Status Database::Restore(const std::string& dir,
                         const DatabaseOptions& options) {
  return BackupManager::Restore(dir, options.path,
                                options.EffectiveWalPath());
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(Database* db)
    : db_(db),
      executor_(db->storage()),
      session_id_(Governor::Instance().RegisterSession()) {}

Session::~Session() {
  if (txn_ != nullptr) {
    Status st = db_->txns()->Abort(txn_.get());
    if (!st.ok()) {
      SEDNA_LOG(kError) << "session abort failed: " << st.ToString();
    }
    txn_.reset();
  }
  Governor::Instance().UnregisterSession(session_id_);
}

void Session::BeginGoverned(QueryContext* query) {
  if (statement_timeout_.count() > 0) {
    query->set_deadline_after(statement_timeout_);
  }
  query->set_memory_budget(statement_memory_budget_);
  query->set_check_interval(check_interval_);
  if (cancel_at_tick_ != 0) query->set_cancel_at_tick(cancel_at_tick_);
  query->set_alloc_faults(alloc_faults_);
  std::lock_guard<std::mutex> lock(query_mu_);
  current_query_ = query;
}

void Session::EndGoverned(QueryContext* query) {
  {
    std::lock_guard<std::mutex> lock(query_mu_);
    current_query_ = nullptr;
  }
  query->PublishMetrics();
}

Status Session::Begin(bool read_only) {
  if (txn_ != nullptr) {
    return Status::FailedPrecondition("transaction already open");
  }
  // Governed: the checkpoint gate inside Begin honours the session's
  // timeout and Cancel() instead of waiting indefinitely for the flip.
  QueryContext query;
  BeginGoverned(&query);
  StatusOr<std::unique_ptr<Transaction>> txn =
      db_->txns()->Begin(read_only, &query);
  EndGoverned(&query);
  SEDNA_ASSIGN_OR_RETURN(txn_, std::move(txn));
  return Status::OK();
}

Status Session::Commit() {
  if (txn_ == nullptr) {
    return Status::FailedPrecondition("no open transaction");
  }
  // Governed: the group-commit wait ends early on cancellation/deadline
  // (withdrawing the record when no leader has picked it yet).
  QueryContext query;
  BeginGoverned(&query);
  Status st = db_->txns()->Commit(txn_.get(), &query);
  EndGoverned(&query);
  txn_.reset();
  return st;
}

Status Session::Abort() {
  if (txn_ == nullptr) {
    return Status::FailedPrecondition("no open transaction");
  }
  Status st = db_->txns()->Abort(txn_.get());
  txn_.reset();
  return st;
}

StatusOr<QueryResult> Session::Execute(const std::string& statement,
                                       const RewriteOptions& options) {
  // One governance context for the whole statement, owned here rather than
  // by ExecuteIn so it also covers the autocommit Begin (checkpoint gate)
  // and Commit (group-commit wait) — a statement timeout or Cancel() call
  // bounds the durability wait, not just the pipeline.
  QueryContext query;
  BeginGoverned(&query);
  StatusOr<QueryResult> result = [&]() -> StatusOr<QueryResult> {
    if (txn_ != nullptr) {
      return ExecuteIn(txn_.get(), statement, options, &query);
    }
    // Autocommit: one transaction per statement.
    StatusOr<std::unique_ptr<Transaction>> txn =
        db_->txns()->Begin(/*read_only=*/false, &query);
    if (!txn.ok()) return txn.status();
    StatusOr<QueryResult> r = ExecuteIn(txn->get(), statement, options, &query);
    if (!r.ok()) {
      Status abort_st = db_->txns()->Abort(txn->get());
      if (!abort_st.ok()) {
        SEDNA_LOG(kError) << "autocommit abort failed: "
                          << abort_st.ToString();
      }
      return r;
    }
    // A failed commit has already rolled the transaction back; a cut
    // group-commit wait reports the statement's terminal status.
    Status commit_st = db_->txns()->Commit(txn->get(), &query);
    if (!commit_st.ok()) return commit_st;
    return r;
  }();
  EndGoverned(&query);
  return result;
}

void Session::Cancel() {
  std::lock_guard<std::mutex> lock(query_mu_);
  if (current_query_ != nullptr) current_query_->Cancel();
}

StatusOr<QueryResult> Session::ExecuteIn(Transaction* txn,
                                         const std::string& statement,
                                         const RewriteOptions& options,
                                         QueryContext* query) {
  // Admission: reject (retryably) instead of piling onto the buffer pool
  // when the process is already running its statement cap.
  SEDNA_ASSIGN_OR_RETURN(Governor::StatementTicket ticket,
                         Governor::Instance().AdmitStatement(query));

  executor_.set_index_manager(db_->indexes());
  executor_.set_query_context(query);
  executor_.set_doc_access_hook(
      [txn, query](const std::string& name, bool exclusive) {
        return txn->LockDocument(
            name, exclusive ? LockMode::kExclusive : LockMode::kShared,
            query);
      });
  executor_.set_update_listener(
      [txn](const std::string& text) { return txn->LogUpdate(text); });
  StatusOr<StatementResult> r = executor_.Execute(statement, txn->ctx(), options);
  executor_.set_query_context(nullptr);
  if (!r.ok()) {
    // An operator may have wrapped the governance status on the way out;
    // the sticky abort status preserves the statement's true terminal code
    // (kCancelled / kDeadlineExceeded / kResourceExhausted).
    Status abort = query->abort_status();
    if (!abort.ok()) return abort;
    return r.status();
  }
  QueryResult out;
  out.kind = r->kind;
  out.serialized = std::move(r->serialized);
  out.affected = r->affected;
  out.stats = r->stats;
  out.profile_text = std::move(r->profile_text);
  out.peak_memory_bytes = query->peak_bytes();
  return out;
}

// ---------------------------------------------------------------------------
// Governor
// ---------------------------------------------------------------------------

Governor& Governor::Instance() {
  static Governor* governor = new Governor();
  return *governor;
}

uint64_t Governor::RegisterSession() {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_session_id_++;
  sessions_[id] = true;
  return id;
}

void Governor::UnregisterSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

void Governor::RegisterDatabase(Database* db, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  databases_[db] = path;
}

void Governor::UnregisterDatabase(Database* db) {
  std::lock_guard<std::mutex> lock(mu_);
  databases_.erase(db);
}

void Governor::set_max_concurrent_statements(uint32_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_concurrent_statements_ = n;
  // A raised (or removed) cap may unblock queued statements immediately.
  if (!admit_queue_.empty()) admit_cv_.notify_all();
}

uint32_t Governor::max_concurrent_statements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_concurrent_statements_;
}

uint32_t Governor::active_statements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_statements_;
}

void Governor::set_max_queued_statements(uint32_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_queued_statements_ = n;
}

uint32_t Governor::max_queued_statements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_queued_statements_;
}

uint32_t Governor::queued_statements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(admit_queue_.size());
}

bool Governor::SlotFreeLocked() const {
  return max_concurrent_statements_ == 0 ||
         active_statements_ < max_concurrent_statements_;
}

StatusOr<Governor::StatementTicket> Governor::AdmitStatement(
    QueryContext* query) {
  const AdmissionMetrics& m = GovernorAdmissionMetrics();
  std::unique_lock<std::mutex> lock(mu_);
  // Fast path only when nobody is already parked: a free slot between a
  // release and the queue head waking must go to the FIFO head, not to a
  // newly arriving statement barging past it.
  if (admit_queue_.empty() && SlotFreeLocked()) {
    active_statements_++;
    m.admitted->Add();
    m.active->Set(static_cast<int64_t>(active_statements_));
    return StatementTicket(this);
  }
  if (max_queued_statements_ == 0 ||
      admit_queue_.size() >= max_queued_statements_) {
    m.rejected->Add();
    return Status::ResourceExhausted(
        "statement rejected by governor admission control (" +
        std::to_string(active_statements_) + " of " +
        std::to_string(max_concurrent_statements_) + " slots in use, " +
        std::to_string(admit_queue_.size()) + " of " +
        std::to_string(max_queued_statements_) +
        " queue slots in use); retry later");
  }
  // Bounded FIFO wait: park until the head of the queue AND a free slot
  // line up. The wait is governed, so the statement's deadline or a
  // Cancel() (e.g. server drain) aborts it instead of waiting forever.
  const uint64_t my_id = next_waiter_id_++;
  admit_queue_.push_back(my_id);
  m.queued->Set(static_cast<int64_t>(admit_queue_.size()));
  Status st = GovernedWait(query, admit_cv_, lock, [&] {
    return admit_queue_.front() == my_id && SlotFreeLocked();
  });
  if (st.ok()) {
    admit_queue_.pop_front();
    active_statements_++;
    m.admitted->Add();
    m.queue_admitted->Add();
    m.active->Set(static_cast<int64_t>(active_statements_));
  } else {
    admit_queue_.erase(
        std::find(admit_queue_.begin(), admit_queue_.end(), my_id));
    m.queue_aborts->Add();
  }
  m.queued->Set(static_cast<int64_t>(admit_queue_.size()));
  // The new head re-checks: later arrivals may also be admissible (cap
  // raised, several releases), and an aborted head hands its turn on.
  admit_cv_.notify_all();
  if (!st.ok()) return st;
  return StatementTicket(this);
}

void Governor::ReleaseStatement() {
  const AdmissionMetrics& m = GovernorAdmissionMetrics();
  std::lock_guard<std::mutex> lock(mu_);
  if (active_statements_ > 0) active_statements_--;
  m.active->Set(static_cast<int64_t>(active_statements_));
  if (!admit_queue_.empty()) admit_cv_.notify_all();
}

void Governor::StatementTicket::Release() {
  if (gov_ != nullptr) {
    gov_->ReleaseStatement();
    gov_ = nullptr;
  }
}

std::vector<Governor::ComponentInfo> Governor::Components() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ComponentInfo> out;
  for (const auto& [db, path] : databases_) {
    out.push_back({"database", path});
  }
  for (const auto& [id, _] : sessions_) {
    out.push_back({"session", "session-" + std::to_string(id)});
  }
  return out;
}

}  // namespace sedna
