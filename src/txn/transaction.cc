#include "txn/transaction.h"

#include <map>

#include "common/logging.h"

namespace sedna {

Transaction::~Transaction() {
  if (active_) {
    Status st = mgr_->Abort(this);
    if (!st.ok()) {
      SEDNA_LOG(kError) << "abort in destructor failed: " << st.ToString();
    }
  }
}

OpCtx Transaction::ctx() const {
  OpCtx op;
  op.resolve.txn_id = id_;
  op.resolve.read_only = read_only_;
  op.resolve.snapshot_ts = read_only_ ? snapshot_ts_ : 0;
  return op;
}

Status Transaction::LockDocument(const std::string& name, LockMode mode,
                                 QueryContext* query) {
  if (read_only_) return Status::OK();  // snapshot isolation, non-blocking
  SEDNA_RETURN_IF_ERROR(
      mgr_->locks()->Acquire(id_, name, mode, query, &read_lsn_));
  if (mode == LockMode::kExclusive && meta_snapshots_.count(name) == 0) {
    // First exclusive access: remember the document's in-memory metadata so
    // an abort can restore it (pages are rolled back by the versions).
    StatusOr<std::string> meta = mgr_->storage_->SnapshotDocumentMeta(name);
    if (meta.ok()) {
      meta_snapshots_[name] = std::move(meta).value();
    } else if (meta.status().code() == StatusCode::kNotFound) {
      meta_snapshots_[name] = std::nullopt;  // created inside this txn
    } else {
      return meta.status();
    }
  }
  return Status::OK();
}

Status Transaction::LogUpdate(const std::string& statement_text) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "update statement in a read-only transaction");
  }
  // The update listener fires before any mutation is applied, so a tripped
  // write gate (read-only degraded mode) rejects the statement while the
  // in-memory and on-disk state are still untouched.
  SEDNA_RETURN_IF_ERROR(mgr_->CheckWriteAllowed());
  if (mgr_->wal() == nullptr) return Status::OK();
  if (!logged_any_update_) {
    SEDNA_RETURN_IF_ERROR(
        mgr_->wal()->Append(WalRecordType::kBegin, id_, "").status());
    logged_any_update_ = true;
  }
  return mgr_->wal()
      ->Append(WalRecordType::kUpdateStatement, id_, statement_text)
      .status();
}

TransactionManager::TransactionManager(StorageEngine* storage,
                                       VersionManager* versions,
                                       WalWriter* wal)
    : storage_(storage), versions_(versions), wal_(wal) {
  m_reader_waits_ = MetricsRegistry::Global().counter("wal.reader_waits");
  uint64_t start_ts = storage_->file()->master().next_timestamp;
  clock_.store(start_ts);
  last_commit_ts_.store(start_ts);
  // The on-disk state at open time is the persistent snapshot.
  Status st = versions_->SetPersistentSnapshot(start_ts);
  SEDNA_CHECK(st.ok()) << st.ToString();
}

StatusOr<std::unique_ptr<Transaction>> TransactionManager::Begin(
    bool read_only, QueryContext* query) {
  if (!read_only) {
    // Checkpoint gate: while a checkpoint is draining/flipping, new update
    // transactions wait here. At this point the transaction holds no locks
    // and has logged nothing, so nobody can be waiting on it — the drain
    // cannot deadlock through this gate.
    std::unique_lock<std::mutex> lk(drain_mu_);
    SEDNA_RETURN_IF_ERROR(GovernedWait(query, drain_cv_, lk,
                                       [&] { return !checkpoint_pending_; }));
    active_updaters_++;
  }
  uint64_t id = next_txn_id_.fetch_add(1);
  // A read-only transaction takes its snapshot timestamp and registers it
  // in one step with respect to commit publication: a commit landing in
  // between would purge a version the snapshot needs before registration
  // could protect it. Updaters read last-committed state; no snapshot.
  std::unique_lock<std::mutex> publish_lock(publish_mu_, std::defer_lock);
  if (read_only) publish_lock.lock();
  uint64_t snapshot = last_commit_ts_.load();
  versions_->BeginTxn(id, read_only, snapshot);
  // The snapshot holds every commit published so far, durable or not.
  const uint64_t read_lsn = read_only ? last_commit_lsn_.load() : 0;
  if (read_only) publish_lock.unlock();
  std::unique_ptr<Transaction> txn(
      new Transaction(this, id, read_only, snapshot));
  txn->counted_updater_ = !read_only;
  txn->read_lsn_ = read_lsn;
  live_transactions_.fetch_add(1, std::memory_order_acq_rel);
  return txn;
}

void TransactionManager::FinishUpdater(Transaction* txn) {
  if (!txn->counted_updater_) return;
  txn->counted_updater_ = false;
  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    active_updaters_--;
  }
  drain_cv_.notify_all();
}

uint64_t TransactionManager::active_updaters() const {
  std::lock_guard<std::mutex> lk(drain_mu_);
  return active_updaters_;
}

Status TransactionManager::RollbackWork(Transaction* txn) {
  Status first;
  // Restore in-memory document metadata changed by this transaction.
  for (const auto& [name, meta] : txn->meta_snapshots_) {
    Status st = meta.has_value()
                    ? storage_->RestoreDocumentMeta(name, *meta)
                    : storage_->RemoveDocumentEntry(name);
    if (!st.ok() && first.ok()) first = st;
  }
  if (!txn->read_only_ && wal_ != nullptr && txn->logged_any_update_) {
    // Best effort: recovery already treats a transaction without a commit
    // record as aborted, and a degraded WAL must not wedge rollback.
    Status st = wal_->Append(WalRecordType::kAbort, txn->id_, "").status();
    if (!st.ok()) {
      SEDNA_LOG(kWarning) << "abort record not logged for txn " << txn->id_
                          << ": " << st.ToString();
    }
  }
  Status st = versions_->AbortTxn(txn->id_);
  if (!st.ok() && first.ok()) first = st;
  return first;
}

Status TransactionManager::Publish(Transaction* txn, uint64_t* commit_lsn) {
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  if (wal_ != nullptr && txn->logged_any_update_) {
    SEDNA_ASSIGN_OR_RETURN(*commit_lsn, wal_->AppendCommit(txn->id_));
  }
  uint64_t commit_ts = clock_.fetch_add(1) + 1;
  SEDNA_RETURN_IF_ERROR(versions_->CommitTxn(txn->id_, commit_ts));
  last_commit_ts_.store(commit_ts);
  if (*commit_lsn != 0) last_commit_lsn_.store(*commit_lsn);
  return Status::OK();
}

Status TransactionManager::WaitDurableFor(uint64_t lsn) {
  if (wal_ == nullptr || lsn <= wal_->durable_lsn()) return Status::OK();
  m_reader_waits_->Add();
  return wal_->WaitDurable(lsn);
}

Status TransactionManager::Commit(Transaction* txn, QueryContext* query) {
  if (!txn->active_) return Status::FailedPrecondition("transaction ended");
  txn->active_ = false;
  live_transactions_.fetch_sub(1, std::memory_order_acq_rel);
  if (txn->read_only_) {
    SEDNA_RETURN_IF_ERROR(versions_->CommitTxn(txn->id_, 0));
    return WaitDurableFor(txn->read_lsn_);
  }
  const bool logged = wal_ != nullptr && txn->logged_any_update_;
  // Governance: the last point at which the statement can still be
  // withdrawn — no commit record exists yet, so a cancelled or expired one
  // rolls back and is absent after recovery.
  Status st = logged && query != nullptr ? query->Check() : Status::OK();
  uint64_t commit_lsn = 0;
  if (st.ok()) st = Publish(txn, &commit_lsn);
  if (logged && commit_lsn == 0) {
    // No commit record was written: roll back so the live state matches
    // what recovery would reconstruct, and release everything.
    Status rollback = RollbackWork(txn);
    if (!rollback.ok()) {
      SEDNA_LOG(kError) << "rollback after failed commit of txn " << txn->id_
                        << ": " << rollback.ToString();
    }
    FinishUpdater(txn);
    locks_.ReleaseAll(txn->id_);
    return st;
  }
  // The commit point has passed: release the locks, stamping the documents
  // written with the commit record's end, and only then wait for the log.
  // The wait is not governed — the outcome is decided and one fsync bounds
  // it. A failed sync rolls nothing back (later transactions may already
  // have read this commit); the committer reports it and recovery decides.
  locks_.ReleaseAll(txn->id_, commit_lsn);
  Status durable = commit_lsn != 0 ? wal_->WaitDurable(commit_lsn)
                                   : WaitDurableFor(txn->read_lsn_);
  // Stamps the log now covers make no reader wait; only those of syncs in
  // flight or failed stay.
  if (commit_lsn != 0 && durable.ok()) {
    locks_.ClearStampsUpTo(wal_->durable_lsn());
  }
  // Leave the drain count only now, so a checkpoint still waits for
  // in-flight syncs.
  FinishUpdater(txn);
  return st.ok() ? durable : st;
}

Status TransactionManager::Abort(Transaction* txn) {
  if (!txn->active_) return Status::FailedPrecondition("transaction ended");
  txn->active_ = false;
  live_transactions_.fetch_sub(1, std::memory_order_acq_rel);
  Status result = RollbackWork(txn);
  // Whatever happened above, the transaction must leave the drain count and
  // the lock table — a wedged checkpoint or a leaked lock would outlive it.
  FinishUpdater(txn);
  locks_.ReleaseAll(txn->id_);
  return result;
}

Status TransactionManager::Checkpoint(QueryContext* query) {
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  // Fuzzy pre-flush: most dirty pages reach disk while update transactions
  // still run, shrinking the drained window to an incremental flush plus
  // the master flip. Working versions flushed here are unreachable from
  // the flipped master (copy-on-write), so this is safe. Frames pinned by
  // an active statement are skipped — flushing them would race with the pin
  // holder's updates; the post-drain flush writes them instead.
  SEDNA_RETURN_IF_ERROR(storage_->buffers()->FlushAll(/*skip_pinned=*/true));

  // Drain: gate new update transactions, wait for active ones to finish.
  {
    std::unique_lock<std::mutex> lk(drain_mu_);
    checkpoint_pending_ = true;
    Status drained = GovernedWait(query, drain_cv_, lk,
                                  [&] { return active_updaters_ == 0; });
    if (!drained.ok()) {
      // Reopen the gate for the updaters parked behind it.
      checkpoint_pending_ = false;
      lk.unlock();
      drain_cv_.notify_all();
      return drained;
    }
  }

  // Flip: zero update transactions are active, so the in-memory catalog,
  // directory and document metadata are all committed state.
  uint64_t checkpoint_lsn = wal_ != nullptr ? wal_->end_lsn() : 0;
  Status flip = [&]() -> Status {
    MasterRecord master = storage_->file()->master();
    master.next_timestamp = clock_.load() + 1;
    master.checkpoint_lsn = checkpoint_lsn;
    storage_->file()->set_master(master);
    SEDNA_RETURN_IF_ERROR(storage_->Checkpoint());
    // The freshly flushed state becomes the new persistent snapshot; pages
    // pinned by the previous one become reclaimable.
    SEDNA_RETURN_IF_ERROR(versions_->SetPersistentSnapshot(clock_.load()));
    if (wal_ != nullptr) {
      // The log restarts at the checkpoint LSN: the segment sealed here
      // holds only records the new snapshot covers, so the truncation
      // below unlinks it whole instead of keeping up to segment_bytes of
      // them.
      SEDNA_RETURN_IF_ERROR(wal_->StartSegment());
      SEDNA_RETURN_IF_ERROR(
          wal_->Append(WalRecordType::kCheckpoint, 0, "").status());
      SEDNA_RETURN_IF_ERROR(wal_->Sync());
    }
    return Status::OK();
  }();

  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    checkpoint_pending_ = false;
  }
  drain_cv_.notify_all();
  SEDNA_RETURN_IF_ERROR(flip);

  if (wal_ != nullptr) {
    // Everything below the checkpoint LSN is recoverable from the snapshot
    // now; the flipped master is durable (storage_->Checkpoint synced it),
    // so sealed segments wholly below it can be unlinked. Never a segment
    // at or above the checkpoint LSN.
    SEDNA_RETURN_IF_ERROR(wal_->RemoveSegmentsBelow(checkpoint_lsn));
  }
  return Status::OK();
}

Status TransactionManager::WithCheckpointLock(
    const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  return fn();
}

Status RecoverFromWal(
    const std::string& wal_path, uint64_t checkpoint_lsn,
    const std::function<Status(const std::string& statement)>& replay,
    uint64_t* replayed_statements, Vfs* vfs, uint64_t* wal_valid_end) {
  SEDNA_ASSIGN_OR_RETURN(
      std::vector<WalRecord> records,
      ReadWal(wal_path, checkpoint_lsn, vfs, wal_valid_end));
  // Collect statements per transaction; replay only committed ones, in
  // commit order.
  std::map<uint64_t, std::vector<std::string>> pending;
  uint64_t replayed = 0;
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecordType::kBegin:
        pending[record.txn_id].clear();
        break;
      case WalRecordType::kUpdateStatement:
        pending[record.txn_id].push_back(record.payload);
        break;
      case WalRecordType::kAbort:
        pending.erase(record.txn_id);
        break;
      case WalRecordType::kCommit: {
        auto it = pending.find(record.txn_id);
        if (it == pending.end()) break;
        for (const std::string& stmt : it->second) {
          SEDNA_RETURN_IF_ERROR(replay(stmt));
          replayed++;
        }
        pending.erase(it);
        break;
      }
      case WalRecordType::kCheckpoint:
        break;
    }
  }
  if (replayed_statements != nullptr) *replayed_statements = replayed;
  return Status::OK();
}

}  // namespace sedna
