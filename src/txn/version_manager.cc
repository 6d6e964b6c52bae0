#include "txn/version_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace sedna {

void VersionManager::BeginTxn(uint64_t txn_id, bool read_only,
                              uint64_t snapshot_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  TxnState state;
  state.read_only = read_only;
  state.snapshot_ts = snapshot_ts;
  txns_[txn_id] = std::move(state);
  if (read_only) {
    active_snapshots_.insert(snapshot_ts);
    m_snapshots_created_->Add();
  }
}

bool VersionManager::InTransaction(uint64_t txn_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txns_.count(txn_id) > 0;
}

uint64_t VersionManager::MinActiveSnapshotLocked() const {
  if (active_snapshots_.empty()) return ~0ull;
  return *active_snapshots_.begin();
}

void VersionManager::ClearWorkingFlagIfNoCopyLocked(LogicalPageId lpid,
                                                    const PageVersions& pv) {
  for (const auto& [txn, ppn] : pv.working) {
    if (ppn != kInvalidPhysPage) return;  // a creator's marker is no copy
  }
  has_working_copy_.Store(Xptr(lpid), 0);
}

Status VersionManager::FreePhysicalLocked(PhysPageId ppn) {
  if (buffers_ != nullptr) buffers_->DiscardPhysical(ppn);
  return file_->FreePage(ppn);
}

void VersionManager::PurgeSupersededLocked(LogicalPageId lpid,
                                           PageVersions* pv) {
  if (pv->committed.size() < 2) {
    multi_version_pages_.erase(lpid);
    return;
  }
  // Version i (not the last) is needed iff some active snapshot ts — or
  // the persistent snapshot — satisfies v[i].ts <= ts < v[i+1].ts.
  std::vector<CommittedVersion> kept;
  for (size_t i = 0; i < pv->committed.size(); ++i) {
    if (i + 1 == pv->committed.size()) {
      kept.push_back(pv->committed[i]);
      continue;
    }
    bool needed = persistent_snapshot_ts_ >= pv->committed[i].commit_ts &&
                  persistent_snapshot_ts_ < pv->committed[i + 1].commit_ts;
    for (uint64_t ts : active_snapshots_) {
      if (ts >= pv->committed[i].commit_ts &&
          ts < pv->committed[i + 1].commit_ts) {
        needed = true;
        break;
      }
    }
    if (needed) {
      kept.push_back(pv->committed[i]);
    } else {
      m_versions_purged_->Add();
      Status st = FreePhysicalLocked(pv->committed[i].ppn);
      if (!st.ok()) {
        SEDNA_LOG(kError) << "purging version of " << Xptr(lpid).ToString()
                          << " failed: " << st.ToString();
      }
    }
  }
  pv->committed = std::move(kept);
  if (pv->committed.size() >= 2) {
    multi_version_pages_.insert(lpid);
  } else {
    multi_version_pages_.erase(lpid);
  }
}

void VersionManager::PurgeAllSupersededLocked() {
  for (auto it = multi_version_pages_.begin();
       it != multi_version_pages_.end();) {
    LogicalPageId lpid = *it++;  // the purge may erase lpid from the set
    PurgeSupersededLocked(lpid, &versions_.at(lpid));
  }
}

Status VersionManager::RunDeferredFreesLocked() {
  uint64_t min_snapshot = MinActiveSnapshotLocked();
  std::vector<DeferredFree> remaining;
  for (const DeferredFree& df : deferred_frees_) {
    if (min_snapshot < df.commit_ts ||
        persistent_snapshot_ts_ < df.commit_ts) {
      // A live snapshot — or the on-disk persistent snapshot — may still
      // reach this page.
      remaining.push_back(df);
      continue;
    }
    // Free every version the page ever had, then the logical page itself.
    auto it = versions_.find(df.lpid);
    if (it != versions_.end()) {
      for (const CommittedVersion& v : it->second.committed) {
        // The latest version's ppn is the directory mapping, released by
        // FreeLogicalPage below.
        if (&v != &it->second.committed.back()) {
          SEDNA_RETURN_IF_ERROR(FreePhysicalLocked(v.ppn));
        }
      }
      versions_.erase(it);
      multi_version_pages_.erase(df.lpid);
    }
    if (directory_->Contains(df.lpid)) {
      SEDNA_RETURN_IF_ERROR(FreeLogicalPage(directory_, buffers_, df.lpid));
    }
  }
  deferred_frees_ = std::move(remaining);
  return Status::OK();
}

Status VersionManager::CommitTxn(uint64_t txn_id, uint64_t commit_ts) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return Status::FailedPrecondition("unknown transaction");
  }
  TxnState state = std::move(it->second);
  txns_.erase(it);

  if (state.read_only) {
    active_snapshots_.erase(active_snapshots_.find(state.snapshot_ts));
    // Snapshot release can unpin old versions on any multi-version page.
    PurgeAllSupersededLocked();
    return RunDeferredFreesLocked();
  }

  for (LogicalPageId lpid : state.written) {
    PageVersions& pv = versions_[lpid];
    auto working = pv.working.find(txn_id);
    if (working == pv.working.end()) continue;
    PhysPageId new_ppn = working->second;
    pv.working.erase(working);
    pv.committed.push_back({commit_ts, new_ppn});
    SEDNA_RETURN_IF_ERROR(directory_->Rebind(lpid, new_ppn));
    if (buffers_ != nullptr) buffers_->InvalidateShared(lpid);
    ClearWorkingFlagIfNoCopyLocked(lpid, pv);
    PurgeSupersededLocked(lpid, &pv);
  }
  for (LogicalPageId lpid : state.allocated) {
    PageVersions& pv = versions_[lpid];
    pv.created_ts = commit_ts;
    pv.working.erase(txn_id);
  }
  for (LogicalPageId lpid : state.freed) {
    deferred_frees_.push_back({commit_ts, lpid});
  }
  if (buffers_ != nullptr) buffers_->PublishTxnFrames(txn_id);
  return RunDeferredFreesLocked();
}

Status VersionManager::AbortTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return Status::FailedPrecondition("unknown transaction");
  }
  TxnState state = std::move(it->second);
  txns_.erase(it);

  if (state.read_only) {
    active_snapshots_.erase(active_snapshots_.find(state.snapshot_ts));
    return RunDeferredFreesLocked();
  }

  // "If it is rolled back, all its versions are simply discarded."
  for (LogicalPageId lpid : state.written) {
    auto vit = versions_.find(lpid);
    if (vit == versions_.end()) continue;
    auto working = vit->second.working.find(txn_id);
    if (working == vit->second.working.end()) continue;
    SEDNA_RETURN_IF_ERROR(FreePhysicalLocked(working->second));
    vit->second.working.erase(working);
    ClearWorkingFlagIfNoCopyLocked(lpid, vit->second);
  }
  for (LogicalPageId lpid : state.allocated) {
    versions_.erase(lpid);
    multi_version_pages_.erase(lpid);
    if (directory_->Contains(lpid)) {
      SEDNA_RETURN_IF_ERROR(FreeLogicalPage(directory_, buffers_, lpid));
    }
  }
  // The aborted transaction will never publish or flush its frames.
  if (buffers_ != nullptr) buffers_->ForgetTxn(txn_id);
  // Deferred frees of an aborted transaction never happen: the pages stay.
  return Status::OK();
}

void VersionManager::OnPageAllocated(uint64_t txn_id, LogicalPageId lpid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  it->second.allocated.push_back(lpid);
  PageVersions& pv = versions_[lpid];
  pv.created_ts = ~0ull;  // invisible until commit
  pv.working[txn_id] = kInvalidPhysPage;  // marks creator for write routing
}

void VersionManager::OnPageFreed(uint64_t txn_id, LogicalPageId lpid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return;
  it->second.freed.push_back(lpid);
}

// Lock-free resolution of last-committed reads. The locked path below
// answers a `snapshot_ts == 0` read from the directory unless the caller's
// own transaction holds a working copy of the page, so `mu_` is needed only
// when the page has a working copy at all:
//
//   * `txn_id == 0` never owns a copy: the directory answer is exact.
//   * Every write of `has_working_copy_` happens under `mu_`: ResolveForWrite
//     sets it when it creates a copy, and CommitTxn / AbortTxn clear it
//     after the last copy is gone and after the directory rebind.
//   * A transaction only ever reads its own working copy, and it set the
//     flag itself, in ResolveForWrite, before any read that must see the
//     copy (its statements are ordered by its own control flow). Only its
//     own commit or abort clears the flag again: ResolveForWrite refuses a
//     second working version of a page, so no other transaction's commit
//     or abort has a copy of it to retire. So the owner always observes
//     the flag set and takes the locked path.
//   * Any other reader, seeing a stale flag either way, is sent to the
//     locked path or to the directory; both give the directory answer,
//     which is what the locked code returns to every transaction but the
//     copy's owner. A read racing a commit's rebind sees the old or the new
//     mapping, as it would by taking `mu_` just before or just after the
//     commit; document locks (S2PL) keep transactional readers off pages a
//     commit is republishing in any case.
//
// Snapshot readers (`snapshot_ts != 0`) consult the version lists and keep
// the locked path.
StatusOr<PhysPageId> VersionManager::Resolve(LogicalPageId lpid,
                                             const ResolveContext& ctx) {
  if (ctx.snapshot_ts == 0 &&
      (ctx.txn_id == 0 || has_working_copy_.Load(Xptr(lpid)) == 0)) {
    return directory_->Resolve(lpid, ctx);
  }
  return ResolveLocked(lpid, ctx);
}

StatusOr<PhysPageId> VersionManager::ResolveLocked(LogicalPageId lpid,
                                                   const ResolveContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find(lpid);
  if (it != versions_.end() && ctx.txn_id != 0) {
    auto working = it->second.working.find(ctx.txn_id);
    if (working != it->second.working.end() &&
        working->second != kInvalidPhysPage) {
      return working->second;  // updater reads its own version
    }
  }
  if (ctx.snapshot_ts != 0) {
    if (it != versions_.end()) {
      const PageVersions& pv = it->second;
      if (pv.created_ts != 0 && pv.created_ts > ctx.snapshot_ts) {
        return Status::NotFound("page not visible in this snapshot");
      }
      // Latest committed version at or before the snapshot.
      const CommittedVersion* best = nullptr;
      for (const CommittedVersion& v : pv.committed) {
        if (v.commit_ts <= ctx.snapshot_ts) best = &v;
      }
      if (best != nullptr) {
        if (best != &pv.committed.back()) m_snapshot_reads_->Add();
        return best->ppn;
      }
      if (!pv.committed.empty()) {
        return Status::NotFound("page not visible in this snapshot");
      }
    }
    // No version history: the page predates versioning — read it directly.
  }
  return directory_->Resolve(lpid, ctx);
}

StatusOr<PageResolver::WriteTarget> VersionManager::ResolveForWrite(
    LogicalPageId lpid, const ResolveContext& ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ctx.txn_id == 0) {
    // System writes (loads, recovery replay) go in place.
    return directory_->ResolveForWrite(lpid, ctx);
  }
  auto txn = txns_.find(ctx.txn_id);
  if (txn == txns_.end()) {
    // Not a registered transaction: in-place.
    return directory_->ResolveForWrite(lpid, ctx);
  }
  if (txn->second.read_only) {
    return Status::FailedPrecondition(
        "read-only transaction attempted a write");
  }
  PageVersions& pv = versions_[lpid];
  auto working = pv.working.find(ctx.txn_id);
  if (working != pv.working.end()) {
    if (working->second == kInvalidPhysPage) {
      // Creator of a fresh page writes it in place.
      SEDNA_ASSIGN_OR_RETURN(PhysPageId ppn, directory_->Resolve(lpid, ctx));
      return WriteTarget{ppn, kInvalidPhysPage};
    }
    return WriteTarget{working->second, kInvalidPhysPage};
  }
  if (!pv.working.empty()) {
    // The paper's locking scheme "prevents two concurrent transactions from
    // creating uncommitted versions of the same page"; reaching this means
    // the caller bypassed document locking.
    return Status::Aborted("page already has an uncommitted version");
  }
  // First write: copy-on-write version.
  SEDNA_ASSIGN_OR_RETURN(PhysPageId last, directory_->Resolve(lpid, ctx));
  if (pv.committed.empty()) {
    // Remember the pre-existing version so older snapshots keep reading it.
    pv.committed.push_back({pv.created_ts == ~0ull ? 0 : pv.created_ts, last});
  }
  SEDNA_ASSIGN_OR_RETURN(PhysPageId fresh, file_->AllocPage());
  pv.working[ctx.txn_id] = fresh;
  has_working_copy_.Store(Xptr(lpid), 1);
  txn->second.written.push_back(lpid);
  m_version_copies_->Add();
  return WriteTarget{fresh, last};
}

Status VersionManager::SetPersistentSnapshot(uint64_t ts) {
  std::lock_guard<std::mutex> lock(mu_);
  persistent_snapshot_ts_ = ts;
  // Advancing the persistent snapshot may unpin versions on any
  // multi-version page.
  PurgeAllSupersededLocked();
  return RunDeferredFreesLocked();
}

size_t VersionManager::live_version_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [lpid, pv] : versions_) {
    n += pv.committed.size() + pv.working.size();
  }
  return n;
}

std::vector<PhysPageId> VersionManager::LivePages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PhysPageId> pages;
  for (const auto& [lpid, ppn] : directory_->Entries()) pages.push_back(ppn);
  for (const auto& [lpid, pv] : versions_) {
    for (const CommittedVersion& v : pv.committed) pages.push_back(v.ppn);
    // A creator's marker is kInvalidPhysPage, which names no page.
    for (const auto& [txn, ppn] : pv.working) pages.push_back(ppn);
  }
  return pages;
}

// ---------------------------------------------------------------------------
// TrackingAllocator
// ---------------------------------------------------------------------------

StatusOr<Xptr> TrackingAllocator::AllocPage(const OpCtx& ctx) {
  SEDNA_ASSIGN_OR_RETURN(Xptr page, directory_->AllocLogicalPage());
  if (ctx.resolve.txn_id != 0) {
    versions_->OnPageAllocated(ctx.resolve.txn_id, page.raw);
  }
  return page;
}

Status TrackingAllocator::FreePage(Xptr page_base, const OpCtx& ctx) {
  if (ctx.resolve.txn_id != 0 &&
      versions_->InTransaction(ctx.resolve.txn_id)) {
    versions_->OnPageFreed(ctx.resolve.txn_id, page_base.raw);
    return Status::OK();
  }
  return FreeLogicalPage(directory_, buffers_, PageIdOf(page_base));
}

}  // namespace sedna
