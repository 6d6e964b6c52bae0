// Page-level multiversioning (paper Section 6.1).
//
// "When transaction updates some page, a new version of this page is
// created" — implemented as copy-on-write physical pages resolved through
// this PageResolver. A snapshot is logically (timestamp, active set); here
// every read-only transaction reads the versions committed at or before its
// begin timestamp, updaters read last-committed plus their own working
// versions. "Old versions are purged when they are not needed anymore" —
// garbage collection runs when versions are superseded and when snapshots
// are released.
//
// Known simplification (see DESIGN.md §2): the in-memory descriptive schema
// is not versioned, so a reader concurrent with *structural* changes (new
// schema nodes / block-list head changes) may observe fresh navigation
// entry points; page *content* changes — the common case — are fully
// isolated. Pages freed by a transaction are only reclaimed once no live
// snapshot can reach them.

#ifndef SEDNA_TXN_VERSION_MANAGER_H_
#define SEDNA_TXN_VERSION_MANAGER_H_

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "sas/buffer_manager.h"
#include "sas/file_manager.h"
#include "sas/page_directory.h"
#include "sas/page_table.h"
#include "storage/storage_env.h"

namespace sedna {

class VersionManager : public PageResolver {
 public:
  VersionManager(FileManager* file, SimplePageDirectory* directory)
      : file_(file), directory_(directory) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    m_snapshots_created_ = reg.counter("mvcc.snapshots_created");
    m_version_copies_ = reg.counter("mvcc.version_copies");
    m_versions_purged_ = reg.counter("mvcc.versions_purged");
    m_snapshot_reads_ = reg.counter("mvcc.snapshot_reads");
  }

  void BindBuffers(BufferManager* buffers) { buffers_ = buffers; }

  // --- transaction lifecycle -------------------------------------------------

  /// Registers a transaction. Read-only transactions pin the snapshot at
  /// `snapshot_ts`; updaters read last-committed state.
  void BeginTxn(uint64_t txn_id, bool read_only, uint64_t snapshot_ts);

  /// Publishes the transaction's working versions as last-committed with
  /// timestamp `commit_ts`, rebinds the directory, invalidates the shared
  /// buffer view, and garbage-collects superseded versions.
  Status CommitTxn(uint64_t txn_id, uint64_t commit_ts);

  /// Discards working versions and frees pages the transaction allocated.
  Status AbortTxn(uint64_t txn_id);

  // --- allocation hooks (called by the tracking allocator) -------------------

  void OnPageAllocated(uint64_t txn_id, LogicalPageId lpid);

  /// Defers the free of `lpid` until commit + snapshot drain; immediate on
  /// abort rollback the free is simply forgotten.
  void OnPageFreed(uint64_t txn_id, LogicalPageId lpid);

  /// True if the free of this page must be routed through OnPageFreed.
  bool InTransaction(uint64_t txn_id) const;

  /// Marks the on-disk state as the persistent snapshot at `ts` (called at
  /// every checkpoint). Versions and freed pages belonging to the
  /// persistent snapshot are never reclaimed until the next checkpoint —
  /// this is what makes the two-step recovery's step one possible.
  Status SetPersistentSnapshot(uint64_t ts);

  // --- PageResolver -----------------------------------------------------------

  /// Last-committed reads (`snapshot_ts == 0`) of a page without a working
  /// copy resolve through the directory without taking `mu_`; see the
  /// ordering argument in version_manager.cc.
  StatusOr<PhysPageId> Resolve(LogicalPageId lpid,
                               const ResolveContext& ctx) override;
  StatusOr<WriteTarget> ResolveForWrite(LogicalPageId lpid,
                                        const ResolveContext& ctx) override;

  /// Resolution with `mu_` held for every context: the reference the
  /// lock-free path of `Resolve` must agree with.
  StatusOr<PhysPageId> ResolveLocked(LogicalPageId lpid,
                                     const ResolveContext& ctx);

  size_t live_version_count() const;

 private:
  struct CommittedVersion {
    uint64_t commit_ts;
    PhysPageId ppn;
  };
  struct PageVersions {
    std::vector<CommittedVersion> committed;  // ascending commit_ts; the
                                              // last entry mirrors the
                                              // directory mapping
    std::map<uint64_t, PhysPageId> working;   // txn -> uncommitted version
    uint64_t created_ts = 0;  // 0 = pre-existing (visible to everyone)
  };
  struct TxnState {
    bool read_only = false;
    uint64_t snapshot_ts = 0;
    std::vector<LogicalPageId> written;    // pages with working versions
    std::vector<LogicalPageId> allocated;  // fresh pages
    std::vector<LogicalPageId> freed;      // deferred frees
  };
  struct DeferredFree {
    uint64_t commit_ts;
    LogicalPageId lpid;
  };

  uint64_t MinActiveSnapshotLocked() const;
  /// Clears the page's working-copy flag once no transaction holds a copy.
  void ClearWorkingFlagIfNoCopyLocked(LogicalPageId lpid,
                                      const PageVersions& pv);
  void PurgeSupersededLocked(LogicalPageId lpid, PageVersions* pv);
  Status RunDeferredFreesLocked();
  Status FreePhysicalLocked(PhysPageId ppn);

  FileManager* file_;
  SimplePageDirectory* directory_;
  BufferManager* buffers_ = nullptr;

  mutable std::mutex mu_;
  std::map<LogicalPageId, PageVersions> versions_;
  std::map<uint64_t, TxnState> txns_;
  std::multiset<uint64_t> active_snapshots_;
  std::vector<DeferredFree> deferred_frees_;
  uint64_t persistent_snapshot_ts_ = 0;
  // 1 while some transaction holds a copy-on-write working version of the
  // page. Read without mu_ by Resolve; written only under mu_.
  PageTable<uint8_t> has_working_copy_;

  // Process-wide registry instruments, resolved once at construction: the
  // only record of version events.
  Counter* m_snapshots_created_ = nullptr;
  Counter* m_version_copies_ = nullptr;
  Counter* m_versions_purged_ = nullptr;
  Counter* m_snapshot_reads_ = nullptr;  // resolutions of an old version
};

/// PageAllocator that tracks transactional allocation/free so aborts can
/// roll back and snapshot readers keep freed pages reachable.
class TrackingAllocator : public PageAllocator {
 public:
  TrackingAllocator(SimplePageDirectory* directory, VersionManager* versions)
      : directory_(directory), versions_(versions) {}

  StatusOr<Xptr> AllocPage(const OpCtx& ctx) override;
  Status FreePage(Xptr page_base, const OpCtx& ctx) override;

 private:
  SimplePageDirectory* directory_;
  VersionManager* versions_;
};

}  // namespace sedna

#endif  // SEDNA_TXN_VERSION_MANAGER_H_
