// Logical page directory: maps SAS logical pages (layer, page-index) to
// physical pages in the database file, and allocates logical address space.
//
// The directory is the seam where page-level multiversioning (Section 6.1 of
// the paper) plugs in: the transaction layer's VersionManager implements the
// `PageResolver` interface so that a reader resolves a logical page to the
// physical version its snapshot should see, while the plain directory below
// implements the single-version case.

#ifndef SEDNA_SAS_PAGE_DIRECTORY_H_
#define SEDNA_SAS_PAGE_DIRECTORY_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "sas/file_manager.h"
#include "sas/page_table.h"
#include "sas/xptr.h"

namespace sedna {

/// Per-access context passed to the resolver: identifies the transaction
/// (for its own uncommitted versions) and the snapshot timestamp it reads.
struct ResolveContext {
  uint64_t txn_id = 0;         // 0 = non-transactional / system access
  uint64_t snapshot_ts = 0;    // 0 = read last committed
  bool read_only = false;
};

/// Resolves logical pages to physical pages. Implemented by
/// SimplePageDirectory (one version) and by txn::VersionManager (MVCC).
class PageResolver {
 public:
  virtual ~PageResolver() = default;

  /// Physical page currently backing `lpid` for this context.
  virtual StatusOr<PhysPageId> Resolve(LogicalPageId lpid,
                                       const ResolveContext& ctx) = 0;

  /// Physical page a write by `ctx.txn_id` should go to. With MVCC this may
  /// create a new version (copy-on-write); the returned `copied_from` is the
  /// physical page whose contents must be copied into the new version first,
  /// or kInvalidPhysPage if none.
  struct WriteTarget {
    PhysPageId ppn = kInvalidPhysPage;
    PhysPageId copied_from = kInvalidPhysPage;
  };
  virtual StatusOr<WriteTarget> ResolveForWrite(LogicalPageId lpid,
                                                const ResolveContext& ctx) = 0;
};

/// Allocates logical pages (layer address space) and maintains the
/// single-version logical→physical map. Serializable to a meta blob so the
/// mapping survives restarts.
///
/// The map is a PageTable: `Resolve` and `ResolveForWrite` are one
/// lock-free lookup, so page pins on every core read it without a shared
/// lock. Allocation, free, `Rebind` and `Deserialize` store into it under
/// `mu_`, which also guards the allocator state.
class SimplePageDirectory : public PageResolver {
 public:
  explicit SimplePageDirectory(FileManager* file) : file_(file) {}

  /// Allocates a fresh logical page backed by a fresh physical page.
  /// Returns the page-base Xptr.
  StatusOr<Xptr> AllocLogicalPage();

  /// Frees the logical page and its physical backing.
  Status FreeLogicalPage(Xptr page_base);

  /// Rebinds `lpid` to a different physical page (used when committing a
  /// new version in the single-version fallback, and by recovery).
  Status Rebind(LogicalPageId lpid, PhysPageId ppn);

  /// True if the logical page is currently mapped.
  bool Contains(LogicalPageId lpid) const;

  size_t size() const;

  // PageResolver:
  StatusOr<PhysPageId> Resolve(LogicalPageId lpid,
                               const ResolveContext& ctx) override;
  StatusOr<WriteTarget> ResolveForWrite(LogicalPageId lpid,
                                        const ResolveContext& ctx) override;

  /// Serializes the full mapping + allocator state.
  std::string Serialize() const;
  Status Deserialize(const std::string& blob);

  /// Enumerates all (lpid, ppn) pairs (used by hot backup).
  std::vector<std::pair<LogicalPageId, PhysPageId>> Entries() const;

 private:
  mutable std::mutex mu_;  // serializes table_ writers and the allocator
  FileManager* file_;
  PageTable<PhysPageId, kInvalidPhysPage> table_;
  // Logical address-space allocator state: bump pointer + free list.
  uint32_t next_layer_ = kFirstLayer;
  uint32_t next_page_in_layer_ = 0;
  std::vector<uint64_t> free_lpids_;
  // Pages per layer; layers are far larger in principle (2^32 bytes) but a
  // modest default keeps the per-layer frame tables small.
  uint32_t pages_per_layer_ = 1u << 12;  // 4096 pages = 64 MiB per layer
};

}  // namespace sedna

#endif  // SEDNA_SAS_PAGE_DIRECTORY_H_
