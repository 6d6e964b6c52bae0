// Shared plumbing for the storage sub-stores (node blocks, text pages,
// indirection table): access to the buffer manager and a page-allocation
// interface that the transaction layer can interpose on (to track pages
// allocated by a transaction for rollback).

#ifndef SEDNA_STORAGE_STORAGE_ENV_H_
#define SEDNA_STORAGE_STORAGE_ENV_H_

#include "common/status.h"
#include "sas/buffer_manager.h"
#include "sas/page_directory.h"
#include "sas/xptr.h"

namespace sedna {

/// Context of one storage operation: which transaction/snapshot performs it.
struct OpCtx {
  ResolveContext resolve;

  static OpCtx System() { return OpCtx{}; }
};

/// Frees a logical page and the physical page backing it, dropping that
/// page's frames first: the free list may hand it out again at once.
inline Status FreeLogicalPage(SimplePageDirectory* directory,
                              BufferManager* buffers, LogicalPageId lpid) {
  if (buffers != nullptr) {
    StatusOr<PhysPageId> ppn = directory->Resolve(lpid, ResolveContext{});
    if (ppn.ok()) buffers->DiscardPhysical(*ppn);
    buffers->InvalidateShared(lpid);
  }
  return directory->FreeLogicalPage(Xptr(lpid));
}

/// Allocation interface; implemented directly by SimplePageDirectory via the
/// adapter below, and by the transaction layer with allocation tracking.
class PageAllocator {
 public:
  virtual ~PageAllocator() = default;
  virtual StatusOr<Xptr> AllocPage(const OpCtx& ctx) = 0;
  virtual Status FreePage(Xptr page_base, const OpCtx& ctx) = 0;

  /// Called once the buffer manager exists; implementations that free pages
  /// must drop their frames first (FreeLogicalPage).
  virtual void BindBuffers(BufferManager* buffers) { buffers_ = buffers; }

 protected:
  BufferManager* buffers_ = nullptr;
};

/// Pass-through allocator over the page directory.
class DirectoryAllocator : public PageAllocator {
 public:
  explicit DirectoryAllocator(SimplePageDirectory* directory)
      : directory_(directory) {}

  StatusOr<Xptr> AllocPage(const OpCtx&) override {
    return directory_->AllocLogicalPage();
  }

  Status FreePage(Xptr page_base, const OpCtx&) override {
    return FreeLogicalPage(directory_, buffers_, PageIdOf(page_base));
  }

 private:
  SimplePageDirectory* directory_;
};

/// Everything a storage component needs to touch pages.
struct StorageEnv {
  BufferManager* buffers = nullptr;
  PageAllocator* allocator = nullptr;

  /// Pins for read under `ctx`.
  StatusOr<PageGuard> Read(Xptr addr, const OpCtx& ctx) const {
    return buffers->Pin(addr, ctx.resolve, /*for_write=*/false);
  }

  /// Pins for write under `ctx` (may create a page version under MVCC).
  StatusOr<PageGuard> Write(Xptr addr, const OpCtx& ctx) const {
    return buffers->Pin(addr, ctx.resolve, /*for_write=*/true);
  }
};

}  // namespace sedna

#endif  // SEDNA_STORAGE_STORAGE_ENV_H_
