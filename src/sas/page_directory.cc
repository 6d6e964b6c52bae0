#include "sas/page_directory.h"

#include "common/coding.h"
#include "common/logging.h"

namespace sedna {

StatusOr<Xptr> SimplePageDirectory::AllocLogicalPage() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t lpid;
  if (!free_lpids_.empty()) {
    lpid = free_lpids_.back();
    free_lpids_.pop_back();
  } else {
    if (next_page_in_layer_ >= pages_per_layer_) {
      next_layer_++;
      next_page_in_layer_ = 0;
    }
    if (next_layer_ == 0) {  // wrapped past 2^32 layers
      return Status::ResourceExhausted("logical address space exhausted");
    }
    Xptr base(next_layer_,
              next_page_in_layer_ << kPageSizeBits);
    next_page_in_layer_++;
    lpid = base.raw;
  }
  lock.unlock();
  SEDNA_ASSIGN_OR_RETURN(PhysPageId ppn, file_->AllocPage());
  lock.lock();
  table_.Store(Xptr(lpid), ppn);
  return Xptr(lpid);
}

Status SimplePageDirectory::FreeLogicalPage(Xptr page_base) {
  SEDNA_DCHECK(page_base.PageOffset() == 0);
  PhysPageId ppn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ppn = table_.Load(page_base);
    if (ppn == kInvalidPhysPage) {
      return Status::NotFound("logical page not mapped: " +
                              page_base.ToString());
    }
    table_.Store(page_base, kInvalidPhysPage);
    free_lpids_.push_back(page_base.raw);
  }
  return file_->FreePage(ppn);
}

Status SimplePageDirectory::Rebind(LogicalPageId lpid, PhysPageId ppn) {
  std::lock_guard<std::mutex> lock(mu_);
  table_.Store(Xptr(lpid), ppn);
  return Status::OK();
}

bool SimplePageDirectory::Contains(LogicalPageId lpid) const {
  return table_.Load(Xptr(lpid)) != kInvalidPhysPage;
}

size_t SimplePageDirectory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  table_.ForEach([&](Xptr, PhysPageId) { ++n; });
  return n;
}

StatusOr<PhysPageId> SimplePageDirectory::Resolve(LogicalPageId lpid,
                                                  const ResolveContext&) {
  PhysPageId ppn = table_.Load(Xptr(lpid));
  if (ppn == kInvalidPhysPage) {
    return Status::NotFound("logical page not mapped: " +
                            Xptr(lpid).ToString());
  }
  return ppn;
}

StatusOr<PageResolver::WriteTarget> SimplePageDirectory::ResolveForWrite(
    LogicalPageId lpid, const ResolveContext& ctx) {
  // Single-version directory: writes go to the page in place.
  SEDNA_ASSIGN_OR_RETURN(PhysPageId ppn, Resolve(lpid, ctx));
  return WriteTarget{ppn, kInvalidPhysPage};
}

std::string SimplePageDirectory::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string entries;
  uint64_t count = 0;
  table_.ForEach([&](Xptr page, PhysPageId ppn) {
    PutFixed64(&entries, page.raw);
    PutFixed32(&entries, ppn);
    ++count;
  });
  std::string blob;
  PutFixed32(&blob, next_layer_);
  PutFixed32(&blob, next_page_in_layer_);
  PutFixed32(&blob, pages_per_layer_);
  PutVarint64(&blob, free_lpids_.size());
  for (uint64_t lpid : free_lpids_) PutFixed64(&blob, lpid);
  PutVarint64(&blob, count);
  blob += entries;
  return blob;
}

Status SimplePageDirectory::Deserialize(const std::string& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  Decoder d(blob);
  uint64_t nfree = 0, nmap = 0;
  if (!d.GetFixed32(&next_layer_) || !d.GetFixed32(&next_page_in_layer_) ||
      !d.GetFixed32(&pages_per_layer_) || !d.GetVarint64(&nfree)) {
    return Status::Corruption("bad page directory blob");
  }
  if (pages_per_layer_ == 0 ||
      pages_per_layer_ > (1ull << (32 - kPageSizeBits))) {
    return Status::Corruption("bad page directory blob");
  }
  free_lpids_.clear();
  free_lpids_.reserve(nfree);
  for (uint64_t i = 0; i < nfree; ++i) {
    uint64_t lpid;
    if (!d.GetFixed64(&lpid)) return Status::Corruption("bad directory blob");
    free_lpids_.push_back(lpid);
  }
  if (!d.GetVarint64(&nmap)) return Status::Corruption("bad directory blob");
  table_.ClearAll();
  for (uint64_t i = 0; i < nmap; ++i) {
    uint64_t lpid;
    uint32_t ppn;
    if (!d.GetFixed64(&lpid) || !d.GetFixed32(&ppn)) {
      return Status::Corruption("bad directory blob");
    }
    // Only pages the allocator handed out can be mapped; anything else is
    // corruption (and would make the table grow without bound).
    Xptr page(lpid);
    if (page.PageOffset() != 0 || page.layer() < kFirstLayer ||
        page.layer() > next_layer_ ||
        page.PageIndex() >= pages_per_layer_ || ppn == kInvalidPhysPage) {
      return Status::Corruption("bad directory entry " + page.ToString());
    }
    table_.Store(page, ppn);
  }
  return Status::OK();
}

std::vector<std::pair<LogicalPageId, PhysPageId>>
SimplePageDirectory::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<LogicalPageId, PhysPageId>> out;
  table_.ForEach([&](Xptr page, PhysPageId ppn) {
    out.emplace_back(page.raw, ppn);
  });
  return out;
}

}  // namespace sedna
