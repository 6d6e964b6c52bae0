#include "sas/file_manager.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/coding.h"
#include "common/logging.h"

namespace sedna {

namespace {

constexpr uint32_t kMasterMagic = 0x5ed0a010;
// Data-file format, first in the master payload. Format 1 (a 40-byte
// payload without it) kept the free list in stamped free pages.
constexpr uint32_t kFormatVersion = 2;
constexpr uint32_t kFormat1PayloadSize = 40;

constexpr int kIoRetries = 3;
constexpr int kIoBackoffMs = 1;

// Each meta-blob chain page: next(4) total_len(8, head only) payload.
constexpr size_t kChainHeaderSize = 12;
constexpr size_t kChainPayload = kPageSize - kChainHeaderSize;

size_t ChainPagesFor(size_t bytes) {
  return (bytes + kChainPayload - 1) / kChainPayload;
}

// Serialized master record layout inside a master page:
//   magic, crc, payload_len, payload
std::string EncodeMaster(const MasterRecord& m) {
  std::string payload;
  PutFixed32(&payload, kFormatVersion);
  PutFixed64(&payload, m.sequence);
  PutFixed32(&payload, m.page_count);
  PutFixed32(&payload, m.free_list_blob);
  PutFixed32(&payload, m.directory_blob);
  PutFixed32(&payload, m.catalog_blob);
  PutFixed64(&payload, m.checkpoint_lsn);
  PutFixed64(&payload, m.next_timestamp);

  std::string page;
  PutFixed32(&page, kMasterMagic);
  PutFixed32(&page, Crc32(payload.data(), payload.size()));
  PutFixed32(&page, static_cast<uint32_t>(payload.size()));
  page += payload;
  page.resize(kPageSize, '\0');
  return page;
}

// Returns the format version of the intact master record in `page`, or 0
// if the page holds none. `m` is filled only for kFormatVersion.
uint32_t DecodeMaster(const char* page, MasterRecord* m) {
  Decoder header(std::string_view(page, kPageSize));
  uint32_t magic = 0, crc = 0, len = 0;
  if (!header.GetFixed32(&magic) || magic != kMasterMagic) return 0;
  if (!header.GetFixed32(&crc) || !header.GetFixed32(&len)) return 0;
  if (len > kPageSize - 12) return 0;
  const char* payload = page + 12;
  if (Crc32(payload, len) != crc) return 0;
  if (len == kFormat1PayloadSize) return 1;
  Decoder d(std::string_view(payload, len));
  uint32_t format = 0;
  if (!d.GetFixed32(&format)) return 0;
  if (format != kFormatVersion) return format;
  bool ok = d.GetFixed64(&m->sequence) && d.GetFixed32(&m->page_count) &&
            d.GetFixed32(&m->free_list_blob) &&
            d.GetFixed32(&m->directory_blob) &&
            d.GetFixed32(&m->catalog_blob) &&
            d.GetFixed64(&m->checkpoint_lsn) &&
            d.GetFixed64(&m->next_timestamp);
  return ok ? format : 0;
}

}  // namespace

FileManager::~FileManager() {
  if (file_ != nullptr) {
    Status st = Close();
    if (!st.ok()) {
      SEDNA_LOG(kWarning) << "FileManager close in destructor failed: "
                         << st.ToString();
    }
  }
}

void FileManager::set_vfs(Vfs* vfs) {
  std::lock_guard<std::mutex> lock(mu_);
  vfs_ = vfs != nullptr ? vfs : Vfs::Default();
}

void FileManager::set_io_failure_handler(IoFailureHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  io_failure_handler_ = std::move(handler);
}

Status FileManager::RetryIo(bool is_write, const std::function<Status()>& op) {
  // Runs with or without mu_ held (the page data path calls it unlocked), so
  // it only touches the atomic fail-fast flag and fields that are immutable
  // while the file is open (path_, io_failure_handler_).
  Status st;
  int attempts = fail_fast_.load(std::memory_order_relaxed) ? 1 : kIoRetries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    st = op();
    if (st.ok()) return st;
    // Only I/O errors are plausibly transient; anything else (bad argument,
    // closed file) will not improve with a retry.
    if (st.code() != StatusCode::kIOError) return st;
    if (attempt + 1 < attempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kIoBackoffMs * (attempt + 1)));
    }
  }
  if (!fail_fast_.exchange(true, std::memory_order_relaxed)) {
    SEDNA_LOG(kError) << "I/O retries exhausted on " << path_ << ": "
                     << st.ToString();
  }
  if (is_write && io_failure_handler_) io_failure_handler_(st);
  return st;
}

Status FileManager::OpenFileLocked(const std::string& path, OpenMode mode) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("file manager already open");
  }
  SEDNA_ASSIGN_OR_RETURN(file_, vfs_->Open(path, mode));
  path_ = path;
  master_ = MasterRecord{};  // page_count=2 so the slot reads are in bounds
  free_.clear();
  free_chain_.clear();
  fail_fast_ = false;
  return Status::OK();
}

Status FileManager::Create(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  SEDNA_RETURN_IF_ERROR(OpenFileLocked(path, OpenMode::kCreate));
  // Write both master slots so Open never sees garbage (each write bumps
  // the sequence, so the two land in alternating slots).
  Status st = WriteMasterLocked();
  if (!st.ok()) return st;
  return WriteMasterLocked();
}

Status FileManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  SEDNA_RETURN_IF_ERROR(OpenFileLocked(path, OpenMode::kReadWrite));
  Status st = LoadLocked();
  if (!st.ok()) {
    file_->Close();
    file_.reset();
  }
  return st;
}

Status FileManager::LoadLocked() {
  char buf[kPageSize];
  MasterRecord best;
  bool found = false;
  bool slot_valid[2] = {false, false};
  for (PhysPageId slot = 0; slot < 2; ++slot) {
    if (!ReadPageLocked(slot, buf).ok()) continue;
    MasterRecord m;
    uint32_t format = DecodeMaster(buf, &m);
    if (format == 0) continue;
    if (format != kFormatVersion) {
      return Status::Corruption(
          path_ + " is in on-disk format " + std::to_string(format) +
          "; this build reads format " + std::to_string(kFormatVersion));
    }
    slot_valid[slot] = true;
    if (!found || m.sequence > best.sequence) {
      best = m;
      found = true;
    }
  }
  if (!found) return Status::Corruption("no valid master record in " + path_);
  master_ = best;
  for (PhysPageId slot = 0; slot < 2; ++slot) {
    if (slot_valid[slot]) continue;
    // Repair the corrupt slot from the survivor so a second corruption
    // (of the currently-good slot) cannot leave the file unopenable.
    std::string page = EncodeMaster(best);
    Status repair = WritePageLocked(slot, page.data());
    if (repair.ok()) repair = SyncLocked();
    if (repair.ok()) {
      SEDNA_LOG(kWarning) << "repaired corrupt master slot " << slot << " in "
                         << path_;
    } else {
      SEDNA_LOG(kWarning) << "failed to repair master slot " << slot << " in "
                         << path_ << ": " << repair.ToString();
    }
  }
  std::string list;
  SEDNA_RETURN_IF_ERROR(
      ReadChainLocked(master_.free_list_blob, &list, &free_chain_));
  Decoder d(list);
  for (PhysPageId ppn = 0; d.GetFixed32(&ppn);) {
    if (!FreePageLocked(ppn).ok()) {
      return Status::Corruption("saved free list names page " +
                                std::to_string(ppn));
    }
  }
  return Status::OK();
}

Status FileManager::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  // Persist allocation state (page count, free list) so a clean close is
  // reopenable even without a checkpoint.
  Status st = WriteMasterLocked();
  Status close_st = file_->Close();
  file_.reset();
  if (!st.ok()) return st;
  return close_st;
}

StatusOr<File*> FileManager::PageFileLocked(PhysPageId ppn, bool is_write) {
  if (file_ == nullptr) return Status::FailedPrecondition("file not open");
  if (ppn >= master_.page_count) {
    return Status::InvalidArgument(std::string(is_write ? "write" : "read") +
                                   " of unallocated page " +
                                   std::to_string(ppn));
  }
  return file_.get();
}

Status FileManager::PageIo(File* f, PhysPageId ppn, void* read_into,
                           const void* write_from) {
  const bool is_write = read_into == nullptr;
  const uint64_t offset = static_cast<uint64_t>(ppn) * kPageSize;
  return RetryIo(is_write, [&] {
    return is_write ? f->Write(offset, write_from, kPageSize)
                    : f->Read(offset, kPageSize, read_into);
  });
}

// The unlocked pair: bounds check under the mutex, I/O outside it, so
// faults and eviction writebacks from different buffer-pool shards overlap
// their positioned reads and writes.
Status FileManager::ReadPage(PhysPageId ppn, void* buf) {
  std::unique_lock<std::mutex> lock(mu_);
  SEDNA_ASSIGN_OR_RETURN(File * f, PageFileLocked(ppn, /*is_write=*/false));
  lock.unlock();
  return PageIo(f, ppn, buf, nullptr);
}

Status FileManager::WritePage(PhysPageId ppn, const void* buf) {
  std::unique_lock<std::mutex> lock(mu_);
  SEDNA_ASSIGN_OR_RETURN(File * f, PageFileLocked(ppn, /*is_write=*/true));
  lock.unlock();
  return PageIo(f, ppn, nullptr, buf);
}

Status FileManager::ReadPageLocked(PhysPageId ppn, void* buf) {
  SEDNA_ASSIGN_OR_RETURN(File * f, PageFileLocked(ppn, /*is_write=*/false));
  return PageIo(f, ppn, buf, nullptr);
}

Status FileManager::WritePageLocked(PhysPageId ppn, const void* buf) {
  SEDNA_ASSIGN_OR_RETURN(File * f, PageFileLocked(ppn, /*is_write=*/true));
  return PageIo(f, ppn, nullptr, buf);
}

Status FileManager::SyncLocked() {
  if (file_ == nullptr) return Status::OK();
  return RetryIo(/*is_write=*/true, [&] { return file_->Sync(); });
}

StatusOr<PhysPageId> FileManager::AllocPage() {
  std::lock_guard<std::mutex> lock(mu_);
  return AllocPageLocked();
}

StatusOr<PhysPageId> FileManager::AllocPageLocked() {
  if (file_ == nullptr) return Status::FailedPrecondition("file not open");
  if (!free_.empty()) {
    PhysPageId ppn = free_.back();
    free_.pop_back();
    return ppn;
  }
  PhysPageId ppn = master_.page_count;
  master_.page_count++;
  // Extend the file with a zero page so later reads are well-defined.
  char zero[kPageSize];
  std::memset(zero, 0, sizeof(zero));
  Status st = WritePageLocked(ppn, zero);
  if (!st.ok()) {
    master_.page_count--;
    return st;
  }
  return ppn;
}

Status FileManager::FreePage(PhysPageId ppn) {
  std::lock_guard<std::mutex> lock(mu_);
  return FreePageLocked(ppn);
}

Status FileManager::FreePageLocked(PhysPageId ppn) {
  if (ppn < 2 || ppn >= master_.page_count) {
    return Status::InvalidArgument("free of invalid page " +
                                   std::to_string(ppn));
  }
  free_.push_back(ppn);
  return Status::OK();
}

std::vector<PhysPageId> FileManager::FreePages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_;
}

MasterRecord FileManager::master() const {
  std::lock_guard<std::mutex> lock(mu_);
  return master_;
}

void FileManager::set_master(const MasterRecord& m) {
  std::lock_guard<std::mutex> lock(mu_);
  MasterRecord owned = master_;
  master_ = m;
  master_.sequence = owned.sequence;
  master_.page_count = owned.page_count;
  master_.free_list_blob = owned.free_list_blob;
}

Status FileManager::WriteMaster() {
  std::lock_guard<std::mutex> lock(mu_);
  return WriteMasterLocked();
}

Status FileManager::WriteMasterLocked() {
  // The list this master saves: the free pages, then the chain the current
  // master saved its list in (free once this master is durable), minus the
  // pages taken from the list to hold it.
  std::vector<PhysPageId> chain;
  while (ChainPagesFor(4 * (free_.size() + free_chain_.size())) >
         chain.size()) {
    SEDNA_ASSIGN_OR_RETURN(PhysPageId ppn, AllocPageLocked());
    chain.push_back(ppn);
  }
  std::string list;
  for (PhysPageId ppn : free_) PutFixed32(&list, ppn);
  for (PhysPageId ppn : free_chain_) PutFixed32(&list, ppn);
  MasterRecord next = master_;
  next.sequence++;
  SEDNA_ASSIGN_OR_RETURN(next.free_list_blob, WriteChainLocked(list, chain));
  // The master write is the commit point of a checkpoint: the chains it
  // points at and the flushed pages must be durable before it (a disk may
  // persist writes in any order), and it before superseded pages are freed.
  // On failure master_ stays the last master written, so a retry goes to
  // the same slot and never overwrites the newest durable one.
  SEDNA_RETURN_IF_ERROR(SyncLocked());
  std::string page = EncodeMaster(next);
  SEDNA_RETURN_IF_ERROR(WritePageLocked(next.sequence % 2, page.data()));
  SEDNA_RETURN_IF_ERROR(SyncLocked());
  master_ = next;
  free_.insert(free_.end(), free_chain_.begin(), free_chain_.end());
  free_chain_ = std::move(chain);
  return Status::OK();
}

StatusOr<PhysPageId> FileManager::WriteChainLocked(
    const std::string& blob, const std::vector<PhysPageId>& pages) {
  for (size_t i = 0; i < pages.size(); ++i) {
    std::string page;
    PutFixed32(&page, i + 1 < pages.size() ? pages[i + 1] : kInvalidPhysPage);
    PutFixed64(&page, blob.size());
    page.append(blob, i * kChainPayload, kChainPayload);
    page.resize(kPageSize, '\0');
    SEDNA_RETURN_IF_ERROR(WritePageLocked(pages[i], page.data()));
  }
  return pages.empty() ? kInvalidPhysPage : pages.front();
}

Status FileManager::ReadChainLocked(PhysPageId head, std::string* blob,
                                    std::vector<PhysPageId>* pages) {
  blob->clear();
  char buf[kPageSize];
  uint64_t total = 0;
  for (PhysPageId cur = head; cur != kInvalidPhysPage;) {
    SEDNA_RETURN_IF_ERROR(ReadPageLocked(cur, buf));
    if (cur == head && blob->empty()) {
      total = DecodeFixed64(buf + 4);
      // Every chain page is a page of the file: a longer blob is garbage.
      if (total > uint64_t{master_.page_count} * kChainPayload) {
        return Status::Corruption("meta blob too long at page " +
                                  std::to_string(head));
      }
      blob->reserve(total);
    }
    if (pages != nullptr) pages->push_back(cur);
    blob->append(buf + kChainHeaderSize,
                 std::min<uint64_t>(kChainPayload, total - blob->size()));
    if (blob->size() == total) return Status::OK();
    cur = DecodeFixed32(buf);
  }
  return blob->size() == total ? Status::OK()
                               : Status::Corruption("meta blob chain truncated");
}

StatusOr<PhysPageId> FileManager::WriteMetaBlob(const std::string& blob) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PhysPageId> pages;
  for (size_t i = ChainPagesFor(blob.size()); i > 0; --i) {
    SEDNA_ASSIGN_OR_RETURN(PhysPageId ppn, AllocPageLocked());
    pages.push_back(ppn);
  }
  return WriteChainLocked(blob, pages);
}

Status FileManager::FreeMetaBlob(PhysPageId head) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string blob;
  std::vector<PhysPageId> pages;
  SEDNA_RETURN_IF_ERROR(ReadChainLocked(head, &blob, &pages));
  for (PhysPageId ppn : pages) SEDNA_RETURN_IF_ERROR(FreePageLocked(ppn));
  return Status::OK();
}

StatusOr<std::string> FileManager::ReadMetaBlob(PhysPageId head) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string blob;
  SEDNA_RETURN_IF_ERROR(ReadChainLocked(head, &blob));
  return blob;
}

Status FileManager::CheckFreeList(const std::vector<PhysPageId>& in_use) {
  std::lock_guard<std::mutex> lock(mu_);
  // Why each page cannot be free; empty while it can.
  std::vector<const char*> taken(master_.page_count, "");
  taken[0] = taken[1] = "is a master slot";
  for (PhysPageId ppn : in_use) {
    if (ppn < taken.size()) taken[ppn] = "is mapped or held as a version";
  }
  std::string blob;
  std::vector<PhysPageId> chains;
  for (PhysPageId head : {master_.directory_blob, master_.catalog_blob,
                          master_.free_list_blob}) {
    SEDNA_RETURN_IF_ERROR(ReadChainLocked(head, &blob, &chains));
  }
  for (PhysPageId ppn : chains) taken[ppn] = "holds a master chain";
  for (PhysPageId ppn : free_) {
    const char* why = ppn < taken.size() ? taken[ppn] : "is past the end";
    if (*why != '\0') {
      return Status::Corruption("free page " + std::to_string(ppn) + " " +
                                why);
    }
    taken[ppn] = "is listed twice";
  }
  return Status::OK();
}

Status FileManager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

}  // namespace sedna
