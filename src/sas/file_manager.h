// Physical storage: a single database file of fixed-size pages.
//
// Page 0 and page 1 hold two copies of the master record (double-slot,
// sequence-numbered, CRC-protected) so that master updates are atomic: the
// newest valid slot wins, and Open repairs a corrupted slot from the
// survivor. Other pages come from an in-memory LIFO free list (no I/O) or
// from growing the file. Each master write saves the list in a chain of
// pages taken from the list itself. That suffices: recovery restores the
// persistent snapshot the master describes, no page it reaches is freed
// until a checkpoint replaces it, and writes are copy-on-write, so no page
// handed out since is one it reaches (DESIGN §6).
//
// The page directory and catalog persist in the same "meta blob" chains,
// whose heads the master records. A superseded chain is freed only after
// the master replacing it is durable, or a crash could leave that master
// pointing at recycled pages (WriteMaster frees the free list's own chain,
// FreeMetaBlob the others).
//
// All I/O goes through the Vfs seam (common/vfs.h). Transient I/O errors
// are retried with bounded backoff; when retries are exhausted on the
// write path an io-failure handler (installed by the database layer) is
// notified so the system can degrade to read-only instead of corrupting
// state.

#ifndef SEDNA_SAS_FILE_MANAGER_H_
#define SEDNA_SAS_FILE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vfs.h"
#include "sas/xptr.h"

namespace sedna {

/// Mutable database-wide metadata persisted in the master record.
struct MasterRecord {
  uint64_t sequence = 0;          // bumped on every master write
  uint32_t page_count = 2;        // physical pages in the file (incl. masters)
  // Chain holding the free list saved with this master. set_master keeps
  // it, `sequence` and `page_count`: the file manager owns all three.
  PhysPageId free_list_blob = kInvalidPhysPage;
  PhysPageId directory_blob = kInvalidPhysPage;  // page-directory snapshot
  PhysPageId catalog_blob = kInvalidPhysPage;    // storage catalog snapshot
  uint64_t checkpoint_lsn = 0;    // WAL position of the persistent snapshot
  uint64_t next_timestamp = 1;    // transaction timestamp high-water mark
};

/// Owns the database file. Thread-safe; all methods may be called
/// concurrently. `ReadPage`/`WritePage` — the buffer manager's fault and
/// writeback path — only take the mutex for a brief bounds check and then
/// issue positioned I/O (pread/pwrite through the Vfs) outside it, so
/// concurrent page faults from different pool shards overlap their I/O.
/// Allocation, free-list and master-record operations stay fully serialized
/// under the mutex. `set_vfs`/`set_io_failure_handler` must be called before
/// the file is shared across threads, and `Close` must not race with
/// in-flight page I/O (the buffer manager is torn down first).
class FileManager {
 public:
  /// Invoked (under the file mutex) when a write-path operation fails after
  /// exhausting its retries — the signal for read-only degradation.
  using IoFailureHandler = std::function<void(const Status&)>;

  FileManager() = default;
  ~FileManager();

  FileManager(const FileManager&) = delete;
  FileManager& operator=(const FileManager&) = delete;

  /// Replaces the Vfs (default: Vfs::Default()). Call before Create/Open.
  void set_vfs(Vfs* vfs);

  void set_io_failure_handler(IoFailureHandler handler);

  /// Creates a new database file (truncating any existing one) and writes an
  /// initial master record.
  Status Create(const std::string& path);

  /// Opens an existing database file and loads the newest valid master and
  /// its free list. If one master slot is corrupt and the other valid, the
  /// corrupt slot is rewritten from the survivor. A file in another on-disk
  /// format is refused with a kCorruption that names the format.
  Status Open(const std::string& path);

  Status Close();
  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Reads physical page `ppn` into `buf` (kPageSize bytes). Concurrent
  /// calls overlap their I/O (positioned read outside the mutex).
  Status ReadPage(PhysPageId ppn, void* buf);

  /// Writes `buf` (kPageSize bytes) to physical page `ppn`. Concurrent
  /// calls overlap their I/O (positioned write outside the mutex).
  Status WritePage(PhysPageId ppn, const void* buf);

  /// Allocates a physical page (the last one freed, else growing the file).
  /// The page contents are undefined until written.
  StatusOr<PhysPageId> AllocPage();

  /// Returns `ppn` to the free list.
  Status FreePage(PhysPageId ppn);

  /// The in-memory free list, oldest entry first (AllocPage takes the last).
  std::vector<PhysPageId> FreePages() const;

  /// Current in-memory master record (the caller updates its fields before
  /// WriteMaster).
  MasterRecord master() const;
  void set_master(const MasterRecord& m);

  /// Saves the free list and persists the master record atomically
  /// (alternating slot). Everything written before the call is durable
  /// before the master is written, and the master before it returns.
  Status WriteMaster();

  /// Writes `blob` into a chain of freshly allocated pages; returns the head
  /// page (kInvalidPhysPage for an empty blob). Does NOT free any previous
  /// chain — call FreeMetaBlob on the old head after the master record
  /// pointing at the new chain is durable.
  StatusOr<PhysPageId> WriteMetaBlob(const std::string& blob);

  /// Frees a chain written by WriteMetaBlob. No-op for kInvalidPhysPage.
  Status FreeMetaBlob(PhysPageId head);

  /// Reads back a blob chain written by WriteMetaBlob.
  StatusOr<std::string> ReadMetaBlob(PhysPageId head);

  /// kCorruption if a free page is listed twice, is not in [2, page_count),
  /// is in `in_use` or holds a chain of the master (quiescent files only).
  Status CheckFreeList(const std::vector<PhysPageId>& in_use);

  /// Durably flushes the file (fsync through the Vfs).
  Status Sync();

 private:
  Status ReadPageLocked(PhysPageId ppn, void* buf);
  Status WritePageLocked(PhysPageId ppn, const void* buf);
  /// The open file if `ppn` is allocated (every page I/O's bounds check).
  StatusOr<File*> PageFileLocked(PhysPageId ppn, bool is_write);
  /// Positioned page I/O through RetryIo: reads into `read_into` or, when
  /// it is null, writes `write_from`. Needs no lock (see the class comment).
  Status PageIo(File* f, PhysPageId ppn, void* read_into,
                const void* write_from);
  Status SyncLocked();
  Status OpenFileLocked(const std::string& path, OpenMode mode);
  Status LoadLocked();  // the newest valid master and its free list
  StatusOr<PhysPageId> AllocPageLocked();
  Status FreePageLocked(PhysPageId ppn);
  Status WriteMasterLocked();
  StatusOr<PhysPageId> WriteChainLocked(const std::string& blob,
                                        const std::vector<PhysPageId>& pages);
  /// Reads the chain at `head` into `blob`, adding its pages to `pages`.
  Status ReadChainLocked(PhysPageId head, std::string* blob,
                         std::vector<PhysPageId>* pages = nullptr);

  /// Runs `op`, retrying kIOError failures with bounded backoff. After the
  /// first exhausted retry the manager fails fast (no more retries or
  /// sleeps) so teardown after a dead disk stays cheap. Write-path
  /// exhaustion notifies the io-failure handler.
  Status RetryIo(bool is_write, const std::function<Status()>& op);

  mutable std::mutex mu_;
  Vfs* vfs_ = Vfs::Default();
  std::unique_ptr<File> file_;
  std::string path_;
  MasterRecord master_;
  std::vector<PhysPageId> free_;        // LIFO: AllocPage pops the back
  std::vector<PhysPageId> free_chain_;  // pages of master_.free_list_blob
  // Atomic because RetryIo runs outside mu_ on the concurrent page-I/O path.
  std::atomic<bool> fail_fast_{false};
  IoFailureHandler io_failure_handler_;
};

}  // namespace sedna

#endif  // SEDNA_SAS_FILE_MANAGER_H_
