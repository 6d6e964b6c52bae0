// Database-wide storage engine: the "database manager" of Figure 1's
// physical level. Owns the database file, page directory, buffer manager
// and the catalog of documents. The transaction layer can interpose a
// custom page resolver (MVCC version manager) and allocator via hooks.

#ifndef SEDNA_STORAGE_STORAGE_ENGINE_H_
#define SEDNA_STORAGE_STORAGE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vfs.h"
#include "sas/buffer_manager.h"
#include "sas/file_manager.h"
#include "sas/page_directory.h"
#include "storage/document_store.h"
#include "storage/storage_env.h"

namespace sedna {

struct StorageOptions {
  std::string path;          // database file
  size_t buffer_frames = 1024;
  BufferPoolOptions pool;    // sharding knobs (benchmarks; default = auto)
  Vfs* vfs = nullptr;        // null = Vfs::Default()
};

/// Factories the transaction layer supplies to interpose on page resolution
/// (MVCC) and allocation (per-transaction tracking). Optional; when absent
/// the engine runs single-version.
struct StorageHooks {
  std::function<std::unique_ptr<PageResolver>(FileManager*,
                                              SimplePageDirectory*)>
      resolver_factory;
  std::function<std::unique_ptr<PageAllocator>(SimplePageDirectory*)>
      allocator_factory;
};

class StorageEngine {
 public:
  /// Creates a fresh database file.
  static StatusOr<std::unique_ptr<StorageEngine>> Create(
      const StorageOptions& options, StorageHooks hooks = {});

  /// Opens an existing database and restores the catalog and directory from
  /// the last checkpoint.
  static StatusOr<std::unique_ptr<StorageEngine>> Open(
      const StorageOptions& options, StorageHooks hooks = {});

  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // --- documents ------------------------------------------------------------

  StatusOr<DocumentStore*> CreateDocument(const OpCtx& ctx,
                                          const std::string& name);
  StatusOr<DocumentStore*> GetDocument(const std::string& name);
  Status DropDocument(const OpCtx& ctx, const std::string& name);
  std::vector<std::string> DocumentNames() const;

  // --- transactional rollback support ---------------------------------------
  // The transaction layer snapshots a document's in-memory metadata (schema,
  // block-list heads, text/indirection state, index definitions) when the
  // document is first locked exclusively, and restores it on abort. Pages
  // themselves are rolled back by the version manager.

  /// Serialized metadata of the document (NotFound if absent).
  StatusOr<std::string> SnapshotDocumentMeta(const std::string& name) const;

  /// Restores a document's metadata, recreating the catalog entry if the
  /// document was dropped in the aborted transaction.
  Status RestoreDocumentMeta(const std::string& name,
                             const std::string& blob);

  /// Removes the catalog entry only (used to roll back CREATE DOCUMENT).
  Status RemoveDocumentEntry(const std::string& name);

  // --- durability -------------------------------------------------------------

  /// Flushes all dirty pages and persists the catalog + page directory +
  /// master record. After Checkpoint the on-disk state is self-contained.
  Status Checkpoint();

  /// Deep consistency sweep over every document (DocumentStore::Validate).
  /// Returns the first corruption found; OK means every page chain, slot
  /// chain and handle cross-reference is intact.
  Status CheckConsistency();

  // --- accessors --------------------------------------------------------------

  FileManager* file() { return &file_; }
  SimplePageDirectory* directory() { return directory_.get(); }
  PageResolver* resolver() { return resolver_; }
  BufferManager* buffers() { return buffers_.get(); }
  StorageEnv* env() { return &env_; }

 private:
  StorageEngine() = default;

  Status Init(const StorageOptions& options, StorageHooks hooks, bool create);
  std::string SerializeCatalog() const;
  Status RestoreCatalog(const std::string& blob);

  FileManager file_;
  std::unique_ptr<SimplePageDirectory> directory_;
  std::unique_ptr<PageResolver> owned_resolver_;
  PageResolver* resolver_ = nullptr;  // owned_resolver_ or directory_
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<BufferManager> buffers_;
  StorageEnv env_;

  std::map<std::string, std::unique_ptr<DocumentStore>> documents_;
  uint32_t next_doc_id_ = 1;
};

}  // namespace sedna

#endif  // SEDNA_STORAGE_STORAGE_ENGINE_H_
