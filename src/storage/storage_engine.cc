#include "storage/storage_engine.h"

#include "common/coding.h"
#include "common/logging.h"

namespace sedna {

StatusOr<std::unique_ptr<StorageEngine>> StorageEngine::Create(
    const StorageOptions& options, StorageHooks hooks) {
  std::unique_ptr<StorageEngine> engine(new StorageEngine());
  SEDNA_RETURN_IF_ERROR(engine->Init(options, std::move(hooks), true));
  return engine;
}

StatusOr<std::unique_ptr<StorageEngine>> StorageEngine::Open(
    const StorageOptions& options, StorageHooks hooks) {
  std::unique_ptr<StorageEngine> engine(new StorageEngine());
  SEDNA_RETURN_IF_ERROR(engine->Init(options, std::move(hooks), false));
  return engine;
}

StorageEngine::~StorageEngine() {
  // Buffer manager flushes on destruction; the catalog is only persisted by
  // explicit Checkpoint (crash-consistency is the WAL's job).
  buffers_.reset();
  Status st = file_.Close();
  if (!st.ok()) {
    SEDNA_LOG(kError) << "closing database file failed: " << st.ToString();
  }
}

Status StorageEngine::Init(const StorageOptions& options, StorageHooks hooks,
                           bool create) {
  file_.set_vfs(options.vfs);
  if (create) {
    SEDNA_RETURN_IF_ERROR(file_.Create(options.path));
  } else {
    SEDNA_RETURN_IF_ERROR(file_.Open(options.path));
  }
  directory_ = std::make_unique<SimplePageDirectory>(&file_);
  if (!create) {
    MasterRecord master = file_.master();
    if (master.directory_blob != kInvalidPhysPage) {
      SEDNA_ASSIGN_OR_RETURN(std::string blob,
                             file_.ReadMetaBlob(master.directory_blob));
      SEDNA_RETURN_IF_ERROR(directory_->Deserialize(blob));
    }
  }
  if (hooks.resolver_factory) {
    owned_resolver_ = hooks.resolver_factory(&file_, directory_.get());
    resolver_ = owned_resolver_.get();
  } else {
    resolver_ = directory_.get();
  }
  if (hooks.allocator_factory) {
    allocator_ = hooks.allocator_factory(directory_.get());
  } else {
    allocator_ = std::make_unique<DirectoryAllocator>(directory_.get());
  }
  buffers_ = std::make_unique<BufferManager>(&file_, resolver_,
                                             options.buffer_frames,
                                             options.pool);
  allocator_->BindBuffers(buffers_.get());
  env_.buffers = buffers_.get();
  env_.allocator = allocator_.get();

  if (!create) {
    MasterRecord master = file_.master();
    if (master.catalog_blob != kInvalidPhysPage) {
      SEDNA_ASSIGN_OR_RETURN(std::string blob,
                             file_.ReadMetaBlob(master.catalog_blob));
      SEDNA_RETURN_IF_ERROR(RestoreCatalog(blob));
    }
  }
  return Status::OK();
}

StatusOr<DocumentStore*> StorageEngine::CreateDocument(
    const OpCtx& ctx, const std::string& name) {
  if (documents_.count(name) > 0) {
    return Status::AlreadyExists("document '" + name + "' already exists");
  }
  auto doc = std::make_unique<DocumentStore>(&env_, next_doc_id_++, name);
  SEDNA_RETURN_IF_ERROR(doc->Create(ctx));
  DocumentStore* raw = doc.get();
  documents_[name] = std::move(doc);
  return raw;
}

StatusOr<DocumentStore*> StorageEngine::GetDocument(const std::string& name) {
  auto it = documents_.find(name);
  if (it == documents_.end()) {
    return Status::NotFound("document '" + name + "' does not exist");
  }
  return it->second.get();
}

Status StorageEngine::DropDocument(const OpCtx& ctx, const std::string& name) {
  auto it = documents_.find(name);
  if (it == documents_.end()) {
    return Status::NotFound("document '" + name + "' does not exist");
  }
  SEDNA_RETURN_IF_ERROR(it->second->Drop(ctx));
  documents_.erase(it);
  return Status::OK();
}

StatusOr<std::string> StorageEngine::SnapshotDocumentMeta(
    const std::string& name) const {
  auto it = documents_.find(name);
  if (it == documents_.end()) {
    return Status::NotFound("document '" + name + "' does not exist");
  }
  return it->second->SerializeMeta();
}

Status StorageEngine::RestoreDocumentMeta(const std::string& name,
                                          const std::string& blob) {
  auto it = documents_.find(name);
  if (it == documents_.end()) {
    auto doc = std::make_unique<DocumentStore>(
        const_cast<StorageEnv*>(&env_), 0, name);
    SEDNA_RETURN_IF_ERROR(doc->RestoreMeta(blob));
    documents_[name] = std::move(doc);
    return Status::OK();
  }
  return it->second->RestoreMeta(blob);
}

Status StorageEngine::RemoveDocumentEntry(const std::string& name) {
  documents_.erase(name);
  return Status::OK();
}

std::vector<std::string> StorageEngine::DocumentNames() const {
  std::vector<std::string> names;
  names.reserve(documents_.size());
  for (const auto& [name, _] : documents_) names.push_back(name);
  return names;
}

std::string StorageEngine::SerializeCatalog() const {
  std::string blob;
  PutFixed32(&blob, next_doc_id_);
  PutVarint64(&blob, documents_.size());
  for (const auto& [name, doc] : documents_) {
    PutLengthPrefixed(&blob, doc->SerializeMeta());
  }
  return blob;
}

Status StorageEngine::RestoreCatalog(const std::string& blob) {
  Decoder d(blob);
  uint64_t count = 0;
  if (!d.GetFixed32(&next_doc_id_) || !d.GetVarint64(&count)) {
    return Status::Corruption("bad catalog blob");
  }
  documents_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view meta;
    if (!d.GetLengthPrefixed(&meta)) {
      return Status::Corruption("truncated catalog blob");
    }
    auto doc = std::make_unique<DocumentStore>(&env_, 0, "");
    SEDNA_RETURN_IF_ERROR(doc->RestoreMeta(std::string(meta)));
    std::string name = doc->name();
    documents_[name] = std::move(doc);
  }
  return Status::OK();
}

Status StorageEngine::Checkpoint() {
  SEDNA_RETURN_IF_ERROR(buffers_->FlushAll());
  // Crash-safety ordering: write the new directory/catalog chains into
  // *fresh* pages, make the master that points at them durable, and only
  // then free the superseded chains. Freeing first would let the allocator
  // reuse (and overwrite) pages the still-durable old master points at — a
  // crash between the overwrite and the master sync would then recover into
  // a master whose meta chains are garbage.
  MasterRecord master = file_.master();
  const PhysPageId old_directory = master.directory_blob;
  const PhysPageId old_catalog = master.catalog_blob;
  SEDNA_ASSIGN_OR_RETURN(master.directory_blob,
                         file_.WriteMetaBlob(directory_->Serialize()));
  SEDNA_ASSIGN_OR_RETURN(master.catalog_blob,
                         file_.WriteMetaBlob(SerializeCatalog()));
  file_.set_master(master);
  SEDNA_RETURN_IF_ERROR(file_.WriteMaster());
  SEDNA_RETURN_IF_ERROR(file_.FreeMetaBlob(old_directory));
  return file_.FreeMetaBlob(old_catalog);
}

Status StorageEngine::CheckConsistency() {
  for (auto& [name, doc] : documents_) {
    SEDNA_RETURN_IF_ERROR(doc->Validate(OpCtx::System()));
  }
  return Status::OK();
}

}  // namespace sedna
