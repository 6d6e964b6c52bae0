// Per-document storage facade: wires the descriptive schema, node blocks,
// text store and indirection table of one XML document, and provides bulk
// load (XML tree -> storage) and materialization (storage -> XML tree).

#ifndef SEDNA_STORAGE_DOCUMENT_STORE_H_
#define SEDNA_STORAGE_DOCUMENT_STORE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/indirection.h"
#include "storage/node_store.h"
#include "storage/path_summary.h"
#include "storage/schema.h"
#include "storage/storage_env.h"
#include "storage/text_store.h"
#include "xml/xml_tree.h"

namespace sedna {

/// One value index over a document (paper §4.1.2: index entries are node
/// handles). The definition is part of the document's metadata, so abort,
/// DROP DOCUMENT, checkpoint and reopen carry it with the rest of the
/// document.
struct IndexDefinition {
  std::string name;
  std::string path;  // statement text of the defining path
  Xptr meta;         // meta page of the index's B+tree
};

class DocumentStore {
 public:
  DocumentStore(StorageEnv* env, uint32_t doc_id, std::string name);

  const std::string& name() const { return name_; }
  uint32_t doc_id() const { return doc_id_; }
  Xptr root_handle() const { return root_handle_; }

  NodeStore* nodes() { return &nodes_; }
  const NodeStore* nodes() const { return &nodes_; }
  DescriptiveSchema* schema() { return &schema_; }
  const DescriptiveSchema* schema() const { return &schema_; }
  TextStore* text() { return &text_; }
  IndirectionTable* indirection() { return &indirection_; }

  /// Path summary over the current schema, built lazily and rebuilt when
  /// the schema version moves (updates grow the schema only under an
  /// exclusive document lock, so a pointer handed to a shared-lock reader
  /// stays valid for the duration of its statement).
  PathSummary* summary() const;

  /// Creates the (empty) document: just the root descriptor.
  Status Create(const OpCtx& ctx);

  /// Bulk-loads the children of `doc` (an XmlKind::kDocument tree) under the
  /// root. Pre-scans the tree to register the full descriptive schema so
  /// that block arities are final and loading never relocates nodes.
  Status Load(const OpCtx& ctx, const XmlNode& doc);

  /// Materializes the subtree rooted at the node behind `handle`.
  StatusOr<std::unique_ptr<XmlNode>> Materialize(const OpCtx& ctx,
                                                 Xptr handle) const;

  /// Materializes the whole document.
  StatusOr<std::unique_ptr<XmlNode>> MaterializeDocument(
      const OpCtx& ctx) const;

  /// Total stored nodes (excluding the document node itself).
  uint64_t node_count() const;

  /// Frees every page owned by this document, index trees included.
  Status Drop(const OpCtx& ctx);

  // --- value-index definitions -----------------------------------------------
  // Changed only by a statement holding the document's exclusive lock.
  // Snapshot readers take no document lock, so the list has a mutex of its
  // own (like the path summary's).

  /// The current definitions, in creation order.
  std::vector<IndexDefinition> indexes() const;

  /// The definition named `name`, if this document holds it.
  std::optional<IndexDefinition> FindIndex(const std::string& name) const;

  /// Adds `def`, or replaces the definition of the same name.
  void PutIndex(IndexDefinition def);

  /// Frees the B+tree of index `name` and removes its definition
  /// (kNotFound when this document has no such index).
  Status DropIndex(const OpCtx& ctx, const std::string& name);

  /// Deep consistency check: walks the indirection page chain and free
  /// list, every schema node's block chain (headers, slot chains, free
  /// slots) and cross-checks each live descriptor's handle against the
  /// indirection table. Returns kCorruption with a diagnostic naming the
  /// first inconsistent page. Also walks every index tree and resolves each
  /// entry's handle. Used by crash-recovery tests and Database consistency
  /// checks; cost is linear in document size.
  Status Validate(const OpCtx& ctx) const;

  /// Catalog (de)serialization; the index definitions follow the storage
  /// metadata.
  std::string SerializeMeta() const;
  Status RestoreMeta(const std::string& blob);

 private:
  Status LoadChildren(const OpCtx& ctx, const XmlNode& elem, SchemaNode* esn,
                      Xptr elem_handle, const NidLabel& elem_label);
  void RegisterSchema(const XmlNode& node, SchemaNode* sn);
  StatusOr<std::unique_ptr<XmlNode>> MaterializeAt(const OpCtx& ctx,
                                                   Xptr addr) const;
  /// The storage part of SerializeMeta: names, heads and schema.
  void PutStorageMeta(std::string* blob) const;

  StorageEnv* env_;
  uint32_t doc_id_;
  std::string name_;
  DescriptiveSchema schema_;
  TextStore text_;
  IndirectionTable indirection_;
  NodeStore nodes_;
  Xptr root_handle_;
  mutable std::mutex summary_mu_;
  mutable std::unique_ptr<PathSummary> summary_;
  mutable std::mutex indexes_mu_;
  std::vector<IndexDefinition> indexes_;  // guarded by indexes_mu_
};

}  // namespace sedna

#endif  // SEDNA_STORAGE_DOCUMENT_STORE_H_
