// Value indexes (paper Sections 4.1.2 and 6.4).
//
// The paper uses node handles "to refer to an XML node from index
// structures" and lists 'create index' among the logged main operations.
// A value index maps the string value of the nodes selected by a structural
// path to their node handles — handles stay valid as block splits move the
// descriptors, which is exactly why the paper indexes handles rather than
// direct pointers.
//
// An index is part of its document's state: the definition {name, path,
// B+tree meta page} lives in the document's metadata (DocumentStore), and
// the tree's pages ride the same buffer pool, version manager and
// checkpoint cycle as node blocks. Abort, DROP DOCUMENT, checkpoint and
// reopen therefore cover indexes without index-specific code, and an index
// changes only inside a statement that holds its document's exclusive lock.
//
// This manager keeps no catalog. It builds trees, maintains them inside
// the updating statement and serves reads, caching only what it derives
// from a definition: the path lowered to a path-summary pattern and the
// schema nodes that pattern covers. Structural definitions (child /
// attribute / descendant steps, no predicates) are maintained
// incrementally; any other definition is rebuilt by the statement that
// updates its document. A maintenance error fails the statement, so its
// transaction rolls back the data and the index pages together. Reads
// never write.

#ifndef SEDNA_XQUERY_VALUE_INDEX_H_
#define SEDNA_XQUERY_VALUE_INDEX_H_

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "storage/btree_index.h"
#include "storage/path_summary.h"
#include "storage/storage_engine.h"
#include "xquery/executor.h"

namespace sedna {

class ValueIndexManager {
 public:
  explicit ValueIndexManager(StorageEngine* storage);

  /// Builds a B+tree over the nodes selected by `path_text` (a path
  /// expression starting at doc(`doc`)) and adds the definition to the
  /// document. Index names are unique across documents.
  Status Create(const OpCtx& op, const std::string& name,
                const std::string& doc, const std::string& path_text);

  /// Name of the document that holds index `name` (kNotFound when none
  /// does). index-lookup() and DROP INDEX lock that document first.
  StatusOr<std::string> DocumentOf(const std::string& name) const;

  /// Nodes of document `doc` whose string value equals `key` in its index
  /// `name`, in document order without duplicates.
  StatusOr<Sequence> Lookup(const OpCtx& op, const std::string& doc,
                            const std::string& name, const std::string& key);

  // --- planner API ----------------------------------------------------------

  /// Everything the cost-based rewriter needs to price an index scan
  /// against a block scan. est_rows = entry_count / max(1, distinct_keys).
  struct IndexPlan {
    std::string name;
    Xptr meta;  // the tree the scan probes
    uint64_t entry_count = 0;
    uint64_t distinct_keys = 0;
    uint64_t est_rows = 0;
  };

  /// Finds a structural index over `doc` whose covered schema-node set
  /// contains every id in `value_schema_ids` (sorted). Returns false when
  /// no index qualifies; an index whose statistics cannot be read (say, a
  /// tree this snapshot cannot see yet) is skipped.
  bool FindIndexFor(const OpCtx& op, DocumentStore* doc,
                    const std::vector<uint32_t>& value_schema_ids,
                    IndexPlan* plan);

  /// Runs the physical index scan of `plan` over `doc`: entries equal to
  /// `key`, filtered to value nodes whose schema id is in
  /// `value_schema_ids`, each walked up `parent_hops` parent handles to the
  /// result node, then deduplicated into document order.
  StatusOr<Sequence> ExecuteIndexScan(
      const OpCtx& op, DocumentStore* doc, const IndexPlan& plan,
      const std::string& key, const std::vector<uint32_t>& value_schema_ids,
      int parent_hops);

  // --- maintenance ----------------------------------------------------------
  // Update statements bracket each target mutation with PreUpdate /
  // PostUpdate; both look only at the updated document's indexes. PreUpdate
  // runs BEFORE the mutation while old string values are still computable:
  // it erases the entries of covered nodes inside the to-be-deleted subtree
  // and of covered ancestors (whose concatenated text value is about to
  // change), recording the ancestors for re-keying. PostUpdate runs AFTER:
  // it inserts entries for covered nodes in newly inserted subtrees,
  // re-adds the recorded ancestors with their new values, and rebuilds
  // every non-structural index of the document. An error fails the
  // statement.

  struct PendingMaintenance {
    DocumentStore* doc = nullptr;
    std::vector<std::pair<std::string, Xptr>> ancestors;  // (index, handle)
  };

  /// `subtree_handle`: root of a subtree about to be deleted (null for pure
  /// inserts). `ancestor_handle`: first node of the parent chain whose
  /// string value the mutation may change (null-safe).
  Status PreUpdate(const OpCtx& op, DocumentStore* doc, Xptr subtree_handle,
                   Xptr ancestor_handle, PendingMaintenance* pending);

  /// `new_subtrees`: handles of subtree roots inserted by the mutation.
  Status PostUpdate(const OpCtx& op, const std::vector<Xptr>& new_subtrees,
                    PendingMaintenance* pending);

 private:
  /// What the manager derives from one definition, cached by index name.
  struct Derived {
    std::string path;                // the definition path it came from
    std::vector<SummaryStep> steps;  // empty: the path is not structural
    std::vector<uint32_t> covered;   // sorted schema ids
    uint64_t covered_version = 0;    // schema version `covered` is for
  };

  /// Copies the schema ids `def` covers in `doc`'s current schema into
  /// `covered`; false when the definition is not structural.
  bool Covered(DocumentStore* doc, const IndexDefinition& def,
               std::vector<uint32_t>* covered);

  /// Builds a fresh tree for `def` over the current document and points
  /// def->meta at it. The caller destroys the old tree, if any.
  Status Build(const OpCtx& op, IndexDefinition* def);

  /// Erases (old values) or inserts (new values) the covered entries of
  /// the subtree rooted at `root_handle`.
  Status MaintainSubtree(const OpCtx& op, BtreeIndex* tree,
                         const std::vector<uint32_t>& covered,
                         DocumentStore* doc, Xptr root_handle, bool insert);

  StorageEngine* storage_;
  std::mutex mu_;  // guards derived_; serializes Create's name check
  std::map<std::string, Derived> derived_;
  Counter* rebuilds_;         // index.rebuilds
  Counter* maintenance_ops_;  // index.maintenance_ops
};

}  // namespace sedna

#endif  // SEDNA_XQUERY_VALUE_INDEX_H_
