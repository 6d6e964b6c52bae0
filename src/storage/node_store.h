// Node-block management: the schema-driven clustering core of Section 4.1.
//
// Every descriptive-schema node owns a bidirectional list of node blocks.
// Descriptors are partly ordered: all labels in block i precede all labels
// in block j when i < j; within a block an in-slot chain keeps document
// order while slots themselves are assigned from a free list (the paper's
// "within a block, nodes are unordered").
//
// The update-friendliness invariants (paper Section 4.1):
//   * descriptors have fixed size within a block (arity in the header);
//   * parent pointers are node handles (indirection), so moving a node
//     touches a constant number of fields: its indirection entry, its two
//     sibling neighbours' direct pointers, and at most one parent child
//     slot;
//   * schema growth upgrades descriptor arity block-by-block, lazily.
//
// NodeStore is per-document and not itself thread-safe; concurrency control
// is provided above it by the lock manager (document-level S2PL).

#ifndef SEDNA_STORAGE_NODE_STORE_H_
#define SEDNA_STORAGE_NODE_STORE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "numbering/nid.h"
#include "storage/indirection.h"
#include "storage/layout.h"
#include "storage/schema.h"
#include "storage/storage_env.h"
#include "storage/text_store.h"

namespace sedna {

/// Snapshot of one descriptor's fixed part, safe to hold across faults.
struct NodeInfo {
  Xptr addr;            // direct pointer to the descriptor
  uint32_t schema_id = 0;
  XmlKind kind = XmlKind::kElement;
  NidLabel label;
  Xptr handle;
  Xptr parent_handle;
  Xptr left_sibling;
  Xptr right_sibling;
};

class NodeStore {
 public:
  NodeStore(StorageEnv* env, DescriptiveSchema* schema, TextStore* text,
            IndirectionTable* indirection, uint32_t doc_id)
      : env_(env),
        schema_(schema),
        text_(text),
        indirection_(indirection),
        doc_id_(doc_id) {}

  DescriptiveSchema* schema() { return schema_; }
  IndirectionTable* indirection() { return indirection_; }
  TextStore* text_store() { return text_; }

  // --- reading ------------------------------------------------------------

  /// Reads the fixed descriptor part at `addr`.
  StatusOr<NodeInfo> Info(const OpCtx& ctx, Xptr addr) const;

  /// Resolves a handle to the current direct pointer, then reads it.
  StatusOr<NodeInfo> InfoByHandle(const OpCtx& ctx, Xptr handle) const;

  /// Text content of a text-carrying node ("" for elements).
  StatusOr<std::string> Text(const OpCtx& ctx, Xptr addr) const;

  /// First node of `sn`'s block list in document order (null if none).
  StatusOr<Xptr> FirstOfSchema(const OpCtx& ctx, const SchemaNode* sn) const;

  /// Successor of `addr` within its schema-node chain (document order),
  /// crossing block boundaries; null at the end.
  StatusOr<Xptr> NextSameSchema(const OpCtx& ctx, Xptr addr) const;

  /// Direct pointer in child slot `slot` of element `elem` (null if the
  /// block's arity does not cover `slot` or the slot is empty). The pointer
  /// is to the FIRST child with that schema node.
  StatusOr<Xptr> ChildSlot(const OpCtx& ctx, Xptr elem, int slot) const;

  /// First child of `elem` in document order, across all schema kinds.
  StatusOr<Xptr> FirstChild(const OpCtx& ctx, Xptr elem) const;

  /// Next child of the same parent and same schema node after `addr`
  /// (follows the chain while the parent handle matches).
  StatusOr<Xptr> NextSibSameSchema(const OpCtx& ctx, Xptr addr) const;

  /// Page bases of `sn`'s block chain, in chain (document) order. Morsel
  /// exchanges split this list into block ranges: descriptors are partly
  /// ordered across blocks, so a partition by chain position is a partition
  /// by document order.
  StatusOr<std::vector<Xptr>> SchemaBlocks(const OpCtx& ctx,
                                           const SchemaNode* sn) const;

  /// Appends the descriptor Xptrs of one block in in-block chain (document)
  /// order to *out. One page pin for the whole block — the per-block unit
  /// of work of a morsel scan.
  Status ScanBlockNodes(const OpCtx& ctx, Xptr block,
                        std::vector<Xptr>* out) const;

  // --- writing ------------------------------------------------------------

  /// Creates the document-root descriptor (schema root). Returns its handle.
  StatusOr<Xptr> CreateRoot(const OpCtx& ctx);

  /// Inserts a new node under `parent_handle` between `left_handle` and
  /// `right_handle` (either may be null; both null appends as last child —
  /// pass kNullXptr explicitly). `name` names elements/attributes/PIs;
  /// `text` is the content for text-carrying kinds. Returns the handle.
  StatusOr<Xptr> InsertNode(const OpCtx& ctx, Xptr parent_handle,
                            Xptr left_handle, Xptr right_handle, XmlKind kind,
                            std::string_view name, std::string_view text);

  /// Result of AppendNode: the loader needs both the handle (for children)
  /// and the direct address (for sibling linking).
  struct NewNodeResult {
    Xptr addr;
    Xptr handle;
  };

  /// Fast-path used by the bulk loader: label precomputed, guaranteed to
  /// append at the end of its schema chain; sibling link to `prev_sibling`
  /// (direct pointer, never moves during loading). The caller is
  /// responsible for setting the parent's child slot.
  StatusOr<NewNodeResult> AppendNode(const OpCtx& ctx, SchemaNode* sn,
                                     const NidLabel& label, Xptr parent_handle,
                                     Xptr prev_sibling_addr,
                                     std::string_view text);

  /// Writes child-slot `slot` of the element behind `handle` (upgrading the
  /// block arity if needed). Used by the bulk loader for first-child links.
  Status SetChildSlot(const OpCtx& ctx, Xptr handle, int slot, Xptr child);

  /// Deletes the node (must have no children) and detaches it from its
  /// siblings, parent slot and chain. Frees its handle and text.
  Status DeleteLeaf(const OpCtx& ctx, Xptr handle);

  /// Deletes the whole subtree rooted at `handle`.
  Status DeleteSubtree(const OpCtx& ctx, Xptr handle);

  /// Replaces the text content of a text-carrying node.
  Status UpdateText(const OpCtx& ctx, Xptr handle, std::string_view text);

  /// Last child of `elem` in document order (null if childless).
  StatusOr<Xptr> LastChild(const OpCtx& ctx, Xptr elem) const;

  // --- statistics ---------------------------------------------------------

  /// Number of nodes moved by block splits/upgrades so far (benchmarks use
  /// this to validate the constant-work-per-update claim, E4).
  uint64_t moved_nodes() const { return moved_nodes_; }
  uint64_t block_splits() const { return block_splits_; }

 private:
  struct ChainPos {
    Xptr block;          // target block (null = chain empty, create first)
    uint16_t pred_slot;  // predecessor in the in-block chain (kNoSlot = head)
  };

  StatusOr<NidLabel> ReadLabel(const OpCtx& ctx,
                               const NodeDescriptor* d) const;
  Status WriteLabel(const OpCtx& ctx, NodeDescriptor* d,
                    const NidLabel& label);

  /// Finds the block and in-chain predecessor for a new label.
  StatusOr<ChainPos> FindPosition(const OpCtx& ctx, SchemaNode* sn,
                                  const std::string& label_prefix) const;

  /// Allocates a descriptor slot in `block` after `pred_slot`, splitting the
  /// block first if full. Returns the new descriptor's Xptr.
  StatusOr<Xptr> AllocDescriptor(const OpCtx& ctx, SchemaNode* sn,
                                 ChainPos pos, const NidLabel& label);

  /// Creates an empty block for `sn` with the given arity, linked after
  /// `prev` (null = front of the chain).
  StatusOr<Xptr> NewBlock(const OpCtx& ctx, SchemaNode* sn,
                          uint16_t child_slots, Xptr prev);

  /// Rewrites `block`'s descriptors into >= `min_blocks` fresh blocks with
  /// `new_child_slots` arity, preserving chain order and fixing all inbound
  /// pointers (indirection entries, sibling neighbours, parent slots).
  Status RewriteBlock(const OpCtx& ctx, SchemaNode* sn, Xptr block,
                      uint16_t new_child_slots, size_t min_blocks);

  /// Ensures the element descriptor behind `handle` can address child slot
  /// `slot` (upgrading its block's arity if needed). Returns the (possibly
  /// new) direct pointer.
  StatusOr<Xptr> EnsureArity(const OpCtx& ctx, Xptr handle, int slot);

  /// Updates the inbound pointers of a moved node: indirection entry,
  /// sibling neighbours' direct pointers and the parent's child slot.
  /// `moved` maps old addresses to new ones for nodes moved in the same
  /// operation.
  Status FixInboundPointers(
      const OpCtx& ctx, Xptr old_addr, Xptr new_addr,
      const std::vector<std::pair<Xptr, Xptr>>& moved);

  Status SetParentSlotIfPointsTo(const OpCtx& ctx, Xptr parent_handle,
                                 uint32_t child_schema_id, Xptr expect,
                                 Xptr replacement);

  StorageEnv* env_;
  DescriptiveSchema* schema_;
  TextStore* text_;
  IndirectionTable* indirection_;
  uint32_t doc_id_;

  uint64_t moved_nodes_ = 0;
  uint64_t block_splits_ = 0;
};

}  // namespace sedna

#endif  // SEDNA_STORAGE_NODE_STORE_H_
