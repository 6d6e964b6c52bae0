#include "storage/node_store.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace sedna {

namespace {

inline BlockHeader* HeaderOf(uint8_t* page) {
  return reinterpret_cast<BlockHeader*>(page);
}
inline const BlockHeader* HeaderOf(const uint8_t* page) {
  return reinterpret_cast<const BlockHeader*>(page);
}

uint16_t BlockCapacity(uint16_t desc_size) {
  return static_cast<uint16_t>((kPageSize - sizeof(BlockHeader)) / desc_size);
}

/// Reads the overflow-label reference stored in the inline label area.
Xptr OverflowRef(const NodeDescriptor* d) {
  uint64_t raw;
  std::memcpy(&raw, d->label_inline, sizeof(raw));
  return Xptr(raw);
}

void SetOverflowRef(NodeDescriptor* d, Xptr ref) {
  std::memcpy(d->label_inline, &ref.raw, sizeof(ref.raw));
}

}  // namespace

// ---------------------------------------------------------------------------
// Labels
// ---------------------------------------------------------------------------

StatusOr<NidLabel> NodeStore::ReadLabel(const OpCtx& ctx,
                                        const NodeDescriptor* d) const {
  NidLabel label;
  label.delimiter = d->delimiter;
  if (!d->has_overflow_label()) {
    label.prefix.assign(reinterpret_cast<const char*>(d->label_inline),
                        d->label_len);
    return label;
  }
  SEDNA_ASSIGN_OR_RETURN(label.prefix, text_->Read(ctx, OverflowRef(d)));
  return label;
}

Status NodeStore::WriteLabel(const OpCtx& ctx, NodeDescriptor* d,
                             const NidLabel& label) {
  d->delimiter = label.delimiter;
  d->label_len = static_cast<uint16_t>(label.prefix.size());
  if (label.prefix.size() <= kInlineLabelBytes) {
    d->flags &= static_cast<uint8_t>(~NodeDescriptor::kLabelOverflow);
    std::memcpy(d->label_inline, label.prefix.data(), label.prefix.size());
    return Status::OK();
  }
  // Long label: overflow into text storage. NOTE: text insertion may fault
  // pages, so the caller must re-establish its descriptor pointer; to avoid
  // that hazard we stash the prefix first and only then write the ref.
  SEDNA_ASSIGN_OR_RETURN(Xptr ref, text_->Insert(ctx, label.prefix));
  d->flags |= NodeDescriptor::kLabelOverflow;
  SetOverflowRef(d, ref);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

StatusOr<NodeInfo> NodeStore::Info(const OpCtx& ctx, Xptr addr) const {
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(addr.PageBase(), ctx));
  const uint8_t* page = guard.data();
  const BlockHeader* h = HeaderOf(page);
  if (h->magic != kNodeBlockMagic) {
    return Status::Corruption("address is not inside a node block: " +
                              addr.ToString());
  }
  const NodeDescriptor* d =
      reinterpret_cast<const NodeDescriptor*>(page + addr.PageOffset());
  NodeInfo info;
  info.addr = addr;
  info.schema_id = h->schema_id;
  info.kind = schema_->node(h->schema_id)->kind;
  info.handle = d->handle;
  info.parent_handle = d->parent_handle;
  info.left_sibling = d->left_sibling;
  info.right_sibling = d->right_sibling;
  SEDNA_ASSIGN_OR_RETURN(info.label, ReadLabel(ctx, d));
  return info;
}

StatusOr<NodeInfo> NodeStore::InfoByHandle(const OpCtx& ctx,
                                           Xptr handle) const {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, indirection_->Get(ctx, handle));
  return Info(ctx, addr);
}

StatusOr<std::string> NodeStore::Text(const OpCtx& ctx, Xptr addr) const {
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(addr.PageBase(), ctx));
  const uint8_t* page = guard.data();
  const BlockHeader* h = HeaderOf(page);
  XmlKind kind = schema_->node(h->schema_id)->kind;
  if (kind == XmlKind::kElement || kind == XmlKind::kDocument) {
    return std::string();
  }
  const NodeDescriptor* d =
      reinterpret_cast<const NodeDescriptor*>(page + addr.PageOffset());
  Xptr ref = TextPayloadOf(d)->text_ref;
  guard.Release();
  return text_->Read(ctx, ref);
}

StatusOr<Xptr> NodeStore::FirstOfSchema(const OpCtx& ctx,
                                        const SchemaNode* sn) const {
  if (!sn->first_block) return kNullXptr;
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(sn->first_block, ctx));
  const BlockHeader* h = HeaderOf(guard.data());
  if (h->first_slot == kNoSlot) return kNullXptr;
  return DescriptorXptr(sn->first_block, h->first_slot, h->desc_size);
}

StatusOr<std::vector<Xptr>> NodeStore::SchemaBlocks(
    const OpCtx& ctx, const SchemaNode* sn) const {
  std::vector<Xptr> out;
  Xptr block = sn->first_block;
  while (block) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
    const BlockHeader* h = HeaderOf(guard.data());
    if (h->magic != kNodeBlockMagic) {
      return Status::Corruption("schema block chain reaches a non-node page: " +
                                block.ToString());
    }
    out.push_back(block);
    block = h->next_block;
  }
  return out;
}

Status NodeStore::ScanBlockNodes(const OpCtx& ctx, Xptr block,
                                 std::vector<Xptr>* out) const {
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
  const uint8_t* page = guard.data();
  const BlockHeader* h = HeaderOf(page);
  if (h->magic != kNodeBlockMagic) {
    return Status::Corruption("morsel scan reached a non-node page: " +
                              block.ToString());
  }
  uint16_t slot = h->first_slot;
  uint16_t seen = 0;
  while (slot != kNoSlot) {
    if (++seen > h->capacity) {
      return Status::Corruption("in-block chain cycle in block " +
                                block.ToString());
    }
    Xptr addr = DescriptorXptr(block, slot, h->desc_size);
    out->push_back(addr);
    const NodeDescriptor* d =
        reinterpret_cast<const NodeDescriptor*>(page + addr.PageOffset());
    slot = d->next_in_block;
  }
  return Status::OK();
}

StatusOr<Xptr> NodeStore::NextSameSchema(const OpCtx& ctx, Xptr addr) const {
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(addr.PageBase(), ctx));
  const uint8_t* page = guard.data();
  const BlockHeader* h = HeaderOf(page);
  const NodeDescriptor* d =
      reinterpret_cast<const NodeDescriptor*>(page + addr.PageOffset());
  if (d->next_in_block != kNoSlot) {
    return DescriptorXptr(addr.PageBase(), d->next_in_block, h->desc_size);
  }
  Xptr next_block = h->next_block;
  guard.Release();
  if (!next_block) return kNullXptr;
  SEDNA_ASSIGN_OR_RETURN(PageGuard next_guard, env_->Read(next_block, ctx));
  const BlockHeader* nh = HeaderOf(next_guard.data());
  if (nh->first_slot == kNoSlot) return kNullXptr;
  return DescriptorXptr(next_block, nh->first_slot, nh->desc_size);
}

StatusOr<Xptr> NodeStore::ChildSlot(const OpCtx& ctx, Xptr elem,
                                    int slot) const {
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(elem.PageBase(), ctx));
  const uint8_t* page = guard.data();
  const BlockHeader* h = HeaderOf(page);
  if (slot < 0 || slot >= h->child_slots) return kNullXptr;
  const NodeDescriptor* d =
      reinterpret_cast<const NodeDescriptor*>(page + elem.PageOffset());
  return ElementChildSlots(d)[slot];
}

StatusOr<Xptr> NodeStore::FirstChild(const OpCtx& ctx, Xptr elem) const {
  // The doc-order first child is the child slot target with minimal label.
  std::vector<Xptr> candidates;
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(elem.PageBase(), ctx));
    const uint8_t* page = guard.data();
    const BlockHeader* h = HeaderOf(page);
    const NodeDescriptor* d =
        reinterpret_cast<const NodeDescriptor*>(page + elem.PageOffset());
    const Xptr* slots = ElementChildSlots(d);
    for (uint16_t i = 0; i < h->child_slots; ++i) {
      if (slots[i]) candidates.push_back(slots[i]);
    }
  }
  Xptr best;
  NidLabel best_label;
  for (Xptr c : candidates) {
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info, Info(ctx, c));
    if (!best || info.label.CompareDocOrder(best_label) < 0) {
      best = c;
      best_label = info.label;
    }
  }
  return best;
}

StatusOr<Xptr> NodeStore::NextSibSameSchema(const OpCtx& ctx,
                                            Xptr addr) const {
  Xptr parent_handle;
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(addr.PageBase(), ctx));
    const NodeDescriptor* d = reinterpret_cast<const NodeDescriptor*>(
        guard.data() + addr.PageOffset());
    parent_handle = d->parent_handle;
  }
  SEDNA_ASSIGN_OR_RETURN(Xptr next, NextSameSchema(ctx, addr));
  if (!next) return kNullXptr;
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(next.PageBase(), ctx));
  const NodeDescriptor* d = reinterpret_cast<const NodeDescriptor*>(
      guard.data() + next.PageOffset());
  // Same-kind children of one parent are contiguous in the chain.
  if (d->parent_handle != parent_handle) return kNullXptr;
  return next;
}

StatusOr<Xptr> NodeStore::LastChild(const OpCtx& ctx, Xptr elem) const {
  std::vector<Xptr> firsts;
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(elem.PageBase(), ctx));
    const uint8_t* page = guard.data();
    const BlockHeader* h = HeaderOf(page);
    const NodeDescriptor* d =
        reinterpret_cast<const NodeDescriptor*>(page + elem.PageOffset());
    const Xptr* slots = ElementChildSlots(d);
    for (uint16_t i = 0; i < h->child_slots; ++i) {
      if (slots[i]) firsts.push_back(slots[i]);
    }
  }
  Xptr best;
  NidLabel best_label;
  for (Xptr first : firsts) {
    // Walk to the last same-parent child of this kind.
    Xptr cur = first;
    for (;;) {
      SEDNA_ASSIGN_OR_RETURN(Xptr next, NextSibSameSchema(ctx, cur));
      if (!next) break;
      cur = next;
    }
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info, Info(ctx, cur));
    if (!best || info.label.CompareDocOrder(best_label) > 0) {
      best = cur;
      best_label = info.label;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Block allocation and rewriting
// ---------------------------------------------------------------------------

StatusOr<Xptr> NodeStore::NewBlock(const OpCtx& ctx, SchemaNode* sn,
                                   uint16_t child_slots, Xptr prev) {
  uint16_t desc_size = DescriptorSize(sn->kind, child_slots);
  uint16_t capacity = BlockCapacity(desc_size);
  SEDNA_CHECK(capacity >= 2) << "schema fan-out too large for a block: "
                             << sn->Path();
  SEDNA_ASSIGN_OR_RETURN(Xptr page_base, env_->allocator->AllocPage(ctx));

  Xptr next;  // block that will follow the new one
  if (prev) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard prev_guard, env_->Write(prev, ctx));
    BlockHeader* ph = HeaderOf(prev_guard.data());
    next = ph->next_block;
    ph->next_block = page_base;
    prev_guard.MarkDirty();
  } else {
    next = sn->first_block;
  }
  if (next) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard next_guard, env_->Write(next, ctx));
    HeaderOf(next_guard.data())->prev_block = page_base;
    next_guard.MarkDirty();
  }

  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(page_base, ctx));
  uint8_t* page = guard.data();
  std::memset(page, 0, kPageSize);
  BlockHeader* h = HeaderOf(page);
  *h = BlockHeader{};
  h->schema_id = sn->id;
  h->self = page_base;
  h->prev_block = prev;
  h->next_block = next;
  h->desc_size = desc_size;
  h->child_slots = child_slots;
  h->capacity = capacity;
  guard.MarkDirty();

  if (!prev) sn->first_block = page_base;
  if (!next) sn->last_block = page_base;
  return page_base;
}

StatusOr<NodeStore::ChainPos> NodeStore::FindPosition(
    const OpCtx& ctx, SchemaNode* sn, const std::string& label_prefix) const {
  if (!sn->first_block) return ChainPos{kNullXptr, kNoSlot};

  // Fast path: appends (bulk loads, right-side inserts) target the last
  // block's tail.
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(sn->last_block, ctx));
    const uint8_t* page = guard.data();
    const BlockHeader* h = HeaderOf(page);
    if (h->last_slot != kNoSlot) {
      const NodeDescriptor* last = reinterpret_cast<const NodeDescriptor*>(
          page + sizeof(BlockHeader) +
          static_cast<size_t>(h->last_slot) * h->desc_size);
      SEDNA_ASSIGN_OR_RETURN(NidLabel last_label, ReadLabel(ctx, last));
      if (label_prefix > last_label.prefix) {
        return ChainPos{sn->last_block, h->last_slot};
      }
    } else {
      return ChainPos{sn->last_block, kNoSlot};
    }
  }

  // General path: find the first block whose last label exceeds the new
  // one, then scan its in-block chain for the predecessor.
  Xptr block = sn->first_block;
  while (block) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
    const uint8_t* page = guard.data();
    const BlockHeader* h = HeaderOf(page);
    Xptr next_block = h->next_block;
    if (h->last_slot != kNoSlot) {
      const NodeDescriptor* last = reinterpret_cast<const NodeDescriptor*>(
          page + sizeof(BlockHeader) +
          static_cast<size_t>(h->last_slot) * h->desc_size);
      SEDNA_ASSIGN_OR_RETURN(NidLabel last_label, ReadLabel(ctx, last));
      if (label_prefix < last_label.prefix) {
        // Target block. Scan the chain for the predecessor.
        uint16_t pred = kNoSlot;
        uint16_t cur = h->first_slot;
        while (cur != kNoSlot) {
          const NodeDescriptor* d = reinterpret_cast<const NodeDescriptor*>(
              page + sizeof(BlockHeader) +
              static_cast<size_t>(cur) * h->desc_size);
          SEDNA_ASSIGN_OR_RETURN(NidLabel l, ReadLabel(ctx, d));
          if (l.prefix > label_prefix) break;
          pred = cur;
          cur = d->next_in_block;
        }
        return ChainPos{block, pred};
      }
    }
    if (!next_block) return ChainPos{block, h->last_slot};
    block = next_block;
  }
  return Status::Internal("unreachable: fell off block chain");
}

StatusOr<Xptr> NodeStore::AllocDescriptor(const OpCtx& ctx, SchemaNode* sn,
                                          ChainPos pos,
                                          const NidLabel& label) {
  if (!pos.block) {
    uint16_t arity = sn->kind == XmlKind::kElement ||
                             sn->kind == XmlKind::kDocument
                         ? static_cast<uint16_t>(sn->children.size())
                         : 0;
    SEDNA_ASSIGN_OR_RETURN(pos.block, NewBlock(ctx, sn, arity, kNullXptr));
    pos.pred_slot = kNoSlot;
  }

  for (int attempt = 0; attempt < 3; ++attempt) {
    {
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(pos.block, ctx));
      uint8_t* page = guard.data();
      BlockHeader* h = HeaderOf(page);
      // Integrity gate: a block whose header does not describe *this* page
      // (wrong magic or self pointer) or whose slot chains point outside
      // the slot array means the store is inconsistent — fail cleanly
      // instead of following a wild in-page pointer.
      if (h->magic != kNodeBlockMagic || h->self != pos.block) {
        return Status::Corruption(
            "node block " + pos.block.ToString() +
            " holds foreign content (magic " + std::to_string(h->magic) +
            ", self " + Xptr(h->self).ToString() + ")");
      }
      if ((h->free_head != kNoSlot && h->free_head >= h->capacity) ||
          (pos.pred_slot != kNoSlot && pos.pred_slot >= h->capacity) ||
          h->high_water > h->capacity) {
        return Status::Corruption("slot chain out of range in node block " +
                                  pos.block.ToString());
      }
      if (h->count < h->capacity) {
        uint16_t slot;
        if (h->free_head != kNoSlot) {
          slot = h->free_head;
          NodeDescriptor* freed = DescriptorAt(page, slot);
          h->free_head = freed->next_in_block;
        } else {
          slot = h->high_water++;
        }
        if (slot >= h->capacity) {
          return Status::Corruption("slot index out of range in node block " +
                                    pos.block.ToString());
        }
        NodeDescriptor* d = DescriptorAt(page, slot);
        std::memset(static_cast<void*>(d), 0, h->desc_size);
        d->next_in_block = kNoSlot;
        d->prev_in_block = kNoSlot;
        // Link into the in-block chain after pred_slot.
        if (pos.pred_slot == kNoSlot) {
          d->next_in_block = h->first_slot;
          if (h->first_slot != kNoSlot) {
            DescriptorAt(page, h->first_slot)->prev_in_block = slot;
          }
          h->first_slot = slot;
          if (h->last_slot == kNoSlot) h->last_slot = slot;
        } else {
          NodeDescriptor* pred = DescriptorAt(page, pos.pred_slot);
          if (pred->next_in_block != kNoSlot &&
              pred->next_in_block >= h->capacity) {
            return Status::Corruption(
                "descriptor chain out of range in node block " +
                pos.block.ToString());
          }
          d->next_in_block = pred->next_in_block;
          d->prev_in_block = pos.pred_slot;
          if (pred->next_in_block != kNoSlot) {
            DescriptorAt(page, pred->next_in_block)->prev_in_block = slot;
          }
          pred->next_in_block = slot;
          if (h->last_slot == pos.pred_slot) h->last_slot = slot;
        }
        h->count++;
        guard.MarkDirty();
        Xptr addr = DescriptorXptr(pos.block, slot, h->desc_size);
        guard.Release();
        // Write the label last: it may fault pages (overflow labels).
        SEDNA_ASSIGN_OR_RETURN(PageGuard again, env_->Write(pos.block, ctx));
        NodeDescriptor* d2 = reinterpret_cast<NodeDescriptor*>(
            again.data() + addr.PageOffset());
        SEDNA_RETURN_IF_ERROR(WriteLabel(ctx, d2, label));
        again.MarkDirty();
        return addr;
      }
    }
    // Block is full: split it in two and retry at the recomputed position.
    uint16_t child_slots;
    {
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(pos.block, ctx));
      child_slots = HeaderOf(guard.data())->child_slots;
    }
    SEDNA_RETURN_IF_ERROR(
        RewriteBlock(ctx, sn, pos.block, child_slots, /*min_blocks=*/2));
    SEDNA_ASSIGN_OR_RETURN(pos, FindPosition(ctx, sn, label.prefix));
    SEDNA_CHECK(pos.block) << "chain emptied during split";
  }
  return Status::Internal("descriptor allocation failed after split");
}

Status NodeStore::RewriteBlock(const OpCtx& ctx, SchemaNode* sn, Xptr block,
                               uint16_t new_child_slots, size_t min_blocks) {
  // Copy the old page out so we can allocate/pin freely while reading it.
  std::vector<uint8_t> old_page(kPageSize);
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
    std::memcpy(old_page.data(), guard.data(), kPageSize);
  }
  BlockHeader* oh = HeaderOf(old_page.data());
  SEDNA_CHECK(oh->magic == kNodeBlockMagic);
  const uint16_t old_child_slots = oh->child_slots;
  const size_t n = oh->count;

  uint16_t new_desc_size = DescriptorSize(sn->kind, new_child_slots);
  uint16_t new_capacity = BlockCapacity(new_desc_size);
  size_t num_new = std::max(min_blocks, (n + new_capacity - 1) / new_capacity);
  if (num_new > n && n > 0) num_new = n;
  if (num_new == 0) num_new = 1;

  // Ordered descriptor slots of the old block.
  std::vector<uint16_t> order;
  order.reserve(n);
  for (uint16_t s = oh->first_slot; s != kNoSlot;) {
    order.push_back(s);
    s = reinterpret_cast<NodeDescriptor*>(old_page.data() +
                                          sizeof(BlockHeader) +
                                          static_cast<size_t>(s) *
                                              oh->desc_size)
            ->next_in_block;
  }
  SEDNA_CHECK(order.size() == n) << "in-block chain inconsistent with count";

  // Create the new blocks, linked in place of the old one.
  std::vector<Xptr> new_blocks;
  Xptr prev = oh->prev_block;
  Xptr old_next = oh->next_block;
  for (size_t b = 0; b < num_new; ++b) {
    SEDNA_ASSIGN_OR_RETURN(Xptr nb, NewBlock(ctx, sn, new_child_slots, prev));
    new_blocks.push_back(nb);
    prev = nb;
  }
  // NewBlock(prev=last_old_prev) splices before `old_next` only if prev was
  // the chain tail; fix the tail link explicitly.
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(new_blocks.back(), ctx));
    HeaderOf(guard.data())->next_block = old_next;
    guard.MarkDirty();
  }
  if (old_next) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(old_next, ctx));
    HeaderOf(guard.data())->prev_block = new_blocks.back();
    guard.MarkDirty();
  }
  if (sn->first_block == block) sn->first_block = new_blocks.front();
  if (sn->last_block == block) sn->last_block = new_blocks.back();

  // Distribute descriptors across the new blocks, preserving order.
  std::vector<std::pair<Xptr, Xptr>> moved;
  moved.reserve(n);
  size_t per_block = (n + num_new - 1) / num_new;
  size_t idx = 0;
  for (size_t b = 0; b < num_new && idx < n; ++b) {
    size_t take = std::min(per_block, n - idx);
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(new_blocks[b], ctx));
    uint8_t* page = guard.data();
    BlockHeader* h = HeaderOf(page);
    for (size_t i = 0; i < take; ++i, ++idx) {
      uint16_t old_slot = order[idx];
      const NodeDescriptor* src = reinterpret_cast<const NodeDescriptor*>(
          old_page.data() + sizeof(BlockHeader) +
          static_cast<size_t>(old_slot) * oh->desc_size);
      uint16_t slot = h->high_water++;
      NodeDescriptor* dst = DescriptorAt(page, slot);
      std::memset(static_cast<void*>(dst), 0, h->desc_size);
      std::memcpy(dst, src, sizeof(NodeDescriptor));
      if (sn->kind == XmlKind::kElement || sn->kind == XmlKind::kDocument) {
        uint16_t copy_slots = std::min(old_child_slots, new_child_slots);
        std::memcpy(ElementChildSlots(dst), ElementChildSlots(src),
                    copy_slots * sizeof(Xptr));
      } else {
        *TextPayloadOf(dst) = *TextPayloadOf(src);
      }
      // Sequential chain within the new block.
      dst->prev_in_block = i == 0 ? kNoSlot : static_cast<uint16_t>(slot - 1);
      dst->next_in_block =
          i + 1 == take ? kNoSlot : static_cast<uint16_t>(slot + 1);
      if (i == 0) h->first_slot = slot;
      if (i + 1 == take) h->last_slot = slot;
      h->count++;
      Xptr old_addr =
          DescriptorXptr(block, old_slot, oh->desc_size);
      Xptr new_addr = DescriptorXptr(new_blocks[b], slot, h->desc_size);
      moved.emplace_back(old_addr, new_addr);
    }
    guard.MarkDirty();
  }

  // Fix inbound pointers of every moved node (constant work per node).
  for (const auto& [old_addr, new_addr] : moved) {
    SEDNA_RETURN_IF_ERROR(FixInboundPointers(ctx, old_addr, new_addr, moved));
  }

  moved_nodes_ += n;
  block_splits_++;
  return env_->allocator->FreePage(block, ctx);
}

Status NodeStore::FixInboundPointers(
    const OpCtx& ctx, Xptr old_addr, Xptr new_addr,
    const std::vector<std::pair<Xptr, Xptr>>& moved) {
  auto remap = [&moved](Xptr p) -> Xptr {
    for (const auto& [from, to] : moved) {
      if (from == p) return to;
    }
    return kNullXptr;
  };

  Xptr handle, parent_handle, left, right;
  uint32_t schema_id;
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(new_addr.PageBase(), ctx));
    uint8_t* page = guard.data();
    schema_id = HeaderOf(page)->schema_id;
    NodeDescriptor* d =
        reinterpret_cast<NodeDescriptor*>(page + new_addr.PageOffset());
    // Our own sibling fields may point at nodes that moved with us.
    if (Xptr to = remap(d->left_sibling)) d->left_sibling = to;
    if (Xptr to = remap(d->right_sibling)) d->right_sibling = to;
    handle = d->handle;
    parent_handle = d->parent_handle;
    left = d->left_sibling;
    right = d->right_sibling;
    guard.MarkDirty();
  }

  // 1. Indirection entry (the single field that makes all handles valid).
  SEDNA_RETURN_IF_ERROR(indirection_->Set(ctx, handle, new_addr));

  // 2. Sibling neighbours' direct pointers (skip ones that moved with us —
  //    their own fix-up pass rewrites their fields via remap()).
  if (left && !remap(left)) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(left.PageBase(), ctx));
    NodeDescriptor* ld =
        reinterpret_cast<NodeDescriptor*>(guard.data() + left.PageOffset());
    if (ld->right_sibling == old_addr) {
      ld->right_sibling = new_addr;
      guard.MarkDirty();
    }
  }
  if (right && !remap(right)) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(right.PageBase(), ctx));
    NodeDescriptor* rd =
        reinterpret_cast<NodeDescriptor*>(guard.data() + right.PageOffset());
    if (rd->left_sibling == old_addr) {
      rd->left_sibling = new_addr;
      guard.MarkDirty();
    }
  }

  // 3. Parent child slot, if it pointed at us.
  return SetParentSlotIfPointsTo(ctx, parent_handle, schema_id, old_addr,
                                 new_addr);
}

Status NodeStore::SetParentSlotIfPointsTo(const OpCtx& ctx,
                                          Xptr parent_handle,
                                          uint32_t child_schema_id,
                                          Xptr expect, Xptr replacement) {
  if (!parent_handle) return Status::OK();
  SEDNA_ASSIGN_OR_RETURN(Xptr parent_addr,
                         indirection_->Get(ctx, parent_handle));
  int slot = schema_->node(child_schema_id)->slot_in_parent;
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                         env_->Write(parent_addr.PageBase(), ctx));
  uint8_t* page = guard.data();
  BlockHeader* h = HeaderOf(page);
  if (slot < 0 || slot >= h->child_slots) return Status::OK();
  NodeDescriptor* pd =
      reinterpret_cast<NodeDescriptor*>(page + parent_addr.PageOffset());
  Xptr* slots = ElementChildSlots(pd);
  if (slots[slot] == expect) {
    slots[slot] = replacement;
    guard.MarkDirty();
  }
  return Status::OK();
}

StatusOr<Xptr> NodeStore::EnsureArity(const OpCtx& ctx, Xptr handle,
                                      int slot) {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, indirection_->Get(ctx, handle));
  uint32_t schema_id;
  uint16_t child_slots;
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(addr.PageBase(), ctx));
    const BlockHeader* h = HeaderOf(guard.data());
    schema_id = h->schema_id;
    child_slots = h->child_slots;
  }
  if (slot < child_slots) return addr;
  SchemaNode* sn = schema_->node(schema_id);
  // Upgrade to the schema's current fan-out so repeated growth is amortized.
  uint16_t new_arity = static_cast<uint16_t>(
      std::max<size_t>(static_cast<size_t>(slot) + 1, sn->children.size()));
  SEDNA_RETURN_IF_ERROR(
      RewriteBlock(ctx, sn, addr.PageBase(), new_arity, /*min_blocks=*/1));
  return indirection_->Get(ctx, handle);
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

StatusOr<Xptr> NodeStore::CreateRoot(const OpCtx& ctx) {
  SchemaNode* root_sn = schema_->root();
  if (root_sn->first_block) {
    return Status::FailedPrecondition("document root already exists");
  }
  NidLabel label = NidLabel::Root();
  SEDNA_ASSIGN_OR_RETURN(
      Xptr addr,
      AllocDescriptor(ctx, root_sn, ChainPos{kNullXptr, kNoSlot}, label));
  SEDNA_ASSIGN_OR_RETURN(Xptr handle, indirection_->Alloc(ctx, addr));
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(addr.PageBase(), ctx));
  NodeDescriptor* d =
      reinterpret_cast<NodeDescriptor*>(guard.data() + addr.PageOffset());
  d->handle = handle;
  guard.MarkDirty();
  root_sn->node_count++;
  return handle;
}

StatusOr<Xptr> NodeStore::InsertNode(const OpCtx& ctx, Xptr parent_handle,
                                     Xptr left_handle, Xptr right_handle,
                                     XmlKind kind, std::string_view name,
                                     std::string_view text) {
  SEDNA_ASSIGN_OR_RETURN(NodeInfo parent, InfoByHandle(ctx, parent_handle));
  if (parent.kind != XmlKind::kElement && parent.kind != XmlKind::kDocument) {
    return Status::InvalidArgument("parent is not an element");
  }
  SchemaNode* psn = schema_->node(parent.schema_id);
  SchemaNode* sn = schema_->GetOrAddChild(psn, kind, name);

  // Establish document-order neighbours.
  NidLabel left_label, right_label;
  bool has_left = false, has_right = false;
  if (left_handle) {
    SEDNA_ASSIGN_OR_RETURN(NodeInfo li, InfoByHandle(ctx, left_handle));
    left_label = li.label;
    has_left = true;
    if (!right_handle && li.right_sibling) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo ri, Info(ctx, li.right_sibling));
      right_handle = ri.handle;
      right_label = ri.label;
      has_right = true;
    }
  }
  if (right_handle && !has_right) {
    SEDNA_ASSIGN_OR_RETURN(NodeInfo ri, InfoByHandle(ctx, right_handle));
    right_label = ri.label;
    has_right = true;
    if (!left_handle && ri.left_sibling) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo li, Info(ctx, ri.left_sibling));
      left_handle = li.handle;
      left_label = li.label;
      has_left = true;
    }
  }
  if (!left_handle && !right_handle) {
    // Append as last child.
    SEDNA_ASSIGN_OR_RETURN(Xptr last, LastChild(ctx, parent.addr));
    if (last) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo li, Info(ctx, last));
      left_handle = li.handle;
      left_label = li.label;
      has_left = true;
    }
  }

  NidLabel label = nid::AllocBetween(parent.label,
                                     has_left ? &left_label : nullptr,
                                     has_right ? &right_label : nullptr);

  // Store the text first (its pages are independent of node blocks).
  Xptr text_ref;
  if (kind != XmlKind::kElement) {
    SEDNA_ASSIGN_OR_RETURN(text_ref, text_->Insert(ctx, text));
  }

  SEDNA_ASSIGN_OR_RETURN(ChainPos pos, FindPosition(ctx, sn, label.prefix));
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, AllocDescriptor(ctx, sn, pos, label));
  SEDNA_ASSIGN_OR_RETURN(Xptr handle, indirection_->Alloc(ctx, addr));

  // A split in AllocDescriptor may have moved the neighbours: re-resolve.
  Xptr left_addr, right_addr;
  if (left_handle) {
    SEDNA_ASSIGN_OR_RETURN(left_addr, indirection_->Get(ctx, left_handle));
  }
  if (right_handle) {
    SEDNA_ASSIGN_OR_RETURN(right_addr, indirection_->Get(ctx, right_handle));
  }

  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(addr.PageBase(), ctx));
    NodeDescriptor* d =
        reinterpret_cast<NodeDescriptor*>(guard.data() + addr.PageOffset());
    d->handle = handle;
    d->parent_handle = parent_handle;
    d->left_sibling = left_addr;
    d->right_sibling = right_addr;
    if (kind != XmlKind::kElement) {
      TextPayloadOf(d)->text_ref = text_ref;
    }
    guard.MarkDirty();
  }
  if (left_addr) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(left_addr.PageBase(), ctx));
    reinterpret_cast<NodeDescriptor*>(guard.data() + left_addr.PageOffset())
        ->right_sibling = addr;
    guard.MarkDirty();
  }
  if (right_addr) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(right_addr.PageBase(), ctx));
    reinterpret_cast<NodeDescriptor*>(guard.data() + right_addr.PageOffset())
        ->left_sibling = addr;
    guard.MarkDirty();
  }

  // Parent child slot: points at the FIRST child of this schema node.
  SEDNA_ASSIGN_OR_RETURN(Xptr parent_addr,
                         EnsureArity(ctx, parent_handle, sn->slot_in_parent));
  {
    SEDNA_ASSIGN_OR_RETURN(Xptr current,
                           ChildSlot(ctx, parent_addr, sn->slot_in_parent));
    bool take = !current;
    if (current) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo ci, Info(ctx, current));
      take = label.CompareDocOrder(ci.label) < 0;
    }
    if (take) {
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                             env_->Write(parent_addr.PageBase(), ctx));
      uint8_t* page = guard.data();
      NodeDescriptor* pd = reinterpret_cast<NodeDescriptor*>(
          page + parent_addr.PageOffset());
      ElementChildSlots(pd)[sn->slot_in_parent] = addr;
      guard.MarkDirty();
    }
  }

  sn->node_count++;
  return handle;
}

StatusOr<NodeStore::NewNodeResult> NodeStore::AppendNode(
    const OpCtx& ctx, SchemaNode* sn, const NidLabel& label,
    Xptr parent_handle, Xptr prev_sibling_addr, std::string_view text) {
  Xptr text_ref;
  if (sn->kind != XmlKind::kElement && sn->kind != XmlKind::kDocument) {
    SEDNA_ASSIGN_OR_RETURN(text_ref, text_->Insert(ctx, text));
  }

  // Append at the chain tail (the loader guarantees increasing labels).
  ChainPos pos{kNullXptr, kNoSlot};
  if (sn->last_block) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(sn->last_block, ctx));
    const BlockHeader* h = HeaderOf(guard.data());
    if (h->count < h->capacity) {
      pos = ChainPos{sn->last_block, h->last_slot};
    }
  }
  if (!pos.block) {
    uint16_t arity =
        sn->kind == XmlKind::kElement || sn->kind == XmlKind::kDocument
            ? static_cast<uint16_t>(sn->children.size())
            : 0;
    SEDNA_ASSIGN_OR_RETURN(Xptr nb,
                           NewBlock(ctx, sn, arity, sn->last_block));
    pos = ChainPos{nb, kNoSlot};
  }
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, AllocDescriptor(ctx, sn, pos, label));
  SEDNA_ASSIGN_OR_RETURN(Xptr handle, indirection_->Alloc(ctx, addr));
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(addr.PageBase(), ctx));
    NodeDescriptor* d =
        reinterpret_cast<NodeDescriptor*>(guard.data() + addr.PageOffset());
    d->handle = handle;
    d->parent_handle = parent_handle;
    d->left_sibling = prev_sibling_addr;
    if (sn->kind != XmlKind::kElement && sn->kind != XmlKind::kDocument) {
      TextPayloadOf(d)->text_ref = text_ref;
    }
    guard.MarkDirty();
  }
  if (prev_sibling_addr) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(prev_sibling_addr.PageBase(), ctx));
    reinterpret_cast<NodeDescriptor*>(guard.data() +
                                      prev_sibling_addr.PageOffset())
        ->right_sibling = addr;
    guard.MarkDirty();
  }
  sn->node_count++;
  return NewNodeResult{addr, handle};
}

Status NodeStore::SetChildSlot(const OpCtx& ctx, Xptr handle, int slot,
                               Xptr child) {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, EnsureArity(ctx, handle, slot));
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(addr.PageBase(), ctx));
  NodeDescriptor* d =
      reinterpret_cast<NodeDescriptor*>(guard.data() + addr.PageOffset());
  ElementChildSlots(d)[slot] = child;
  guard.MarkDirty();
  return Status::OK();
}

Status NodeStore::DeleteLeaf(const OpCtx& ctx, Xptr handle) {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, indirection_->Get(ctx, handle));
  SEDNA_ASSIGN_OR_RETURN(NodeInfo info, Info(ctx, addr));
  SchemaNode* sn = schema_->node(info.schema_id);

  // Reject non-leaves.
  if (sn->kind == XmlKind::kElement || sn->kind == XmlKind::kDocument) {
    SEDNA_ASSIGN_OR_RETURN(Xptr child, FirstChild(ctx, addr));
    if (child) {
      return Status::FailedPrecondition("DeleteLeaf on a node with children");
    }
  }

  // Replacement for the parent's first-child slot, if we are the first.
  SEDNA_ASSIGN_OR_RETURN(Xptr replacement, NextSibSameSchema(ctx, addr));
  SEDNA_RETURN_IF_ERROR(SetParentSlotIfPointsTo(
      ctx, info.parent_handle, info.schema_id, addr, replacement));

  // Unlink from siblings.
  if (info.left_sibling) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(info.left_sibling.PageBase(), ctx));
    reinterpret_cast<NodeDescriptor*>(guard.data() +
                                      info.left_sibling.PageOffset())
        ->right_sibling = info.right_sibling;
    guard.MarkDirty();
  }
  if (info.right_sibling) {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->Write(info.right_sibling.PageBase(), ctx));
    reinterpret_cast<NodeDescriptor*>(guard.data() +
                                      info.right_sibling.PageOffset())
        ->left_sibling = info.left_sibling;
    guard.MarkDirty();
  }

  // Free text payload and overflow label.
  bool free_block = false;
  Xptr block = addr.PageBase();
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(block, ctx));
    uint8_t* page = guard.data();
    BlockHeader* h = HeaderOf(page);
    NodeDescriptor* d =
        reinterpret_cast<NodeDescriptor*>(page + addr.PageOffset());
    Xptr text_ref;
    if (sn->kind != XmlKind::kElement && sn->kind != XmlKind::kDocument) {
      text_ref = TextPayloadOf(d)->text_ref;
    }
    Xptr overflow = d->has_overflow_label() ? OverflowRef(d) : kNullXptr;
    // Unlink from the in-block chain.
    uint16_t slot = SlotOf(addr, h->desc_size);
    if (d->prev_in_block != kNoSlot) {
      DescriptorAt(page, d->prev_in_block)->next_in_block = d->next_in_block;
    } else {
      h->first_slot = d->next_in_block;
    }
    if (d->next_in_block != kNoSlot) {
      DescriptorAt(page, d->next_in_block)->prev_in_block = d->prev_in_block;
    } else {
      h->last_slot = d->prev_in_block;
    }
    d->next_in_block = h->free_head;
    h->free_head = slot;
    h->count--;
    guard.MarkDirty();
    free_block = h->count == 0;
    guard.Release();
    if (text_ref) SEDNA_RETURN_IF_ERROR(text_->Delete(ctx, text_ref));
    if (overflow) SEDNA_RETURN_IF_ERROR(text_->Delete(ctx, overflow));
  }

  if (free_block) {
    // Unlink the empty block from the chain and release it.
    Xptr prev, next;
    {
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
      const BlockHeader* h = HeaderOf(guard.data());
      prev = h->prev_block;
      next = h->next_block;
    }
    if (prev) {
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(prev, ctx));
      HeaderOf(guard.data())->next_block = next;
      guard.MarkDirty();
    } else {
      sn->first_block = next;
    }
    if (next) {
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(next, ctx));
      HeaderOf(guard.data())->prev_block = prev;
      guard.MarkDirty();
    } else {
      sn->last_block = prev;
    }
    SEDNA_RETURN_IF_ERROR(env_->allocator->FreePage(block, ctx));
  }

  SEDNA_RETURN_IF_ERROR(indirection_->Free(ctx, handle));
  sn->node_count--;
  return Status::OK();
}

Status NodeStore::DeleteSubtree(const OpCtx& ctx, Xptr handle) {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, indirection_->Get(ctx, handle));
  SEDNA_ASSIGN_OR_RETURN(NodeInfo info, Info(ctx, addr));
  XmlKind kind = info.kind;
  if (kind == XmlKind::kElement || kind == XmlKind::kDocument) {
    // Collect child handles first: deletions do not move survivors, but
    // they do unlink them, so we snapshot the set up front.
    std::vector<Xptr> child_handles;
    SEDNA_ASSIGN_OR_RETURN(Xptr child, FirstChild(ctx, addr));
    // FirstChild gives the doc-order first; walk sibling pointers.
    while (child) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo ci, Info(ctx, child));
      child_handles.push_back(ci.handle);
      child = ci.right_sibling;
    }
    for (Xptr ch : child_handles) {
      SEDNA_RETURN_IF_ERROR(DeleteSubtree(ctx, ch));
    }
  }
  return DeleteLeaf(ctx, handle);
}

Status NodeStore::UpdateText(const OpCtx& ctx, Xptr handle,
                             std::string_view text) {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, indirection_->Get(ctx, handle));
  Xptr old_ref;
  {
    SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(addr.PageBase(), ctx));
    const uint8_t* page = guard.data();
    XmlKind kind = schema_->node(HeaderOf(page)->schema_id)->kind;
    if (kind == XmlKind::kElement || kind == XmlKind::kDocument) {
      return Status::InvalidArgument("UpdateText on an element");
    }
    old_ref = TextPayloadOf(reinterpret_cast<const NodeDescriptor*>(
                                page + addr.PageOffset()))
                  ->text_ref;
  }
  SEDNA_ASSIGN_OR_RETURN(Xptr new_ref, text_->Update(ctx, old_ref, text));
  SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Write(addr.PageBase(), ctx));
  NodeDescriptor* d =
      reinterpret_cast<NodeDescriptor*>(guard.data() + addr.PageOffset());
  TextPayloadOf(d)->text_ref = new_ref;
  guard.MarkDirty();
  return Status::OK();
}

}  // namespace sedna
