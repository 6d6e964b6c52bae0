#include "storage/document_store.h"

#include <set>
#include <unordered_map>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"
#include "storage/btree_index.h"

namespace sedna {

DocumentStore::DocumentStore(StorageEnv* env, uint32_t doc_id,
                             std::string name)
    : env_(env),
      doc_id_(doc_id),
      name_(std::move(name)),
      text_(env, doc_id),
      indirection_(env, doc_id),
      nodes_(env, &schema_, &text_, &indirection_, doc_id) {}

Status DocumentStore::Create(const OpCtx& ctx) {
  SEDNA_ASSIGN_OR_RETURN(root_handle_, nodes_.CreateRoot(ctx));
  return Status::OK();
}

void DocumentStore::RegisterSchema(const XmlNode& node, SchemaNode* sn) {
  for (const auto& child : node.children) {
    SchemaNode* csn = schema_.GetOrAddChild(sn, child->kind, child->name);
    if (child->kind == XmlKind::kElement) {
      RegisterSchema(*child, csn);
    }
  }
}

Status DocumentStore::Load(const OpCtx& ctx, const XmlNode& doc) {
  if (doc.kind != XmlKind::kDocument) {
    return Status::InvalidArgument("Load expects a document node");
  }
  if (!root_handle_) {
    return Status::FailedPrecondition("document not created");
  }
  RegisterSchema(doc, schema_.root());
  return LoadChildren(ctx, doc, schema_.root(), root_handle_,
                      NidLabel::Root());
}

Status DocumentStore::LoadChildren(const OpCtx& ctx, const XmlNode& elem,
                                   SchemaNode* esn, Xptr elem_handle,
                                   const NidLabel& elem_label) {
  if (elem.children.empty()) return Status::OK();
  std::vector<NidLabel> labels =
      nid::AllocChildren(elem_label, elem.children.size());
  Xptr prev_addr;
  std::unordered_map<SchemaNode*, Xptr> first_of_kind;
  for (size_t i = 0; i < elem.children.size(); ++i) {
    const XmlNode& child = *elem.children[i];
    SchemaNode* csn = esn->FindChild(child.kind, child.name);
    SEDNA_CHECK(csn != nullptr) << "schema pre-scan missed a child";
    std::string_view text =
        child.kind == XmlKind::kElement ? std::string_view() : child.value;
    SEDNA_ASSIGN_OR_RETURN(
        NodeStore::NewNodeResult r,
        nodes_.AppendNode(ctx, csn, labels[i], elem_handle, prev_addr, text));
    first_of_kind.emplace(csn, r.addr);
    if (child.kind == XmlKind::kElement) {
      SEDNA_RETURN_IF_ERROR(
          LoadChildren(ctx, child, csn, r.handle, labels[i]));
    }
    prev_addr = r.addr;
  }
  for (const auto& [csn, first_addr] : first_of_kind) {
    SEDNA_RETURN_IF_ERROR(nodes_.SetChildSlot(ctx, elem_handle,
                                              csn->slot_in_parent,
                                              first_addr));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<XmlNode>> DocumentStore::MaterializeAt(
    const OpCtx& ctx, Xptr addr) const {
  SEDNA_ASSIGN_OR_RETURN(NodeInfo info, nodes_.Info(ctx, addr));
  const SchemaNode* sn = schema_.node(info.schema_id);
  auto out = std::make_unique<XmlNode>(sn->kind, sn->name);
  if (sn->kind == XmlKind::kElement || sn->kind == XmlKind::kDocument) {
    SEDNA_ASSIGN_OR_RETURN(Xptr child, nodes_.FirstChild(ctx, addr));
    while (child) {
      SEDNA_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> c,
                             MaterializeAt(ctx, child));
      out->Add(std::move(c));
      SEDNA_ASSIGN_OR_RETURN(NodeInfo ci, nodes_.Info(ctx, child));
      child = ci.right_sibling;
    }
  } else {
    SEDNA_ASSIGN_OR_RETURN(out->value, nodes_.Text(ctx, addr));
  }
  return out;
}

StatusOr<std::unique_ptr<XmlNode>> DocumentStore::Materialize(
    const OpCtx& ctx, Xptr handle) const {
  SEDNA_ASSIGN_OR_RETURN(Xptr addr, indirection_.Get(ctx, handle));
  return MaterializeAt(ctx, addr);
}

StatusOr<std::unique_ptr<XmlNode>> DocumentStore::MaterializeDocument(
    const OpCtx& ctx) const {
  return Materialize(ctx, root_handle_);
}

PathSummary* DocumentStore::summary() const {
  std::lock_guard<std::mutex> lock(summary_mu_);
  if (summary_ == nullptr || summary_->schema_version() != schema_.version()) {
    summary_ = std::make_unique<PathSummary>(&schema_);
  }
  return summary_.get();
}

uint64_t DocumentStore::node_count() const {
  uint64_t total = 0;
  for (size_t i = 1; i < schema_.size(); ++i) {
    total += schema_.node(static_cast<uint32_t>(i))->node_count;
  }
  return total;
}

Status DocumentStore::Drop(const OpCtx& ctx) {
  for (const IndexDefinition& def : indexes()) {
    SEDNA_RETURN_IF_ERROR(DropIndex(ctx, def.name));
  }
  // Free all node blocks of every schema node.
  for (size_t i = 0; i < schema_.size(); ++i) {
    const SchemaNode* sn = schema_.node(static_cast<uint32_t>(i));
    Xptr block = sn->first_block;
    while (block) {
      Xptr next;
      {
        SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
        next = reinterpret_cast<const BlockHeader*>(guard.data())->next_block;
      }
      SEDNA_RETURN_IF_ERROR(env_->allocator->FreePage(block, ctx));
      block = next;
    }
  }
  SEDNA_RETURN_IF_ERROR(text_.FreeAll(ctx));
  SEDNA_RETURN_IF_ERROR(indirection_.FreeAll(ctx));
  root_handle_ = kNullXptr;
  return Status::OK();
}

std::vector<IndexDefinition> DocumentStore::indexes() const {
  std::lock_guard<std::mutex> lock(indexes_mu_);
  return indexes_;
}

std::optional<IndexDefinition> DocumentStore::FindIndex(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(indexes_mu_);
  for (const IndexDefinition& def : indexes_) {
    if (def.name == name) return def;
  }
  return std::nullopt;
}

void DocumentStore::PutIndex(IndexDefinition def) {
  std::lock_guard<std::mutex> lock(indexes_mu_);
  for (IndexDefinition& existing : indexes_) {
    if (existing.name == def.name) {
      existing = std::move(def);
      return;
    }
  }
  indexes_.push_back(std::move(def));
}

Status DocumentStore::DropIndex(const OpCtx& ctx, const std::string& name) {
  std::optional<IndexDefinition> def = FindIndex(name);
  if (!def.has_value()) {
    return Status::NotFound("index '" + name + "' does not exist");
  }
  SEDNA_RETURN_IF_ERROR(BtreeIndex(env_, def->meta).Destroy(ctx));
  std::lock_guard<std::mutex> lock(indexes_mu_);
  std::erase_if(indexes_,
                [&](const IndexDefinition& d) { return d.name == name; });
  return Status::OK();
}

namespace {

Status ValidationError(const std::string& doc, const std::string& what) {
  return Status::Corruption("document '" + doc + "': " + what);
}

}  // namespace

Status DocumentStore::Validate(const OpCtx& ctx) const {
  // --- Indirection page chain -------------------------------------------
  std::set<uint64_t> indir_pages;
  {
    Xptr cur = indirection_.head();
    while (cur) {
      if (!indir_pages.insert(cur.raw).second) {
        return ValidationError(name_, "cycle in indirection page chain at " +
                                          cur.ToString());
      }
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(cur, ctx));
      const IndirPageHeader* h =
          reinterpret_cast<const IndirPageHeader*>(guard.data());
      if (h->magic != kIndirPageMagic || h->self != cur ||
          h->doc_id != doc_id_) {
        return ValidationError(
            name_, "indirection chain reaches foreign page " + cur.ToString() +
                       " (magic " + std::to_string(h->magic) + ", self " +
                       Xptr(h->self).ToString() + ", doc " +
                       std::to_string(h->doc_id) + ")");
      }
      cur = h->next_page;
    }
  }
  auto valid_entry_addr = [&](Xptr addr) {
    if (indir_pages.count(addr.PageBase().raw) == 0) return false;
    uint32_t off = addr.PageOffset();
    return off >= sizeof(IndirPageHeader) && off % sizeof(uint64_t) == 0 &&
           off + sizeof(uint64_t) <= kPageSize;
  };

  // --- Indirection free list --------------------------------------------
  std::set<uint64_t> free_entries;
  {
    Xptr cur = indirection_.free_head();
    while (cur) {
      if (!valid_entry_addr(cur)) {
        return ValidationError(name_,
                               "indirection free list leaves the document's "
                               "indirection pages at " +
                                   cur.ToString());
      }
      if (!free_entries.insert(cur.raw).second) {
        return ValidationError(
            name_, "cycle in indirection free list at " + cur.ToString());
      }
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(cur.PageBase(), ctx));
      uint64_t entry;
      std::memcpy(&entry, guard.data() + cur.PageOffset(), sizeof(entry));
      if ((entry & kIndirFreeTag) == 0) {
        return ValidationError(
            name_, "indirection free list points at live entry " +
                       cur.ToString() + " -> " + Xptr(entry).ToString());
      }
      cur = Xptr(entry & ~kIndirFreeTag);
    }
  }

  // --- Text page chain ---------------------------------------------------
  std::set<uint64_t> text_pages;
  {
    Xptr cur = text_.head();
    while (cur) {
      if (!text_pages.insert(cur.raw).second) {
        return ValidationError(name_,
                               "cycle in text page chain at " + cur.ToString());
      }
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(cur, ctx));
      const TextPageHeader* h =
          reinterpret_cast<const TextPageHeader*>(guard.data());
      if (h->magic != kTextPageMagic || h->self != cur ||
          h->doc_id != doc_id_) {
        return ValidationError(
            name_, "text chain reaches foreign page " + cur.ToString() +
                       " (magic " + std::to_string(h->magic) + ", self " +
                       Xptr(h->self).ToString() + ", doc " +
                       std::to_string(h->doc_id) + ")");
      }
      cur = h->next_page;
    }
  }

  // --- Node blocks, per schema node --------------------------------------
  std::set<uint64_t> seen_blocks;  // across ALL schema nodes: cross-links
  uint64_t live_descriptors = 0;
  for (size_t i = 0; i < schema_.size(); ++i) {
    const SchemaNode* sn = schema_.node(static_cast<uint32_t>(i));
    uint64_t sn_live = 0;
    Xptr block = sn->first_block;
    Xptr expect_prev = kNullXptr;
    while (block) {
      if (!seen_blocks.insert(block.raw).second) {
        return ValidationError(name_, "node block " + block.ToString() +
                                          " appears on two block chains "
                                          "(schema '" +
                                          sn->Path() + "')");
      }
      SEDNA_ASSIGN_OR_RETURN(PageGuard guard, env_->Read(block, ctx));
      const uint8_t* page = guard.data();
      const BlockHeader* h = reinterpret_cast<const BlockHeader*>(page);
      if (h->magic != kNodeBlockMagic || h->self != block ||
          h->schema_id != sn->id) {
        return ValidationError(
            name_, "block chain of schema '" + sn->Path() +
                       "' reaches foreign page " + block.ToString() +
                       " (magic " + std::to_string(h->magic) + ", self " +
                       Xptr(h->self).ToString() + ", schema " +
                       std::to_string(h->schema_id) + ")");
      }
      if (h->prev_block != expect_prev) {
        return ValidationError(name_, "broken prev_block link at " +
                                          block.ToString());
      }
      if (h->desc_size < sizeof(NodeDescriptor) ||
          sizeof(BlockHeader) +
                  static_cast<size_t>(h->capacity) * h->desc_size >
              kPageSize ||
          h->high_water > h->capacity || h->count > h->high_water) {
        return ValidationError(
            name_, "implausible block header in " + block.ToString() +
                       " (desc_size " + std::to_string(h->desc_size) +
                       ", capacity " + std::to_string(h->capacity) +
                       ", count " + std::to_string(h->count) +
                       ", high_water " + std::to_string(h->high_water) + ")");
      }
      // Walk the in-block doc-order chain; every live slot exactly once.
      std::vector<bool> live(h->high_water, false);
      uint16_t slot = h->first_slot;
      uint16_t prev = kNoSlot;
      uint16_t walked = 0;
      while (slot != kNoSlot) {
        if (slot >= h->high_water || live[slot]) {
          return ValidationError(
              name_, "in-block chain of " + block.ToString() +
                         " is out of range or cyclic at slot " +
                         std::to_string(slot));
        }
        live[slot] = true;
        const NodeDescriptor* d = DescriptorAt(
            const_cast<uint8_t*>(page), slot);
        if (d->prev_in_block != prev) {
          return ValidationError(name_,
                                 "broken prev_in_block link in " +
                                     block.ToString() + " at slot " +
                                     std::to_string(slot));
        }
        // Handle must resolve back to this descriptor.
        if (!valid_entry_addr(d->handle)) {
          return ValidationError(
              name_, "descriptor " + block.ToString() + "#" +
                         std::to_string(slot) + " carries handle " +
                         d->handle.ToString() +
                         " outside the document's indirection pages");
        }
        {
          SEDNA_ASSIGN_OR_RETURN(PageGuard ig,
                                 env_->Read(d->handle.PageBase(), ctx));
          uint64_t entry;
          std::memcpy(&entry, ig.data() + d->handle.PageOffset(),
                      sizeof(entry));
          Xptr expect = DescriptorXptr(block, slot, h->desc_size);
          if (entry & kIndirFreeTag) {
            return ValidationError(name_, "live descriptor " +
                                              expect.ToString() +
                                              " has a freed handle " +
                                              d->handle.ToString());
          }
          if (Xptr(entry) != expect) {
            return ValidationError(
                name_, "handle " + d->handle.ToString() + " resolves to " +
                           Xptr(entry).ToString() + " but the descriptor "
                           "lives at " + expect.ToString());
          }
        }
        // Text-carrying descriptors must reference this document's pages.
        if (sn->kind != XmlKind::kElement && sn->kind != XmlKind::kDocument) {
          Xptr ref = TextPayloadOf(d)->text_ref;
          if (ref && text_pages.count(ref.PageBase().raw) == 0) {
            return ValidationError(
                name_, "descriptor " + block.ToString() + "#" +
                           std::to_string(slot) + " references text " +
                           ref.ToString() +
                           " outside the document's text pages");
          }
        }
        prev = slot;
        slot = d->next_in_block;
        ++walked;
      }
      if (walked != h->count || prev != h->last_slot) {
        return ValidationError(
            name_, "in-block chain of " + block.ToString() + " walks " +
                       std::to_string(walked) + " slots, header says " +
                       std::to_string(h->count));
      }
      // Walk the free-slot chain: disjoint from live, covers the rest.
      std::vector<bool> freed(h->high_water, false);
      slot = h->free_head;
      uint16_t free_walked = 0;
      while (slot != kNoSlot) {
        if (slot >= h->high_water || live[slot] || freed[slot]) {
          return ValidationError(
              name_, "free-slot chain of " + block.ToString() +
                         " is out of range, cyclic, or overlaps live slots "
                         "at slot " +
                         std::to_string(slot));
        }
        freed[slot] = true;
        slot = DescriptorAt(const_cast<uint8_t*>(page), slot)->next_in_block;
        ++free_walked;
      }
      if (static_cast<uint32_t>(walked) + free_walked != h->high_water) {
        return ValidationError(
            name_, "slots of " + block.ToString() + " leak: " +
                       std::to_string(walked) + " live + " +
                       std::to_string(free_walked) + " free != high_water " +
                       std::to_string(h->high_water));
      }
      sn_live += walked;
      expect_prev = block;
      block = h->next_block;
    }
    if (sn->last_block != expect_prev) {
      return ValidationError(name_, "last_block of schema '" + sn->Path() +
                                        "' does not match the chain tail");
    }
    if (sn_live != sn->node_count) {
      return ValidationError(
          name_, "schema '" + sn->Path() + "' counts " +
                     std::to_string(sn->node_count) + " nodes but its blocks "
                     "hold " + std::to_string(sn_live));
    }
    live_descriptors += sn_live;
  }

  // --- Entry accounting ---------------------------------------------------
  // Every entry of every indirection page is either on the free list or the
  // handle of exactly one live descriptor (handles are unique: each resolves
  // to a distinct descriptor address, checked above).
  uint64_t total_entries =
      static_cast<uint64_t>(indir_pages.size()) * kIndirEntriesPerPage;
  if (free_entries.size() + live_descriptors != total_entries) {
    return ValidationError(
        name_, "indirection entries leak: " +
                   std::to_string(free_entries.size()) + " free + " +
                   std::to_string(live_descriptors) + " live != " +
                   std::to_string(total_entries) + " total");
  }
  if (root_handle_ && !valid_entry_addr(root_handle_)) {
    return ValidationError(name_, "root handle " + root_handle_.ToString() +
                                      " lies outside the indirection pages");
  }

  // --- Value indexes ------------------------------------------------------
  // Every tree is structurally sound and every entry's handle resolves
  // through this document's indirection table.
  for (const IndexDefinition& def : indexes()) {
    BtreeIndex tree(env_, def.meta);
    SEDNA_RETURN_IF_ERROR(tree.Validate(ctx));
    std::vector<std::pair<std::string, Xptr>> entries;
    SEDNA_RETURN_IF_ERROR(tree.ScanAll(ctx, &entries));
    for (const auto& [key, handle] : entries) {
      Status resolved = indirection_.Get(ctx, handle).status();
      if (!resolved.ok()) {
        return ValidationError(name_, "index '" + def.name +
                                          "' entry handle does not resolve: " +
                                          resolved.message());
      }
    }
  }
  return Status::OK();
}

void DocumentStore::PutStorageMeta(std::string* blob) const {
  PutLengthPrefixed(blob, name_);
  PutFixed32(blob, doc_id_);
  PutFixed64(blob, root_handle_.raw);
  PutFixed64(blob, text_.head().raw);
  PutFixed64(blob, text_.fill_page().raw);
  PutFixed64(blob, indirection_.head().raw);
  PutFixed64(blob, indirection_.free_head().raw);
  PutLengthPrefixed(blob, schema_.Serialize());
}

std::string DocumentStore::SerializeMeta() const {
  std::string blob;
  PutStorageMeta(&blob);
  std::lock_guard<std::mutex> lock(indexes_mu_);
  PutVarint64(&blob, indexes_.size());
  for (const IndexDefinition& def : indexes_) {
    PutLengthPrefixed(&blob, def.name);
    PutLengthPrefixed(&blob, def.path);
    PutFixed64(&blob, def.meta.raw);
  }
  return blob;
}

Status DocumentStore::RestoreMeta(const std::string& blob) {
  Decoder d(blob);
  std::string_view name;
  uint32_t doc_id = 0;
  uint64_t root = 0, text_head = 0, text_fill = 0, ind_head = 0,
           ind_free = 0;
  std::string_view schema_blob;
  if (!d.GetLengthPrefixed(&name) || !d.GetFixed32(&doc_id) ||
      !d.GetFixed64(&root) || !d.GetFixed64(&text_head) ||
      !d.GetFixed64(&text_fill) || !d.GetFixed64(&ind_head) ||
      !d.GetFixed64(&ind_free) || !d.GetLengthPrefixed(&schema_blob)) {
    return Status::Corruption("bad document meta blob");
  }
  const std::string_view storage_meta(blob.data(), blob.size() - d.remaining());
  std::vector<IndexDefinition> indexes;
  uint64_t index_count = 0;
  if (!d.GetVarint64(&index_count)) {
    return Status::Corruption("bad document meta blob");
  }
  for (uint64_t i = 0; i < index_count; ++i) {
    std::string_view index_name, path;
    uint64_t meta = 0;
    if (!d.GetLengthPrefixed(&index_name) || !d.GetLengthPrefixed(&path) ||
        !d.GetFixed64(&meta)) {
      return Status::Corruption("truncated index definitions");
    }
    indexes.push_back(
        {std::string(index_name), std::string(path), Xptr(meta)});
  }
  // Abort restores the metadata of a document that snapshot readers walk
  // without a lock. Only a storage part that differs is written back, so
  // rolling back index DDL leaves the schema and heads they read in place.
  std::string current;
  PutStorageMeta(&current);
  if (storage_meta != current) {
    name_ = std::string(name);
    doc_id_ = doc_id;
    root_handle_ = Xptr(root);
    text_.Restore(Xptr(text_head), Xptr(text_fill));
    indirection_.Restore(Xptr(ind_head), Xptr(ind_free));
    SEDNA_RETURN_IF_ERROR(schema_.Deserialize(std::string(schema_blob)));
  }
  std::lock_guard<std::mutex> lock(indexes_mu_);
  indexes_ = std::move(indexes);
  return Status::OK();
}

}  // namespace sedna
