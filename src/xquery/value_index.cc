#include "xquery/value_index.h"

#include <algorithm>

#include "xquery/analyzer.h"
#include "xquery/node_ops.h"
#include "xquery/parser.h"
#include "xquery/rewriter.h"

namespace sedna {

namespace {

/// XDM string value of the stored node at `addr`.
StatusOr<std::string> NodeValueOf(const OpCtx& op, DocumentStore* doc,
                                  Xptr addr) {
  return NodeStringValue(op, Item(StoredNode{doc, addr}));
}

/// Collects the NodeInfo of every node in the subtree rooted at `root_addr`
/// (the root included), attributes included.
Status CollectSubtree(const OpCtx& op, DocumentStore* doc, Xptr root_addr,
                      std::vector<NodeInfo>* out) {
  std::vector<Xptr> stack{root_addr};
  while (!stack.empty()) {
    Xptr addr = stack.back();
    stack.pop_back();
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info, doc->nodes()->Info(op, addr));
    out->push_back(info);
    if (info.kind == XmlKind::kElement || info.kind == XmlKind::kDocument) {
      SEDNA_ASSIGN_OR_RETURN(Xptr child, doc->nodes()->FirstChild(op, addr));
      while (child) {
        stack.push_back(child);
        SEDNA_ASSIGN_OR_RETURN(NodeInfo ci, doc->nodes()->Info(op, child));
        child = ci.right_sibling;
      }
    }
  }
  return Status::OK();
}

/// Lowers a definition path to a path-summary pattern: empty when the path
/// is not a predicate-free run of child / attribute / descendant steps.
/// The rewriter has already combined every `//x` into one descendant step.
std::vector<SummaryStep> LowerDefinition(const std::string& path_text) {
  StatusOr<ExprPtr> parsed = ParseExpression(path_text);
  if (!parsed.ok() || !RewriteExpr(parsed->get(), nullptr).ok()) return {};
  const Expr& path = **parsed;
  if (path.kind != ExprKind::kPath || path.str_val == "filter") return {};
  for (const Step& step : path.steps) {
    if (!step.predicates.empty()) return {};
  }
  std::vector<SummaryStep> steps;
  if (!LowerSummarySteps(path.steps, 0, path.steps.size(), &steps)) return {};
  return steps;
}

}  // namespace

ValueIndexManager::ValueIndexManager(StorageEngine* storage)
    : storage_(storage),
      rebuilds_(MetricsRegistry::Global().counter("index.rebuilds")),
      maintenance_ops_(
          MetricsRegistry::Global().counter("index.maintenance_ops")) {}

bool ValueIndexManager::Covered(DocumentStore* doc, const IndexDefinition& def,
                                std::vector<uint32_t>* covered) {
  std::lock_guard<std::mutex> lock(mu_);
  Derived& d = derived_[def.name];
  if (d.path != def.path) {
    d = Derived{def.path, LowerDefinition(def.path), {}, 0};
  }
  if (d.steps.empty()) return false;
  const uint64_t version = doc->schema()->version();
  if (d.covered_version != version) {
    d.covered.clear();
    for (const SchemaNode* sn : doc->summary()->Resolve(d.steps)) {
      d.covered.push_back(sn->id);
    }
    std::sort(d.covered.begin(), d.covered.end());
    d.covered_version = version;
  }
  *covered = d.covered;
  return true;
}

Status ValueIndexManager::Create(const OpCtx& op, const std::string& name,
                                 const std::string& doc,
                                 const std::string& path_text) {
  // Validate the path now so CREATE INDEX fails fast on bad definitions.
  SEDNA_ASSIGN_OR_RETURN(ExprPtr parsed, ParseExpression(path_text));
  SEDNA_RETURN_IF_ERROR(AnalyzeExpr(*parsed, nullptr, {}));
  SEDNA_ASSIGN_OR_RETURN(DocumentStore * store, storage_->GetDocument(doc));
  // The name check and the insert are one step, so two statements creating
  // one name on different documents cannot both succeed.
  std::lock_guard<std::mutex> lock(mu_);
  if (DocumentOf(name).ok()) {
    return Status::AlreadyExists("index '" + name + "' already exists");
  }
  IndexDefinition def{name, path_text, Xptr()};
  SEDNA_RETURN_IF_ERROR(Build(op, &def));
  store->PutIndex(std::move(def));
  return Status::OK();
}

StatusOr<std::string> ValueIndexManager::DocumentOf(
    const std::string& name) const {
  for (const std::string& doc_name : storage_->DocumentNames()) {
    StatusOr<DocumentStore*> doc = storage_->GetDocument(doc_name);
    if (doc.ok() && (*doc)->FindIndex(name).has_value()) return doc_name;
  }
  return Status::NotFound("index '" + name + "' does not exist");
}

Status ValueIndexManager::Build(const OpCtx& op, IndexDefinition* def) {
  SEDNA_ASSIGN_OR_RETURN(ExprPtr path, ParseExpression(def->path));
  SEDNA_RETURN_IF_ERROR(RewriteExpr(path.get(), nullptr));
  ExecContext ctx;
  ctx.storage = storage_;
  ctx.op = op;
  SEDNA_ASSIGN_OR_RETURN(Sequence nodes, Eval(*path, ctx));
  for (const Item& item : nodes) {
    if (!item.is_stored_node()) {
      return Status::InvalidArgument("index path must select stored nodes");
    }
  }
  StorageEnv* env = storage_->env();
  SEDNA_ASSIGN_OR_RETURN(Xptr meta, BtreeIndex::Create(env, op));
  BtreeIndex tree(env, meta);
  for (const Item& item : nodes) {
    const StoredNode& n = item.stored();
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info, n.doc->nodes()->Info(op, n.addr));
    SEDNA_ASSIGN_OR_RETURN(std::string key, NodeStringValue(op, item));
    SEDNA_RETURN_IF_ERROR(tree.Insert(op, key, info.handle));
  }
  def->meta = meta;
  rebuilds_->Add();
  return Status::OK();
}

StatusOr<Sequence> ValueIndexManager::Lookup(const OpCtx& op,
                                             const std::string& doc_name,
                                             const std::string& name,
                                             const std::string& key) {
  SEDNA_ASSIGN_OR_RETURN(DocumentStore * doc,
                         storage_->GetDocument(doc_name));
  std::optional<IndexDefinition> def = doc->FindIndex(name);
  if (!def.has_value()) {
    return Status::NotFound("index '" + name + "' does not exist");
  }
  std::vector<Xptr> handles;
  SEDNA_RETURN_IF_ERROR(
      BtreeIndex(storage_->env(), def->meta).ScanEqual(op, key, &handles));
  const bool verify = key.size() >= kBtreeMaxKeyBytes;
  Sequence out;
  for (Xptr handle : handles) {
    // Handles survive node moves; resolve to the current direct pointer.
    SEDNA_ASSIGN_OR_RETURN(Xptr addr, doc->indirection()->Get(op, handle));
    if (verify) {
      SEDNA_ASSIGN_OR_RETURN(std::string value, NodeValueOf(op, doc, addr));
      if (value != key) continue;  // prefix collision on a truncated key
    }
    out.push_back(Item(StoredNode{doc, addr}));
  }
  // index-lookup() results are document-ordered and duplicate-free, like
  // every other node-sequence-producing operation.
  SEDNA_RETURN_IF_ERROR(DistinctDocOrder(op, &out));
  return out;
}

bool ValueIndexManager::FindIndexFor(
    const OpCtx& op, DocumentStore* doc,
    const std::vector<uint32_t>& value_schema_ids, IndexPlan* plan) {
  if (value_schema_ids.empty()) return false;
  bool found = false;
  std::vector<uint32_t> covered;
  for (const IndexDefinition& def : doc->indexes()) {
    if (!Covered(doc, def, &covered) ||
        !std::includes(covered.begin(), covered.end(),
                       value_schema_ids.begin(), value_schema_ids.end())) {
      continue;
    }
    StatusOr<BtreeIndex::Stats> stats =
        BtreeIndex(storage_->env(), def.meta).GetStats(op);
    if (!stats.ok()) continue;
    uint64_t est =
        stats->entry_count / std::max<uint64_t>(1, stats->distinct_keys);
    if (!found || est < plan->est_rows) {
      plan->name = def.name;
      plan->meta = def.meta;
      plan->entry_count = stats->entry_count;
      plan->distinct_keys = stats->distinct_keys;
      plan->est_rows = est;
      found = true;
    }
  }
  return found;
}

StatusOr<Sequence> ValueIndexManager::ExecuteIndexScan(
    const OpCtx& op, DocumentStore* doc, const IndexPlan& plan,
    const std::string& key, const std::vector<uint32_t>& value_schema_ids,
    int parent_hops) {
  std::vector<Xptr> handles;
  SEDNA_RETURN_IF_ERROR(
      BtreeIndex(storage_->env(), plan.meta).ScanEqual(op, key, &handles));
  const bool verify = key.size() >= kBtreeMaxKeyBytes;
  Sequence out;
  for (Xptr handle : handles) {
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info,
                           doc->nodes()->InfoByHandle(op, handle));
    // The index may cover more schema nodes than this query's predicate
    // reaches; keep only value nodes on the query's paths.
    if (!std::binary_search(value_schema_ids.begin(), value_schema_ids.end(),
                            info.schema_id)) {
      continue;
    }
    if (verify) {
      SEDNA_ASSIGN_OR_RETURN(std::string value,
                             NodeValueOf(op, doc, info.addr));
      if (value != key) continue;
    }
    // The value node's schema node fixes its whole ancestor chain (the
    // schema is a tree), so hopping up the relative path's length lands on
    // exactly the step the predicate qualified.
    for (int hop = 0; hop < parent_hops; ++hop) {
      if (!info.parent_handle) {
        return Status::Internal("index scan walked past the document root");
      }
      SEDNA_ASSIGN_OR_RETURN(
          info, doc->nodes()->InfoByHandle(op, info.parent_handle));
    }
    out.push_back(Item(StoredNode{doc, info.addr}));
  }
  SEDNA_RETURN_IF_ERROR(DistinctDocOrder(op, &out));
  return out;
}

Status ValueIndexManager::MaintainSubtree(const OpCtx& op, BtreeIndex* tree,
                                          const std::vector<uint32_t>& covered,
                                          DocumentStore* doc, Xptr root_handle,
                                          bool insert) {
  SEDNA_ASSIGN_OR_RETURN(Xptr root_addr,
                         doc->indirection()->Get(op, root_handle));
  std::vector<NodeInfo> nodes;
  SEDNA_RETURN_IF_ERROR(CollectSubtree(op, doc, root_addr, &nodes));
  for (const NodeInfo& info : nodes) {
    if (!std::binary_search(covered.begin(), covered.end(), info.schema_id)) {
      continue;
    }
    SEDNA_ASSIGN_OR_RETURN(std::string value, NodeValueOf(op, doc, info.addr));
    if (insert) {
      SEDNA_RETURN_IF_ERROR(tree->Insert(op, value, info.handle));
    } else {
      SEDNA_RETURN_IF_ERROR(tree->Erase(op, value, info.handle));
    }
  }
  return Status::OK();
}

Status ValueIndexManager::PreUpdate(const OpCtx& op, DocumentStore* doc,
                                    Xptr subtree_handle, Xptr ancestor_handle,
                                    PendingMaintenance* pending) {
  pending->doc = doc;
  std::vector<uint32_t> covered;
  for (const IndexDefinition& def : doc->indexes()) {
    if (!Covered(doc, def, &covered)) continue;  // rebuilt in PostUpdate
    BtreeIndex tree(storage_->env(), def.meta);
    if (subtree_handle) {
      SEDNA_RETURN_IF_ERROR(MaintainSubtree(op, &tree, covered, doc,
                                            subtree_handle, /*insert=*/false));
    }
    // Remove covered ancestors under their OLD string values; PostUpdate
    // re-adds them keyed by the post-mutation values.
    for (Xptr h = ancestor_handle; h;) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo info, doc->nodes()->InfoByHandle(op, h));
      if (std::binary_search(covered.begin(), covered.end(),
                             info.schema_id)) {
        SEDNA_ASSIGN_OR_RETURN(std::string value,
                               NodeValueOf(op, doc, info.addr));
        SEDNA_RETURN_IF_ERROR(tree.Erase(op, value, h));
        pending->ancestors.emplace_back(def.name, h);
      }
      h = info.parent_handle;
    }
  }
  return Status::OK();
}

Status ValueIndexManager::PostUpdate(const OpCtx& op,
                                     const std::vector<Xptr>& new_subtrees,
                                     PendingMaintenance* pending) {
  DocumentStore* doc = pending->doc;
  if (doc == nullptr) return Status::OK();
  std::vector<uint32_t> covered;
  for (IndexDefinition& def : doc->indexes()) {
    if (!Covered(doc, def, &covered)) {
      // Not structural: rebuild over the updated document, in this
      // statement's transaction.
      BtreeIndex old(storage_->env(), def.meta);
      SEDNA_RETURN_IF_ERROR(Build(op, &def));
      SEDNA_RETURN_IF_ERROR(old.Destroy(op));
      doc->PutIndex(def);
      continue;
    }
    // The insert may have grown the schema; Covered re-resolved the set
    // before the new nodes are classified.
    BtreeIndex tree(storage_->env(), def.meta);
    for (Xptr root : new_subtrees) {
      SEDNA_RETURN_IF_ERROR(
          MaintainSubtree(op, &tree, covered, doc, root, /*insert=*/true));
    }
    for (const auto& [index, handle] : pending->ancestors) {
      if (index != def.name) continue;
      SEDNA_ASSIGN_OR_RETURN(NodeInfo info,
                             doc->nodes()->InfoByHandle(op, handle));
      SEDNA_ASSIGN_OR_RETURN(std::string value,
                             NodeValueOf(op, doc, info.addr));
      SEDNA_RETURN_IF_ERROR(tree.Insert(op, value, handle));
    }
    maintenance_ops_->Add();
  }
  pending->ancestors.clear();
  pending->doc = nullptr;
  return Status::OK();
}

}  // namespace sedna
