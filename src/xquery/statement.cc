#include "xquery/statement.h"

#include <cctype>
#include <cstdlib>
#include <iterator>

#include "common/logging.h"
#include "common/metrics.h"
#include "xquery/analyzer.h"
#include "xquery/node_ops.h"
#include "xquery/parser.h"
#include "xquery/value_index.h"

namespace sedna {

namespace {

uint64_t EnvKnob(const char* name, uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return static_cast<uint64_t>(v);
}

/// The xquery.* registry instruments, resolved once per process: one
/// counter per ExecStats::kFields entry (same order), the statement count
/// and the pipeline batch-size histogram.
struct XqueryMetrics {
  Counter* fields[std::size(ExecStats::kFields)];
  Counter* statements;
  Histogram* batch_size;
};

const XqueryMetrics& Metrics() {
  static const XqueryMetrics m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    XqueryMetrics out;
    for (size_t i = 0; i < std::size(ExecStats::kFields); ++i) {
      out.fields[i] = reg.counter(ExecStats::kFields[i].metric);
    }
    out.statements = reg.counter("xquery.statements");
    out.batch_size = reg.histogram("xquery.batch_size");
    return out;
  }();
  return m;
}

/// Folds one statement's ExecStats into the process-wide registry — once
/// per statement, not per pull, so the pipeline hot path stays untouched.
void FoldExecStatsIntoRegistry(const ExecStats& s) {
  const XqueryMetrics& m = Metrics();
  for (size_t i = 0; i < std::size(ExecStats::kFields); ++i) {
    m.fields[i]->Add(s.value(ExecStats::kFields[i]));
  }
  m.statements->Add();
}

/// Detects a leading `explain ` keyword (case-insensitive, its own token)
/// and returns the statement body after it, or an empty optional-like flag.
bool StripExplainPrefix(const std::string& text, std::string* body) {
  size_t i = text.find_first_not_of(" \t\r\n");
  if (i == std::string::npos) return false;
  constexpr const char kWord[] = "explain";
  constexpr size_t kLen = sizeof(kWord) - 1;
  if (text.size() - i <= kLen) return false;
  for (size_t k = 0; k < kLen; ++k) {
    if (std::tolower(static_cast<unsigned char>(text[i + k])) != kWord[k]) {
      return false;
    }
  }
  if (std::isspace(static_cast<unsigned char>(text[i + kLen])) == 0) {
    return false;
  }
  *body = text.substr(i + kLen + 1);
  return true;
}

/// Part one of an update plan: evaluate the target path and collect the
/// handles of the selected stored nodes.
struct UpdateTarget {
  DocumentStore* doc;
  Xptr handle;
};

StatusOr<std::vector<UpdateTarget>> SelectTargets(const Expr& target,
                                                  ExecContext& ctx) {
  SEDNA_ASSIGN_OR_RETURN(Sequence nodes, Eval(target, ctx));
  std::vector<UpdateTarget> out;
  out.reserve(nodes.size());
  for (const Item& item : nodes) {
    if (!item.is_stored_node()) {
      return Status::InvalidArgument(
          "update target must select stored nodes");
    }
    const StoredNode& n = item.stored();
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info,
                           n.doc->nodes()->Info(ctx.op, n.addr));
    out.push_back(UpdateTarget{n.doc, info.handle});
  }
  return out;
}

/// Materializes the items a source expression produced into XML trees.
StatusOr<std::vector<std::unique_ptr<XmlNode>>> MaterializeSource(
    const Sequence& source, ExecContext& ctx) {
  std::vector<std::unique_ptr<XmlNode>> out;
  for (const Item& item : source) {
    if (item.is_node()) {
      SEDNA_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> node,
                             NodeToXml(ctx.op, item));
      out.push_back(std::move(node));
    } else {
      out.push_back(XmlNode::Text(AtomicLexical(item)));
    }
  }
  return out;
}

}  // namespace

StatusOr<Xptr> InsertXmlTree(DocumentStore* doc, const OpCtx& op,
                             Xptr parent_handle, Xptr left, Xptr right,
                             const XmlNode& node, uint64_t* inserted) {
  std::string_view text =
      node.kind == XmlKind::kElement || node.kind == XmlKind::kDocument
          ? std::string_view()
          : node.value;
  SEDNA_ASSIGN_OR_RETURN(
      Xptr handle, doc->nodes()->InsertNode(op, parent_handle, left, right,
                                            node.kind, node.name, text));
  if (inserted != nullptr) (*inserted)++;
  if (node.kind == XmlKind::kElement) {
    Xptr prev;
    for (const auto& child : node.children) {
      SEDNA_ASSIGN_OR_RETURN(
          prev, InsertXmlTree(doc, op, handle, prev, kNullXptr, *child,
                              inserted));
    }
  }
  return handle;
}

StatementExecutor::StatementExecutor(StorageEngine* storage)
    : storage_(storage) {
  parallel_workers_ = static_cast<uint32_t>(
      EnvKnob("SEDNA_PARALLEL_WORKERS", parallel_workers_));
  batch_size_ =
      static_cast<size_t>(EnvKnob("SEDNA_BATCH_SIZE", batch_size_));
  if (batch_size_ == 0) batch_size_ = kDefaultBatchSize;
}

Status StatementExecutor::NotifyUpdate(const std::string& text) {
  // Statement-level WAL: log the statement before its first page mutation.
  if (update_listener_) return update_listener_(text);
  return Status::OK();
}

StatusOr<StatementResult> StatementExecutor::Execute(
    const std::string& text, const OpCtx& op, const RewriteOptions& options) {
  std::string body;
  bool explain = StripExplainPrefix(text, &body);
  const std::string& stmt_text = explain ? body : text;
  SEDNA_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt,
                         ParseStatement(stmt_text));
  SEDNA_RETURN_IF_ERROR(Analyze(*stmt));
  SEDNA_RETURN_IF_ERROR(Rewrite(stmt.get(), options));
  SEDNA_ASSIGN_OR_RETURN(
      StatementResult result,
      ExecuteParsed(stmt.get(), op, stmt_text, /*profile=*/explain));
  if (explain) {
    // EXPLAIN returns the annotated plan tree as the statement's result
    // text (the statement still ran; updates take effect as usual).
    result.serialized = result.profile_text;
    if (result_sink_) {
      SEDNA_RETURN_IF_ERROR(result_sink_(result.profile_text));
    }
  }
  return result;
}

StatusOr<StatementResult> StatementExecutor::ExecuteParsed(
    Statement* stmt, const OpCtx& op, const std::string& text, bool profile) {
  ExecContext ctx;
  ctx.storage = storage_;
  ctx.op = op;
  ctx.prolog = &stmt->prolog;
  ctx.on_doc_access = doc_access_hook_;
  ctx.doc_access_exclusive = stmt->kind != StatementKind::kQuery;
  ctx.indexes = indexes_;
  ctx.enable_streaming = streaming_enabled_;
  ctx.query = query_;
  ctx.batch_size = batch_size_;
  ctx.parallel_workers = parallel_workers_;
  std::shared_ptr<ProfileNode> profile_root;
  if (profile || profile_enabled_) {
    // Label left empty: the renderer treats an unlabeled root as synthetic
    // and prints its children at depth 0.
    profile_root = std::make_shared<ProfileNode>();
    ctx.profile = profile_root.get();
  }
  StatusOr<StatementResult> out = RunParsed(stmt, ctx, text);
  if (out.ok()) {
    FoldExecStatsIntoRegistry(out->stats);
    if (profile_root != nullptr) {
      out->profile = profile_root;
      out->profile_text = RenderProfileTree(*profile_root);
      if (query_ != nullptr) {
        // Budget usage rides along with the plan tree so EXPLAIN shows how
        // close the statement came to its governance limits.
        out->profile_text += "governor: peak " +
                             std::to_string(query_->peak_bytes()) +
                             " B of budget ";
        out->profile_text += query_->memory_budget() == 0
                                 ? std::string("unlimited")
                                 : std::to_string(query_->memory_budget()) +
                                       " B";
        out->profile_text +=
            ", " + std::to_string(query_->ticks()) + " governed pulls\n";
      }
    }
  }
  return out;
}

StatusOr<StatementResult> StatementExecutor::RunParsed(
    Statement* stmt, ExecContext& ctx, const std::string& text) {
  const OpCtx& op = ctx.op;
  StatementResult result;
  result.kind = stmt->kind;
  ctx.stats = &result.stats;
  // ctx outlives this frame's (and each Run*'s) result: clear the pointer
  // on every way out.
  struct ClearStats {
    ExecContext& ctx;
    ~ClearStats() { ctx.stats = nullptr; }
  } clear_stats{ctx};

  // Evaluate prolog global variables in declaration order.
  for (const auto& [name, expr] : stmt->prolog.variables) {
    SEDNA_ASSIGN_OR_RETURN(Sequence value, Eval(*expr, ctx));
    ctx.vars[name] = std::move(value);
  }

  switch (stmt->kind) {
    case StatementKind::kQuery:
      return RunQuery(*stmt, ctx);
    case StatementKind::kUpdateInsert:
      return RunInsert(*stmt, ctx, text);
    case StatementKind::kUpdateDelete:
      return RunDelete(*stmt, ctx, text);
    case StatementKind::kUpdateReplace:
      return RunReplace(*stmt, ctx, text);
    case StatementKind::kCreateDocument: {
      if (ctx.on_doc_access) {
        SEDNA_RETURN_IF_ERROR(ctx.on_doc_access(stmt->doc_name, true));
      }
      SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));
      SEDNA_ASSIGN_OR_RETURN(DocumentStore * doc,
                             storage_->CreateDocument(op, stmt->doc_name));
      (void)doc;
      result.affected = 1;
      return result;
    }
    case StatementKind::kDropDocument:
      if (ctx.on_doc_access) {
        SEDNA_RETURN_IF_ERROR(ctx.on_doc_access(stmt->doc_name, true));
      }
      SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));
      // Frees the document's index trees too; their definitions go with
      // its metadata.
      SEDNA_RETURN_IF_ERROR(storage_->DropDocument(op, stmt->doc_name));
      result.affected = 1;
      return result;
    case StatementKind::kCreateIndex: {
      if (indexes_ == nullptr) {
        return Status::FailedPrecondition("no index manager configured");
      }
      // The defining path must start with doc('name').
      const Expr* input = stmt->target->kind == ExprKind::kPath
                              ? stmt->target->children[0].get()
                              : stmt->target.get();
      if (input->kind != ExprKind::kFunctionCall || input->str_val != "doc" ||
          input->children.size() != 1 ||
          input->children[0]->kind != ExprKind::kLiteralString) {
        return Status::InvalidArgument(
            "an index path must start with doc('name')");
      }
      std::string doc = input->children[0]->str_val;
      if (ctx.on_doc_access) {
        SEDNA_RETURN_IF_ERROR(ctx.on_doc_access(doc, true));
      }
      SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));
      SEDNA_RETURN_IF_ERROR(
          indexes_->Create(op, stmt->index_name, doc, stmt->path_text));
      result.affected = 1;
      return result;
    }
    case StatementKind::kDropIndex: {
      if (indexes_ == nullptr) {
        return Status::FailedPrecondition("no index manager configured");
      }
      SEDNA_ASSIGN_OR_RETURN(std::string doc,
                             indexes_->DocumentOf(stmt->index_name));
      if (ctx.on_doc_access) {
        SEDNA_RETURN_IF_ERROR(ctx.on_doc_access(doc, true));
      }
      SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));
      SEDNA_ASSIGN_OR_RETURN(DocumentStore * store,
                             storage_->GetDocument(doc));
      SEDNA_RETURN_IF_ERROR(store->DropIndex(op, stmt->index_name));
      result.affected = 1;
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<StatementResult> StatementExecutor::RunQuery(const Statement& stmt,
                                                      ExecContext& ctx) {
  StatementResult result;
  result.kind = StatementKind::kQuery;
  ctx.stats = &result.stats;
  // Pull the result pipeline in batches, serializing incrementally: with a
  // result sink attached each item still becomes its own chunk (clients see
  // the same incremental delivery) and the full result never exists in
  // memory.
  SEDNA_ASSIGN_OR_RETURN(StreamPtr out, EvalStream(*stmt.expr, ctx));
  IncrementalSerializer ser(ctx.op);
  // Without a sink the result text accumulates in memory: charge it against
  // the statement's budget while it builds (released when the reservation
  // dies — the caller owns the result from then on).
  MemoryReservation reservation(ctx.query);
  ItemBatch batch;
  Histogram* batch_hist = Metrics().batch_size;
  for (;;) {
    SEDNA_ASSIGN_OR_RETURN(bool got,
                           PullBatch(ctx, out.get(), &batch, ctx.batch_size));
    if (!got) break;
    batch_hist->Record(batch.size());
    for (Item& item : batch) {
      if (result_sink_) {
        std::string chunk;
        SEDNA_RETURN_IF_ERROR(ser.Append(item, &chunk));
        SEDNA_RETURN_IF_ERROR(result_sink_(chunk));
      } else {
        size_t before = result.serialized.size();
        SEDNA_RETURN_IF_ERROR(ser.Append(item, &result.serialized));
        SEDNA_RETURN_IF_ERROR(
            reservation.Grow(result.serialized.size() - before));
      }
    }
  }
  return result;
}

StatusOr<StatementResult> StatementExecutor::RunInsert(
    const Statement& stmt, ExecContext& ctx, const std::string& text) {
  StatementResult result;
  result.kind = stmt.kind;
  ctx.stats = &result.stats;

  SEDNA_ASSIGN_OR_RETURN(std::vector<UpdateTarget> targets,
                         SelectTargets(*stmt.target, ctx));
  SEDNA_ASSIGN_OR_RETURN(Sequence source, Eval(*stmt.expr, ctx));
  SEDNA_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<XmlNode>> trees,
                         MaterializeSource(source, ctx));
  SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));

  for (const UpdateTarget& target : targets) {
    // Index maintenance brackets the mutation: the ancestor chain whose
    // string value the insert changes starts at the target itself for
    // `into` (new children concatenate into its value) and at the shared
    // parent for sibling modes.
    Xptr anchor = target.handle;
    if (stmt.insert_mode != InsertMode::kInto) {
      SEDNA_ASSIGN_OR_RETURN(
          NodeInfo info,
          target.doc->nodes()->InfoByHandle(ctx.op, target.handle));
      if (!info.parent_handle) {
        return Status::InvalidArgument(
            "cannot insert a sibling of the document node");
      }
      anchor = info.parent_handle;
    }
    ValueIndexManager::PendingMaintenance pending;
    if (indexes_ != nullptr) {
      SEDNA_RETURN_IF_ERROR(indexes_->PreUpdate(ctx.op, target.doc, kNullXptr,
                                                anchor, &pending));
    }
    std::vector<Xptr> inserted_roots;
    switch (stmt.insert_mode) {
      case InsertMode::kInto: {
        // Append each tree as the new last child, in sequence order.
        for (const auto& tree : trees) {
          SEDNA_ASSIGN_OR_RETURN(
              Xptr inserted,
              InsertXmlTree(target.doc, ctx.op, target.handle, kNullXptr,
                            kNullXptr, *tree, &result.affected));
          inserted_roots.push_back(inserted);
        }
        break;
      }
      case InsertMode::kFollowing:
      case InsertMode::kPreceding: {
        if (stmt.insert_mode == InsertMode::kFollowing) {
          Xptr left = target.handle;
          for (const auto& tree : trees) {
            SEDNA_ASSIGN_OR_RETURN(
                left, InsertXmlTree(target.doc, ctx.op, anchor, left,
                                    kNullXptr, *tree, &result.affected));
            inserted_roots.push_back(left);
          }
        } else {
          Xptr right = target.handle;
          // Insert in order, each immediately before the target.
          Xptr left;
          for (const auto& tree : trees) {
            SEDNA_ASSIGN_OR_RETURN(
                left, InsertXmlTree(target.doc, ctx.op, anchor, left, right,
                                    *tree, &result.affected));
            inserted_roots.push_back(left);
          }
        }
        break;
      }
    }
    if (indexes_ != nullptr) {
      SEDNA_RETURN_IF_ERROR(
          indexes_->PostUpdate(ctx.op, inserted_roots, &pending));
    }
  }
  return result;
}

StatusOr<StatementResult> StatementExecutor::RunDelete(
    const Statement& stmt, ExecContext& ctx, const std::string& text) {
  StatementResult result;
  result.kind = stmt.kind;
  ctx.stats = &result.stats;
  SEDNA_ASSIGN_OR_RETURN(std::vector<UpdateTarget> targets,
                         SelectTargets(*stmt.target, ctx));
  SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));
  for (const UpdateTarget& target : targets) {
    StatusOr<NodeInfo> info =
        target.doc->nodes()->InfoByHandle(ctx.op, target.handle);
    if (info.status().code() == StatusCode::kNotFound) {
      continue;  // an ancestor in the target list already removed it
    }
    SEDNA_RETURN_IF_ERROR(info.status());
    if (info->kind == XmlKind::kDocument) {
      return Status::InvalidArgument(
          "cannot delete the document node; use DROP DOCUMENT");
    }
    // Erase index entries while the subtree's values are still readable;
    // the parent chain's concatenated values shrink, so it re-keys too.
    ValueIndexManager::PendingMaintenance pending;
    if (indexes_ != nullptr) {
      SEDNA_RETURN_IF_ERROR(indexes_->PreUpdate(
          ctx.op, target.doc, target.handle, info->parent_handle, &pending));
    }
    SEDNA_RETURN_IF_ERROR(
        target.doc->nodes()->DeleteSubtree(ctx.op, target.handle));
    if (indexes_ != nullptr) {
      SEDNA_RETURN_IF_ERROR(indexes_->PostUpdate(ctx.op, {}, &pending));
    }
    result.affected++;
  }
  return result;
}

StatusOr<StatementResult> StatementExecutor::RunReplace(
    const Statement& stmt, ExecContext& ctx, const std::string& text) {
  StatementResult result;
  result.kind = stmt.kind;
  ctx.stats = &result.stats;
  SEDNA_ASSIGN_OR_RETURN(std::vector<UpdateTarget> targets,
                         SelectTargets(*stmt.target, ctx));
  SEDNA_RETURN_IF_ERROR(NotifyUpdate(text));
  for (const UpdateTarget& target : targets) {
    SEDNA_ASSIGN_OR_RETURN(
        NodeInfo info,
        target.doc->nodes()->InfoByHandle(ctx.op, target.handle));
    if (!info.parent_handle) {
      return Status::InvalidArgument("cannot replace the document node");
    }
    // Bind $var to the node being replaced and evaluate the replacement.
    Sequence saved = std::move(ctx.vars[stmt.var]);
    ctx.vars[stmt.var] = Sequence{Item(StoredNode{target.doc, info.addr})};
    StatusOr<Sequence> with = Eval(*stmt.expr, ctx);
    ctx.vars[stmt.var] = std::move(saved);
    if (!with.ok()) return with.status();
    SEDNA_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<XmlNode>> trees,
                           MaterializeSource(*with, ctx));
    // One bracket covers both halves of the replace: the old subtree's
    // entries go before it is deleted, the new trees' entries land in
    // PostUpdate, and the parent chain re-keys once.
    ValueIndexManager::PendingMaintenance pending;
    if (indexes_ != nullptr) {
      SEDNA_RETURN_IF_ERROR(indexes_->PreUpdate(
          ctx.op, target.doc, target.handle, info.parent_handle, &pending));
    }
    std::vector<Xptr> inserted_roots;
    Xptr left = target.handle;
    for (const auto& tree : trees) {
      SEDNA_ASSIGN_OR_RETURN(
          left, InsertXmlTree(target.doc, ctx.op, info.parent_handle, left,
                              kNullXptr, *tree, &result.affected));
      inserted_roots.push_back(left);
    }
    SEDNA_RETURN_IF_ERROR(
        target.doc->nodes()->DeleteSubtree(ctx.op, target.handle));
    if (indexes_ != nullptr) {
      SEDNA_RETURN_IF_ERROR(
          indexes_->PostUpdate(ctx.op, inserted_roots, &pending));
    }
    result.affected++;
  }
  return result;
}

}  // namespace sedna
