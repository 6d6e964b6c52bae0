// Statement execution: ties together parser -> static analyzer ->
// optimizing rewriter -> executor (paper Section 5), and implements the
// XUpdate-style statements as two-part plans: part one selects the target
// nodes (direct pointers), part two mutates them through node handles
// (Section 5.2: "the updated nodes are referred to by node handles").

#ifndef SEDNA_XQUERY_STATEMENT_H_
#define SEDNA_XQUERY_STATEMENT_H_

#include <functional>
#include <string>
#include <string_view>

#include <memory>

#include "storage/storage_engine.h"
#include "xquery/executor.h"
#include "xquery/profile.h"
#include "xquery/rewriter.h"
#include "xquery/value_index.h"

namespace sedna {

struct StatementResult {
  StatementKind kind = StatementKind::kQuery;
  std::string serialized;  // serialized query results
  uint64_t affected = 0;   // nodes inserted/deleted/replaced, docs created
  ExecStats stats;
  // Set when the statement ran in profile mode (EXPLAIN prefix or
  // set_profile_enabled): the per-operator plan tree and its rendering.
  // shared_ptr keeps the result copyable.
  std::shared_ptr<ProfileNode> profile;
  std::string profile_text;
  bool is_update() const { return kind != StatementKind::kQuery; }
};

class StatementExecutor {
 public:
  /// The SEDNA_PARALLEL_WORKERS and SEDNA_BATCH_SIZE environment variables
  /// seed the corresponding knobs, so whole test/bench suites can run a
  /// configuration matrix without touching call sites.
  explicit StatementExecutor(StorageEngine* storage);

  /// Called with the statement text just before an update statement's
  /// mutations are applied — the transaction layer logs it to the WAL.
  void set_update_listener(std::function<Status(const std::string&)> fn) {
    update_listener_ = std::move(fn);
  }

  /// Called for every named document the statement touches; the session
  /// layer acquires the document lock here.
  void set_doc_access_hook(
      std::function<Status(const std::string&, bool exclusive)> fn) {
    doc_access_hook_ = std::move(fn);
  }

  /// Wires the value-index manager (index DDL and index-lookup()).
  void set_index_manager(ValueIndexManager* indexes) { indexes_ = indexes; }

  /// Incremental result delivery: when set, each query result item is
  /// serialized and handed to the sink as the pull pipeline produces it,
  /// and StatementResult.serialized stays empty — the full result is
  /// never held in memory. A non-OK status from the sink aborts the query.
  void set_result_sink(std::function<Status(std::string_view)> fn) {
    result_sink_ = std::move(fn);
  }

  /// Toggles the pull-based pipeline (on by default); benchmarks switch it
  /// off to measure the eager baseline.
  void set_streaming_enabled(bool on) { streaming_enabled_ = on; }

  /// Profiles every statement (per-operator pulls/rows/time recorded into
  /// StatementResult::profile). A statement can also opt in individually
  /// with a leading `explain ` keyword, which additionally returns the
  /// rendered plan tree as the statement's serialized result.
  void set_profile_enabled(bool on) { profile_enabled_ = on; }

  /// Per-statement resource governance (deadline / cancellation / memory
  /// budget). The session layer points this at the current statement's
  /// QueryContext before executing and clears it afterwards; null runs the
  /// statement ungoverned. Not owned.
  void set_query_context(QueryContext* query) { query_ = query; }

  /// Worker threads a morsel exchange may use for eligible path scans
  /// (<= 1 = serial, the default unless SEDNA_PARALLEL_WORKERS is set).
  void set_parallel_workers(uint32_t n) { parallel_workers_ = n; }
  uint32_t parallel_workers() const { return parallel_workers_; }

  /// Items per pipeline batch on full-drain paths (0 = the built-in
  /// default; early-exit consumers always use 1 regardless).
  void set_batch_size(size_t n) {
    batch_size_ = n == 0 ? kDefaultBatchSize : n;
  }
  size_t batch_size() const { return batch_size_; }

  /// Parses, analyzes, rewrites and executes one statement. A leading
  /// `explain ` (case-insensitive) runs the remaining statement in profile
  /// mode and returns the annotated plan tree.
  StatusOr<StatementResult> Execute(const std::string& text, const OpCtx& op,
                                    const RewriteOptions& options = {});

  /// Executes an already-parsed statement (used by recovery replay and by
  /// benchmarks that pre-parse). `profile` forces profile mode for this
  /// statement.
  StatusOr<StatementResult> ExecuteParsed(Statement* stmt, const OpCtx& op,
                                          const std::string& original_text,
                                          bool profile = false);

 private:
  StatusOr<StatementResult> RunParsed(Statement* stmt, ExecContext& ctx,
                                      const std::string& text);
  StatusOr<StatementResult> RunQuery(const Statement& stmt, ExecContext& ctx);
  StatusOr<StatementResult> RunInsert(const Statement& stmt, ExecContext& ctx,
                                      const std::string& text);
  StatusOr<StatementResult> RunDelete(const Statement& stmt, ExecContext& ctx,
                                      const std::string& text);
  StatusOr<StatementResult> RunReplace(const Statement& stmt,
                                       ExecContext& ctx,
                                       const std::string& text);
  Status NotifyUpdate(const std::string& text);

  StorageEngine* storage_;
  std::function<Status(const std::string&)> update_listener_;
  std::function<Status(const std::string&, bool)> doc_access_hook_;
  std::function<Status(std::string_view)> result_sink_;
  ValueIndexManager* indexes_ = nullptr;
  bool streaming_enabled_ = true;
  bool profile_enabled_ = false;
  QueryContext* query_ = nullptr;
  uint32_t parallel_workers_ = 1;
  size_t batch_size_ = kDefaultBatchSize;
};

/// Recursively inserts a transient XML tree as a node under
/// `parent_handle`, between `left` and `right` (handles, may be null).
/// Returns the handle of the inserted root and counts inserted nodes.
StatusOr<Xptr> InsertXmlTree(DocumentStore* doc, const OpCtx& op,
                             Xptr parent_handle, Xptr left, Xptr right,
                             const XmlNode& node, uint64_t* inserted);

}  // namespace sedna

#endif  // SEDNA_XQUERY_STATEMENT_H_
