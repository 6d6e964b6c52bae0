// XQuery evaluation engine over the storage system (paper Section 5.2).
//
// Intermediate results are sequences of items; node items reference stored
// nodes by direct pointer. Since the pull-based pipeline refactor the
// primary evaluation entry point is EvalStream(): physical operations are
// open/next/close iterators (xquery/stream.h) that pull from their inputs
// one item at a time, so positional predicates, exists()/empty(), effective
// boolean value tests and quantified expressions stop the upstream pipeline
// after O(1) items. Eval() drains the stream for callers that need a
// materialized Sequence. Path steps are evaluated axis-by-axis with an
// explicit distinct-document-order (DDO) operation after each step — unless
// the optimizing rewriter proved it redundant (Section 5.1.1); an executed
// DDO is the pipeline's materialization barrier. Structural path fragments
// marked by the rewriter are executed directly over the in-memory
// descriptive schema (Section 5.1.4). Element constructors avoid deep
// copies when marked virtual (Section 5.2.1).

#ifndef SEDNA_XQUERY_EXECUTOR_H_
#define SEDNA_XQUERY_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <string>

#include "storage/storage_engine.h"
#include "xquery/ast.h"
#include "xquery/item.h"
#include "xquery/node_ops.h"
#include "xquery/stream.h"

namespace sedna {

class ValueIndexManager;
class QueryContext;  // common/query_context.h
struct ProfileNode;  // xquery/profile.h

/// Execution counters consumed by tests and the benchmark harness.
///
/// The fields are atomics: ExecContext::Count used to write through a raw
/// pointer with a plain +=, which races as soon as two threads share one
/// statement's stats block (e.g. a parallelized pipeline stage, or a
/// monitoring thread snapshotting a long query). Updates and reads are
/// relaxed — each counter is an independent tally, no ordering is implied —
/// and the struct stays copyable (results are returned by value) via
/// explicit copy operations that load/store each field. kFields lists every
/// counter once, with the registry counter the statement folds it into.
struct ExecStats {
  std::atomic<uint64_t> ddo_ops{0};          // DDO operations executed
  std::atomic<uint64_t> ddo_items{0};        // items passed through DDO sort
  std::atomic<uint64_t> axis_nodes{0};       // nodes enumerated by axes
  std::atomic<uint64_t> deep_copy_nodes{0};  // nodes deep-copied
  std::atomic<uint64_t> virtual_elements{0}; // constructors answered virtually
  std::atomic<uint64_t> schema_scans{0};     // paths served from the schema
  std::atomic<uint64_t> index_scans{0};      // predicates served by an index
  // Pull-pipeline counters: these let tests assert *laziness*, not just
  // results (e.g. (//x)[1] on a 10k-match document pulls O(1) items).
  std::atomic<uint64_t> items_pulled{0};         // items delivered by batches
  std::atomic<uint64_t> early_exits{0};          // pipelines cut off early
  std::atomic<uint64_t> streams_materialized{0}; // drained at a barrier
  // Morsel-exchange counters (parallel path scans).
  std::atomic<uint64_t> morsels_dispatched{0};   // morsels run by workers
  std::atomic<uint64_t> exchange_workers{0};     // worker threads launched

  struct Field {
    std::atomic<uint64_t> ExecStats::*counter;
    const char* metric;  // registry counter name
  };
  static constexpr Field kFields[] = {
      {&ExecStats::ddo_ops, "xquery.ddo_ops"},
      {&ExecStats::ddo_items, "xquery.ddo_items"},
      {&ExecStats::axis_nodes, "xquery.axis_nodes"},
      {&ExecStats::deep_copy_nodes, "xquery.deep_copy_nodes"},
      {&ExecStats::virtual_elements, "xquery.virtual_elements"},
      {&ExecStats::schema_scans, "xquery.schema_scans"},
      {&ExecStats::index_scans, "xquery.index_scans"},
      {&ExecStats::items_pulled, "xquery.items_pulled"},
      {&ExecStats::early_exits, "xquery.early_exits"},
      {&ExecStats::streams_materialized, "xquery.streams_materialized"},
      {&ExecStats::morsels_dispatched, "xquery.morsels_dispatched"},
      {&ExecStats::exchange_workers, "xquery.exchange_workers"},
  };

  uint64_t value(const Field& f) const {
    return (this->*f.counter).load(std::memory_order_relaxed);
  }

  ExecStats() = default;
  ExecStats(const ExecStats& other) { *this = other; }

  ExecStats& operator=(const ExecStats& other) {
    for (const Field& f : kFields) {
      (this->*f.counter).store(other.value(f), std::memory_order_relaxed);
    }
    return *this;
  }

  /// Adds every counter of `other` into this block; exchange workers use
  /// it to fold their private stats into the statement's at join time.
  void MergeFrom(const ExecStats& other) {
    for (const Field& f : kFields) {
      (this->*f.counter).fetch_add(other.value(f), std::memory_order_relaxed);
    }
  }
};

/// Dynamic evaluation context.
struct ExecContext {
  StorageEngine* storage = nullptr;
  OpCtx op;
  const Prolog* prolog = nullptr;  // user-defined functions / variables

  /// Invoked whenever the query touches a named document (doc(), DDL); the
  /// session layer acquires the S2PL document lock here. `exclusive` is
  /// true when the enclosing statement is an update.
  std::function<Status(const std::string& name, bool exclusive)>
      on_doc_access;
  bool doc_access_exclusive = false;

  /// Value indexes (may be null when the host has none configured).
  ValueIndexManager* indexes = nullptr;

  std::map<std::string, Sequence> vars;

  // Focus (context item, position, size). context_size is negative inside a
  // streamed predicate, where the size is unknown by construction; the
  // rewriter forces materialization for predicates that consult last().
  const Item* context_item = nullptr;
  int64_t context_pos = 0;
  int64_t context_size = 0;

  // Pull-based pipeline vs. eager evaluation; the eager evaluator is the
  // reference the differential tests compare against.
  bool enable_streaming = true;

  /// Items per NextBatch() on full-drain paths (early-exit consumers
  /// always use 1). Session knob / SEDNA_BATCH_SIZE.
  size_t batch_size = kDefaultBatchSize;

  /// Worker threads a morsel exchange may use for eligible path scans;
  /// <= 1 keeps everything serial. Session knob / SEDNA_PARALLEL_WORKERS.
  uint32_t parallel_workers = 1;

  ExecStats* stats = nullptr;
  int udf_depth = 0;  // recursion guard

  /// Per-statement resource governance (deadline, cancellation, memory
  /// budget). Null for ungoverned callers (unit tests, internal drains);
  /// every governed pull and materialization barrier consults it.
  QueryContext* query = nullptr;

  /// Non-null while a profiled (EXPLAIN) statement runs: the profile-tree
  /// node operators built *now* should attach under. EvalStream() wraps
  /// every operator it creates in a ProfilingStream and points this at the
  /// operator's node while the operator builds or pulls its inputs.
  ProfileNode* profile = nullptr;

  void Count(std::atomic<uint64_t> ExecStats::*field, uint64_t delta = 1) {
    if (stats != nullptr) {
      (stats->*field).fetch_add(delta, std::memory_order_relaxed);
    }
  }
};

/// Evaluates an expression to a materialized sequence. With streaming
/// enabled this drains EvalStream(); binding sites (let, UDF parameters,
/// update sources) use it deliberately — a lazy stream must never outlive
/// the variable scope it reads.
StatusOr<Sequence> Eval(const Expr& expr, ExecContext& ctx);

/// Evaluates an expression to a pull-based stream — the primary evaluation
/// path. With ctx.enable_streaming false the expression is evaluated
/// eagerly and the result wrapped, which benchmarks use as the baseline.
StatusOr<StreamPtr> EvalStream(const Expr& expr, ExecContext& ctx);

/// Effective boolean value of a sequence.
StatusOr<bool> EffectiveBooleanValue(const OpCtx& ctx, const Sequence& seq);

/// Short-circuiting effective boolean value over a stream: pulls at most
/// two items (one when it is a node — the common document case).
StatusOr<bool> EffectiveBooleanValueStream(ExecContext& ctx, ItemStream* in);

/// Atomizes a sequence (nodes -> their untyped string values).
StatusOr<Sequence> Atomize(const OpCtx& ctx, const Sequence& seq);

/// Serializes items one at a time with the same whitespace rules as
/// SerializeSequence (adjacent atomic values are space-separated). The
/// session layer appends each chunk to its output as the result stream is
/// pulled, so the full result text is never required in memory at once.
class IncrementalSerializer {
 public:
  explicit IncrementalSerializer(const OpCtx& ctx) : ctx_(ctx) {}

  /// Appends the serialized form of `item` to *out.
  Status Append(const Item& item, std::string* out);

 private:
  OpCtx ctx_;
  bool prev_atomic_ = false;
};

/// Serializes a result sequence the way a query shell would print it.
/// Handles virtual elements without materializing them.
StatusOr<std::string> SerializeSequence(const OpCtx& ctx,
                                        const Sequence& seq);

/// Item -> serialized form (markup for nodes, lexical form for atomics).
StatusOr<std::string> SerializeItem(const OpCtx& ctx, const Item& item);

}  // namespace sedna

#endif  // SEDNA_XQUERY_EXECUTOR_H_
