#include "xquery/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "xml/xml_serializer.h"
#include "xquery/analyzer.h"
#include "xquery/exchange.h"
#include "xquery/functions.h"
#include "xquery/profile.h"
#include "xquery/value_index.h"

namespace sedna {

namespace {

constexpr int kMaxUdfDepth = 256;

// ---------------------------------------------------------------------------
// EXPLAIN/profile instrumentation
// ---------------------------------------------------------------------------

/// Wraps one operator's stream when ExecContext::profile is active: counts
/// batch pulls/rows and wall time — one timestamp pair per batch, so the
/// clock reads amortize with the batch size — and points ctx.profile at
/// this operator's node while the wrapped NextBatch() runs so operators it
/// builds lazily (FLWOR return clauses, predicate subexpressions) attach
/// under it.
class ProfilingStream final : public ItemStream {
 public:
  ProfilingStream(ExecContext& ctx, ProfileNode* node, StreamPtr in)
      : ctx_(&ctx), node_(node), in_(std::move(in)) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    ProfileNode* saved = ctx_->profile;
    ctx_->profile = node_;
    auto start = std::chrono::steady_clock::now();
    StatusOr<bool> got = in_->NextBatch(out, max);
    node_->time_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    node_->pulls++;
    if (got.ok() && *got) node_->rows += out->size();
    ctx_->profile = saved;
    return got;
  }

 private:
  ExecContext* ctx_;
  ProfileNode* node_;
  StreamPtr in_;
};

/// Attaches `in` to the profile tree under the current node. No-op (returns
/// `in` unwrapped) when profiling is off, so the default pipeline pays
/// nothing.
StreamPtr MaybeProfile(ExecContext& ctx, const std::string& label,
                       StreamPtr in) {
  if (ctx.profile == nullptr) return in;
  ProfileNode* node = ctx.profile->Child(label);
  return std::make_unique<ProfilingStream>(ctx, node, std::move(in));
}

std::string NodeTestLabel(const NodeTest& test) {
  switch (test.kind) {
    case NodeTest::Kind::kName:
      return test.name;
    case NodeTest::Kind::kAnyName:
      return "*";
    case NodeTest::Kind::kAnyNode:
      return "node()";
    case NodeTest::Kind::kText:
      return "text()";
    case NodeTest::Kind::kComment:
      return "comment()";
    case NodeTest::Kind::kPi:
      return "processing-instruction(" + test.name + ")";
  }
  return "?";
}

std::string StepLabel(const Step& step) {
  std::string label = "step ";
  label += AxisName(step.axis);
  label += "::";
  label += NodeTestLabel(step.test);
  if (!step.predicates.empty()) {
    label += "[" + std::to_string(step.predicates.size()) + " pred]";
  }
  return label;
}

/// Operator label for the profile tree: the expression's physical shape,
/// with enough detail (names, operators) to recognize it in the plan.
std::string ProfileLabel(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteralInt:
    case ExprKind::kLiteralDouble:
    case ExprKind::kLiteralString:
      return "literal";
    case ExprKind::kEmptySequence:
      return "empty";
    case ExprKind::kSequence:
      return "sequence";
    case ExprKind::kRange:
      return "range";
    case ExprKind::kArith:
      return "arith " + expr.str_val;
    case ExprKind::kUnaryMinus:
      return "neg";
    case ExprKind::kComparison:
      return "compare " + expr.str_val;
    case ExprKind::kAnd:
      return "and";
    case ExprKind::kOr:
      return "or";
    case ExprKind::kIf:
      return "if";
    case ExprKind::kQuantified:
      return expr.every ? "every" : "some";
    case ExprKind::kFlwor:
      return expr.order_specs.empty() ? "flwor" : "flwor(order-by)";
    case ExprKind::kPath:
      return expr.str_val == "filter" ? "filter" : "path";
    case ExprKind::kContextRoot:
      return "root()";
    case ExprKind::kFunctionCall:
      return "call " + expr.str_val + "()";
    case ExprKind::kVarRef:
      return "$" + expr.str_val;
    case ExprKind::kContextItem:
      return ".";
    case ExprKind::kElementCtor:
      return "element <" + expr.str_val + ">";
    case ExprKind::kAttributeCtor:
      return "attribute " + expr.str_val;
    case ExprKind::kTextCtor:
      return "text ctor";
  }
  return "expr";
}

// ---------------------------------------------------------------------------
// Axis evaluation
// ---------------------------------------------------------------------------

bool KindMatchesTest(XmlKind kind, const NodeTest& test, Axis axis) {
  switch (test.kind) {
    case NodeTest::Kind::kName:
    case NodeTest::Kind::kAnyName:
      // Name tests select the principal node kind of the axis.
      return axis == Axis::kAttribute ? kind == XmlKind::kAttribute
                                      : kind == XmlKind::kElement;
    case NodeTest::Kind::kAnyNode:
      return true;
    case NodeTest::Kind::kText:
      return kind == XmlKind::kText;
    case NodeTest::Kind::kComment:
      return kind == XmlKind::kComment;
    case NodeTest::Kind::kPi:
      return kind == XmlKind::kPi;
  }
  return false;
}

StatusOr<bool> MatchesTest(ExecContext& ctx, const Item& node,
                           const NodeTest& test, Axis axis) {
  SEDNA_ASSIGN_OR_RETURN(XmlKind kind, NodeKind(ctx.op, node));
  if (!KindMatchesTest(kind, test, axis)) return false;
  if (test.kind == NodeTest::Kind::kName ||
      (test.kind == NodeTest::Kind::kPi && !test.name.empty())) {
    SEDNA_ASSIGN_OR_RETURN(std::string name, NodeName(ctx.op, node));
    return name == test.name;
  }
  return true;
}

Status CollectDescendants(ExecContext& ctx, const Item& node, Sequence* out) {
  SEDNA_ASSIGN_OR_RETURN(Sequence children, NodeChildren(ctx.op, node));
  for (const Item& c : children) {
    ctx.Count(&ExecStats::axis_nodes);
    out->push_back(c);
    SEDNA_RETURN_IF_ERROR(CollectDescendants(ctx, c, out));
  }
  return Status::OK();
}

/// Siblings after/before `node` in document order (attributes excluded).
StatusOr<Sequence> SiblingNodes(ExecContext& ctx, const Item& node,
                                bool following) {
  Sequence out;
  if (node.is_stored_node()) {
    const StoredNode& n = node.stored();
    SEDNA_ASSIGN_OR_RETURN(NodeInfo info, n.doc->nodes()->Info(ctx.op, n.addr));
    if (info.kind == XmlKind::kAttribute) return out;
    Xptr cur = following ? info.right_sibling : info.left_sibling;
    while (cur) {
      SEDNA_ASSIGN_OR_RETURN(NodeInfo ci, n.doc->nodes()->Info(ctx.op, cur));
      if (ci.kind != XmlKind::kAttribute) {
        out.push_back(Item(StoredNode{n.doc, cur}));
      }
      cur = following ? ci.right_sibling : ci.left_sibling;
    }
    if (!following) std::reverse(out.begin(), out.end());
    return out;
  }
  // Constructed / virtual nodes: go through the parent.
  SEDNA_ASSIGN_OR_RETURN(Sequence parent, NodeParent(ctx.op, node));
  if (parent.empty()) return out;
  SEDNA_ASSIGN_OR_RETURN(Sequence kids, NodeChildren(ctx.op, parent[0]));
  bool after = false;
  for (const Item& k : kids) {
    SEDNA_ASSIGN_OR_RETURN(bool same, SameNode(ctx.op, k, node));
    if (same) {
      after = true;
      continue;
    }
    if (after == following) out.push_back(k);
  }
  return out;
}

StatusOr<Sequence> AxisNodes(ExecContext& ctx, const Item& node, Axis axis) {
  Sequence out;
  switch (axis) {
    case Axis::kSelf:
      out.push_back(node);
      return out;
    case Axis::kChild:
      return NodeChildren(ctx.op, node);
    case Axis::kAttribute:
      return NodeAttributes(ctx.op, node);
    case Axis::kParent:
      return NodeParent(ctx.op, node);
    case Axis::kDescendant:
      SEDNA_RETURN_IF_ERROR(CollectDescendants(ctx, node, &out));
      return out;
    case Axis::kDescendantOrSelf:
      out.push_back(node);
      SEDNA_RETURN_IF_ERROR(CollectDescendants(ctx, node, &out));
      return out;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      if (axis == Axis::kAncestorOrSelf) out.push_back(node);
      Item cur = node;
      for (;;) {
        SEDNA_ASSIGN_OR_RETURN(Sequence parent, NodeParent(ctx.op, cur));
        if (parent.empty()) break;
        out.push_back(parent[0]);
        cur = parent[0];
      }
      std::reverse(out.begin(), out.end());  // document order
      return out;
    }
    case Axis::kFollowingSibling:
      return SiblingNodes(ctx, node, true);
    case Axis::kPrecedingSibling:
      return SiblingNodes(ctx, node, false);
  }
  return Status::Internal("unknown axis");
}

// ---------------------------------------------------------------------------
// Predicates
// ---------------------------------------------------------------------------

StatusOr<Sequence> ApplyPredicate(const Expr& pred, Sequence in,
                                  ExecContext& ctx) {
  Sequence out;
  const Item* saved_item = ctx.context_item;
  int64_t saved_pos = ctx.context_pos;
  int64_t saved_size = ctx.context_size;
  int64_t size = static_cast<int64_t>(in.size());
  for (int64_t i = 0; i < size; ++i) {
    ctx.context_item = &in[i];
    ctx.context_pos = i + 1;
    ctx.context_size = size;
    StatusOr<Sequence> value = Eval(pred, ctx);
    if (!value.ok()) {
      ctx.context_item = saved_item;
      ctx.context_pos = saved_pos;
      ctx.context_size = saved_size;
      return value.status();
    }
    bool keep;
    if (value->size() == 1 && (*value)[0].is_numeric()) {
      keep = (*value)[0].as_double() == static_cast<double>(i + 1);
    } else {
      StatusOr<bool> ebv = EffectiveBooleanValue(ctx.op, *value);
      if (!ebv.ok()) {
        ctx.context_item = saved_item;
        ctx.context_pos = saved_pos;
        ctx.context_size = saved_size;
        return ebv.status();
      }
      keep = *ebv;
    }
    if (keep) out.push_back(in[i]);
  }
  ctx.context_item = saved_item;
  ctx.context_pos = saved_pos;
  ctx.context_size = saved_size;
  return out;
}

// ---------------------------------------------------------------------------
// Structural paths over the descriptive schema (Section 5.1.4)
// ---------------------------------------------------------------------------

NodeTest::Kind TestKind(const Step& s) { return s.test.kind; }

XmlKind SchemaKindFor(const Step& s) {
  switch (s.test.kind) {
    case NodeTest::Kind::kText:
      return XmlKind::kText;
    case NodeTest::Kind::kComment:
      return XmlKind::kComment;
    case NodeTest::Kind::kPi:
      return XmlKind::kPi;
    default:
      return s.axis == Axis::kAttribute ? XmlKind::kAttribute
                                        : XmlKind::kElement;
  }
}

/// Lowers AST steps [begin, end) (structural axes only) to path-summary
/// patterns. Returns false when a step cannot be lowered — never for steps
/// the rewriter marked schema_resolved.
bool LowerSummarySteps(const std::vector<Step>& steps, size_t begin,
                       size_t end, std::vector<SummaryStep>* out) {
  for (size_t i = begin; i < end; ++i) {
    const Step& step = steps[i];
    SummaryStep s;
    switch (step.axis) {
      case Axis::kChild:
        s.axis = SummaryStep::Axis::kChild;
        break;
      case Axis::kAttribute:
        s.axis = SummaryStep::Axis::kAttribute;
        break;
      case Axis::kDescendant:
        s.axis = SummaryStep::Axis::kDescendant;
        break;
      default:
        return false;
    }
    s.kind = SchemaKindFor(step);
    s.any_node = TestKind(step) == NodeTest::Kind::kAnyNode;
    s.name = TestKind(step) == NodeTest::Kind::kAnyName || s.any_node
                 ? std::string("*")
                 : step.test.name;
    out->push_back(std::move(s));
  }
  return true;
}

/// Resolves a run of schema-resolved steps to the set of matching schema
/// nodes, starting from the document's schema root — served by the
/// document's path summary (inverted name buckets + backward ancestor
/// verification) instead of a forward frontier walk over the schema tree.
std::vector<SchemaNode*> ResolveSchemaSteps(DocumentStore* doc,
                                            const std::vector<Step>& steps,
                                            size_t begin, size_t end) {
  std::vector<SummaryStep> pattern;
  if (!LowerSummarySteps(steps, begin, end, &pattern)) return {};
  return doc->summary()->Resolve(pattern);
}

StatusOr<Sequence> EnumerateSchemaNodes(ExecContext& ctx, DocumentStore* doc,
                                        const std::vector<SchemaNode*>& sns) {
  Sequence out;
  for (SchemaNode* sn : sns) {
    SEDNA_ASSIGN_OR_RETURN(Xptr cur, doc->nodes()->FirstOfSchema(ctx.op, sn));
    while (cur) {
      out.push_back(Item(StoredNode{doc, cur}));
      SEDNA_ASSIGN_OR_RETURN(cur, doc->nodes()->NextSameSchema(ctx.op, cur));
    }
  }
  if (sns.size() > 1) {
    SEDNA_RETURN_IF_ERROR(DistinctDocOrder(ctx.op, &out));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path expressions
// ---------------------------------------------------------------------------

StatusOr<Sequence> EvalPath(const Expr& path, ExecContext& ctx) {
  SEDNA_ASSIGN_OR_RETURN(Sequence in, Eval(*path.children[0], ctx));

  // Filter expression: predicates over the whole input sequence.
  if (path.str_val == "filter") {
    for (const auto& pred : path.steps[0].predicates) {
      SEDNA_ASSIGN_OR_RETURN(in, ApplyPredicate(*pred, std::move(in), ctx));
    }
    return in;
  }

  size_t step_idx = 0;

  // Structural fragment served from the descriptive schema.
  if (!path.steps.empty() && path.steps[0].schema_resolved && in.size() == 1 &&
      in[0].is_stored_node()) {
    SEDNA_ASSIGN_OR_RETURN(XmlKind kind, NodeKind(ctx.op, in[0]));
    if (kind == XmlKind::kDocument) {
      DocumentStore* doc = in[0].stored().doc;
      size_t end = 0;
      while (end < path.steps.size() && path.steps[end].schema_resolved) {
        end++;
      }
      std::vector<SchemaNode*> sns =
          ResolveSchemaSteps(doc, path.steps, 0, end);
      SEDNA_ASSIGN_OR_RETURN(in, EnumerateSchemaNodes(ctx, doc, sns));
      ctx.Count(&ExecStats::schema_scans);
      // A predicate-extended fragment keeps its final step's (position-free)
      // predicates: apply them flat over the scan — equivalent to the
      // per-parent application of the step-by-step path for such predicates.
      for (const auto& pred : path.steps[end - 1].predicates) {
        SEDNA_ASSIGN_OR_RETURN(in, ApplyPredicate(*pred, std::move(in), ctx));
      }
      step_idx = end;
    }
  }

  for (; step_idx < path.steps.size(); ++step_idx) {
    const Step& step = path.steps[step_idx];
    Sequence out;
    for (const Item& node : in) {
      if (!node.is_node()) {
        return Status::InvalidArgument(
            "path step applied to an atomic value");
      }
      SEDNA_ASSIGN_OR_RETURN(Sequence axis_seq,
                             AxisNodes(ctx, node, step.axis));
      ctx.Count(&ExecStats::axis_nodes, axis_seq.size());
      Sequence tested;
      for (Item& cand : axis_seq) {
        SEDNA_ASSIGN_OR_RETURN(bool match,
                               MatchesTest(ctx, cand, step.test, step.axis));
        if (match) tested.push_back(std::move(cand));
      }
      for (const auto& pred : step.predicates) {
        SEDNA_ASSIGN_OR_RETURN(tested,
                               ApplyPredicate(*pred, std::move(tested), ctx));
      }
      out.insert(out.end(), std::make_move_iterator(tested.begin()),
                 std::make_move_iterator(tested.end()));
    }
    if (step.needs_ddo) {
      ctx.Count(&ExecStats::ddo_ops);
      ctx.Count(&ExecStats::ddo_items, out.size());
      SEDNA_RETURN_IF_ERROR(DistinctDocOrder(ctx.op, &out));
    }
    in = std::move(out);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Atomization, EBV, comparisons, arithmetic
// ---------------------------------------------------------------------------

StatusOr<Item> AtomizeItem(const OpCtx& ctx, const Item& item) {
  if (item.is_atomic()) return item;
  SEDNA_ASSIGN_OR_RETURN(std::string s, NodeStringValue(ctx, item));
  return Item(std::move(s));
}

StatusOr<bool> ComparePair(const Item& a, const Item& b,
                           const std::string& op) {
  // Numeric comparison when either side is numeric (untyped data coerces).
  auto as_number = [](const Item& v, double* out) {
    if (v.is_numeric()) {
      *out = v.as_double();
      return true;
    }
    if (v.is_string()) return ParseDouble(v.str(), out);
    if (v.is_boolean()) {
      *out = v.boolean() ? 1 : 0;
      return true;
    }
    return false;
  };
  int cmp;
  if (a.is_numeric() || b.is_numeric()) {
    double da, db;
    if (!as_number(a, &da) || !as_number(b, &db)) {
      return Status::InvalidArgument("cannot compare value to a number");
    }
    cmp = da < db ? -1 : (da > db ? 1 : 0);
    if (std::isnan(da) || std::isnan(db)) {
      return op == "!=" || op == "ne";
    }
  } else if (a.is_boolean() || b.is_boolean()) {
    bool ba = a.is_boolean() ? a.boolean() : !a.str().empty();
    bool bb = b.is_boolean() ? b.boolean() : !b.str().empty();
    cmp = ba == bb ? 0 : (ba ? 1 : -1);
  } else {
    cmp = a.str().compare(b.str());
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  if (op == "=" || op == "eq") return cmp == 0;
  if (op == "!=" || op == "ne") return cmp != 0;
  if (op == "<" || op == "lt") return cmp < 0;
  if (op == "<=" || op == "le") return cmp <= 0;
  if (op == ">" || op == "gt") return cmp > 0;
  if (op == ">=" || op == "ge") return cmp >= 0;
  return Status::Internal("unknown comparison operator " + op);
}

StatusOr<Sequence> EvalComparison(const Expr& expr, ExecContext& ctx) {
  SEDNA_ASSIGN_OR_RETURN(Sequence left, Eval(*expr.children[0], ctx));
  SEDNA_ASSIGN_OR_RETURN(Sequence right, Eval(*expr.children[1], ctx));
  const std::string& op = expr.str_val;

  if (op == "is") {
    if (left.empty() || right.empty()) return Sequence{};
    if (left.size() != 1 || right.size() != 1 || !left[0].is_node() ||
        !right[0].is_node()) {
      return Status::InvalidArgument("'is' requires single nodes");
    }
    SEDNA_ASSIGN_OR_RETURN(bool same, SameNode(ctx.op, left[0], right[0]));
    return Sequence{Item(same)};
  }

  bool value_comp = op == "eq" || op == "ne" || op == "lt" || op == "le" ||
                    op == "gt" || op == "ge";
  SEDNA_ASSIGN_OR_RETURN(Sequence la, Atomize(ctx.op, left));
  SEDNA_ASSIGN_OR_RETURN(Sequence ra, Atomize(ctx.op, right));
  if (value_comp) {
    if (la.empty() || ra.empty()) return Sequence{};
    if (la.size() != 1 || ra.size() != 1) {
      return Status::InvalidArgument(
          "value comparison requires single items");
    }
    SEDNA_ASSIGN_OR_RETURN(bool r, ComparePair(la[0], ra[0], op));
    return Sequence{Item(r)};
  }
  // General comparison: existential.
  for (const Item& a : la) {
    for (const Item& b : ra) {
      SEDNA_ASSIGN_OR_RETURN(bool r, ComparePair(a, b, op));
      if (r) return Sequence{Item(true)};
    }
  }
  return Sequence{Item(false)};
}

StatusOr<Sequence> EvalArith(const Expr& expr, ExecContext& ctx) {
  SEDNA_ASSIGN_OR_RETURN(Sequence left, Eval(*expr.children[0], ctx));
  SEDNA_ASSIGN_OR_RETURN(Sequence right, Eval(*expr.children[1], ctx));
  SEDNA_ASSIGN_OR_RETURN(Sequence la, Atomize(ctx.op, left));
  SEDNA_ASSIGN_OR_RETURN(Sequence ra, Atomize(ctx.op, right));
  if (la.empty() || ra.empty()) return Sequence{};
  if (la.size() != 1 || ra.size() != 1) {
    return Status::InvalidArgument("arithmetic requires single values");
  }
  auto numeric = [](const Item& v, double* out) -> bool {
    if (v.is_numeric()) {
      *out = v.as_double();
      return true;
    }
    if (v.is_string()) return ParseDouble(v.str(), out);
    return false;
  };
  double a, b;
  if (!numeric(la[0], &a) || !numeric(ra[0], &b)) {
    return Status::InvalidArgument("non-numeric operand in arithmetic");
  }
  const std::string& op = expr.str_val;
  bool both_int = la[0].is_integer() && ra[0].is_integer();
  if (op == "+") {
    return Sequence{both_int ? Item(la[0].integer() + ra[0].integer())
                             : Item(a + b)};
  }
  if (op == "-") {
    return Sequence{both_int ? Item(la[0].integer() - ra[0].integer())
                             : Item(a - b)};
  }
  if (op == "*") {
    return Sequence{both_int ? Item(la[0].integer() * ra[0].integer())
                             : Item(a * b)};
  }
  if (op == "div") {
    if (b == 0) return Status::InvalidArgument("division by zero");
    return Sequence{Item(a / b)};
  }
  if (op == "idiv") {
    if (b == 0) return Status::InvalidArgument("division by zero");
    return Sequence{Item(static_cast<int64_t>(a / b))};
  }
  if (op == "mod") {
    if (b == 0) return Status::InvalidArgument("division by zero");
    if (both_int) {
      return Sequence{Item(la[0].integer() % ra[0].integer())};
    }
    return Sequence{Item(std::fmod(a, b))};
  }
  return Status::Internal("unknown arithmetic operator " + op);
}

// ---------------------------------------------------------------------------
// FLWOR
// ---------------------------------------------------------------------------

struct FlworTuple {
  std::vector<std::pair<std::string, Sequence>> bindings;
  std::vector<Item> keys;  // order-by keys (empty item = ())
  bool key_empty_flags[8] = {};
  size_t key_count = 0;
};

uint64_t ApproxTupleBytes(const FlworTuple& t) {
  uint64_t bytes = sizeof(FlworTuple);
  for (const auto& [name, value] : t.bindings) {
    bytes += name.size() + sizeof(Sequence);
    for (const Item& item : value) bytes += ApproxItemBytes(item);
  }
  for (const Item& key : t.keys) bytes += ApproxItemBytes(key);
  return bytes;
}

Status FlworCollect(const Expr& flwor, size_t ci, ExecContext& ctx,
                    const std::vector<const Sequence*>& lazy_values,
                    Sequence* out, std::vector<FlworTuple>* tuples,
                    MemoryReservation* tuple_reservation) {
  if (ci == flwor.clauses.size()) {
    if (flwor.where != nullptr) {
      SEDNA_ASSIGN_OR_RETURN(Sequence cond, Eval(*flwor.where, ctx));
      SEDNA_ASSIGN_OR_RETURN(bool pass, EffectiveBooleanValue(ctx.op, cond));
      if (!pass) return Status::OK();
    }
    if (tuples != nullptr) {
      FlworTuple tuple;
      for (const FlworClause& c : flwor.clauses) {
        tuple.bindings.emplace_back(c.var, ctx.vars[c.var]);
        if (!c.pos_var.empty()) {
          tuple.bindings.emplace_back(c.pos_var, ctx.vars[c.pos_var]);
        }
      }
      for (const OrderSpec& spec : flwor.order_specs) {
        SEDNA_ASSIGN_OR_RETURN(Sequence key_seq, Eval(*spec.expr, ctx));
        SEDNA_ASSIGN_OR_RETURN(Sequence key, Atomize(ctx.op, key_seq));
        if (key.size() > 1) {
          return Status::InvalidArgument("order key must be a single item");
        }
        tuple.key_empty_flags[tuple.key_count] = key.empty();
        tuple.keys.push_back(key.empty() ? Item() : key[0]);
        tuple.key_count++;
      }
      if (tuple_reservation != nullptr) {
        SEDNA_RETURN_IF_ERROR(
            tuple_reservation->Grow(ApproxTupleBytes(tuple)));
      }
      tuples->push_back(std::move(tuple));
      return Status::OK();
    }
    SEDNA_ASSIGN_OR_RETURN(Sequence result, Eval(*flwor.children[0], ctx));
    out->insert(out->end(), std::make_move_iterator(result.begin()),
                std::make_move_iterator(result.end()));
    return Status::OK();
  }

  const FlworClause& clause = flwor.clauses[ci];
  if (clause.kind == FlworClause::Kind::kLet) {
    SEDNA_ASSIGN_OR_RETURN(Sequence value, Eval(*clause.expr, ctx));
    Sequence saved = std::move(ctx.vars[clause.var]);
    ctx.vars[clause.var] = std::move(value);
    Status st = FlworCollect(flwor, ci + 1, ctx, lazy_values, out, tuples,
                             tuple_reservation);
    ctx.vars[clause.var] = std::move(saved);
    return st;
  }

  Sequence domain_storage;
  const Sequence* domain;
  if (lazy_values[ci] != nullptr) {
    domain = lazy_values[ci];  // Section 5.1.3: evaluated once
  } else {
    SEDNA_ASSIGN_OR_RETURN(domain_storage, Eval(*clause.expr, ctx));
    domain = &domain_storage;
  }
  Sequence saved = std::move(ctx.vars[clause.var]);
  Sequence saved_pos;
  if (!clause.pos_var.empty()) {
    saved_pos = std::move(ctx.vars[clause.pos_var]);
  }
  Status st = Status::OK();
  for (size_t i = 0; i < domain->size(); ++i) {
    ctx.vars[clause.var] = Sequence{(*domain)[i]};
    if (!clause.pos_var.empty()) {
      ctx.vars[clause.pos_var] =
          Sequence{Item(static_cast<int64_t>(i + 1))};
    }
    st = FlworCollect(flwor, ci + 1, ctx, lazy_values, out, tuples,
                      tuple_reservation);
    if (!st.ok()) break;
  }
  ctx.vars[clause.var] = std::move(saved);
  if (!clause.pos_var.empty()) ctx.vars[clause.pos_var] = std::move(saved_pos);
  return st;
}

StatusOr<Sequence> EvalFlwor(const Expr& flwor, ExecContext& ctx) {
  // Pre-evaluate lazy for-clauses (marked by the rewriter as independent of
  // outer for-variables) exactly once.
  std::vector<Sequence> lazy_storage(flwor.clauses.size());
  std::vector<const Sequence*> lazy_values(flwor.clauses.size(), nullptr);
  for (size_t i = 0; i < flwor.clauses.size(); ++i) {
    const FlworClause& c = flwor.clauses[i];
    if (c.kind == FlworClause::Kind::kFor && c.lazy) {
      SEDNA_ASSIGN_OR_RETURN(lazy_storage[i], Eval(*c.expr, ctx));
      lazy_values[i] = &lazy_storage[i];
    }
  }

  Sequence out;
  if (flwor.order_specs.empty()) {
    SEDNA_RETURN_IF_ERROR(
        FlworCollect(flwor, 0, ctx, lazy_values, &out, nullptr, nullptr));
    return out;
  }

  // order by buffers every tuple before the first result: the tuple vector
  // is charged against the statement's memory budget while it lives.
  std::vector<FlworTuple> tuples;
  MemoryReservation tuple_reservation(ctx.query);
  SEDNA_RETURN_IF_ERROR(FlworCollect(flwor, 0, ctx, lazy_values, nullptr,
                                     &tuples, &tuple_reservation));

  // Sort by order keys.
  Status sort_status = Status::OK();
  std::stable_sort(
      tuples.begin(), tuples.end(),
      [&](const FlworTuple& a, const FlworTuple& b) {
        for (size_t k = 0; k < flwor.order_specs.size(); ++k) {
          bool ae = a.key_empty_flags[k];
          bool be = b.key_empty_flags[k];
          if (ae || be) {
            if (ae == be) continue;
            return flwor.order_specs[k].descending ? be : ae;  // empty least
          }
          StatusOr<bool> lt = ComparePair(a.keys[k], b.keys[k], "<");
          StatusOr<bool> gt = ComparePair(a.keys[k], b.keys[k], ">");
          if (!lt.ok() || !gt.ok()) {
            if (sort_status.ok()) {
              sort_status = lt.ok() ? gt.status() : lt.status();
            }
            return false;
          }
          if (*lt) return !flwor.order_specs[k].descending;
          if (*gt) return flwor.order_specs[k].descending;
        }
        return false;
      });
  SEDNA_RETURN_IF_ERROR(sort_status);

  for (const FlworTuple& tuple : tuples) {
    std::vector<std::pair<std::string, Sequence>> saved;
    for (const auto& [name, value] : tuple.bindings) {
      saved.emplace_back(name, std::move(ctx.vars[name]));
      ctx.vars[name] = value;
    }
    StatusOr<Sequence> result = Eval(*flwor.children[0], ctx);
    for (auto& [name, value] : saved) {
      ctx.vars[name] = std::move(value);
    }
    if (!result.ok()) return result.status();
    out.insert(out.end(), std::make_move_iterator(result->begin()),
               std::make_move_iterator(result->end()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Constructors (Section 5.2.1)
// ---------------------------------------------------------------------------

StatusOr<std::string> SequenceToContentString(const OpCtx& ctx,
                                              const Sequence& seq) {
  SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx, seq));
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ' ';
    out += AtomicLexical(atoms[i]);
  }
  return out;
}

StatusOr<Item> BuildAttributeNode(const Expr& ctor, ExecContext& ctx) {
  std::string name = ctor.str_val;
  if (ctor.name_expr != nullptr) {
    SEDNA_ASSIGN_OR_RETURN(Sequence n, Eval(*ctor.name_expr, ctx));
    SEDNA_ASSIGN_OR_RETURN(name, SequenceToContentString(ctx.op, n));
  }
  std::string value;
  for (const auto& part : ctor.children) {
    if (part->kind == ExprKind::kLiteralString) {
      value += part->str_val;
      continue;
    }
    SEDNA_ASSIGN_OR_RETURN(Sequence v, Eval(*part, ctx));
    SEDNA_ASSIGN_OR_RETURN(std::string s, SequenceToContentString(ctx.op, v));
    value += s;
  }
  auto node = XmlNode::Attribute(std::move(name), std::move(value));
  const XmlNode* ptr = node.get();
  std::shared_ptr<XmlNode> root(std::move(node));
  return Item(ConstructedNode{std::move(root), ptr, NextConstructionId()});
}

StatusOr<Item> BuildElement(const Expr& ctor, ExecContext& ctx) {
  std::string name = ctor.str_val;
  if (ctor.name_expr != nullptr) {
    SEDNA_ASSIGN_OR_RETURN(Sequence n, Eval(*ctor.name_expr, ctx));
    SEDNA_ASSIGN_OR_RETURN(name, SequenceToContentString(ctx.op, n));
  }

  Sequence attrs;
  for (const auto& attr_expr : ctor.ctor_attrs) {
    SEDNA_ASSIGN_OR_RETURN(Item attr, BuildAttributeNode(*attr_expr, ctx));
    attrs.push_back(std::move(attr));
  }
  Sequence content;
  for (const auto& child : ctor.children) {
    SEDNA_ASSIGN_OR_RETURN(Sequence part, Eval(*child, ctx));
    // Attribute items produced by content expressions become attributes.
    for (Item& item : part) {
      bool is_attr = false;
      if (item.is_node()) {
        SEDNA_ASSIGN_OR_RETURN(XmlKind kind, NodeKind(ctx.op, item));
        is_attr = kind == XmlKind::kAttribute;
      }
      if (is_attr && content.empty()) {
        attrs.push_back(std::move(item));
      } else {
        content.push_back(std::move(item));
      }
    }
  }

  if (ctor.virtual_ok) {
    // Virtual element constructor: no deep copy of the content.
    ctx.Count(&ExecStats::virtual_elements);
    auto v = std::make_shared<VirtualElement>();
    v->name = std::move(name);
    v->attributes = std::move(attrs);
    v->content = std::move(content);
    v->order_id = NextConstructionId();
    return Item(std::move(v));
  }

  // Standard semantics: deep copy the content into a fresh tree.
  auto elem = std::make_unique<XmlNode>(XmlKind::kElement, std::move(name));
  for (const Item& attr : attrs) {
    SEDNA_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> a, NodeToXml(ctx.op, attr));
    ctx.Count(&ExecStats::deep_copy_nodes, a->SubtreeSize());
    elem->Add(std::move(a));
  }
  std::string pending_text;
  bool prev_atomic = false;
  auto flush = [&]() {
    if (!pending_text.empty()) {
      elem->AddText(std::move(pending_text));
      pending_text.clear();
    }
  };
  for (const Item& item : content) {
    if (item.is_node()) {
      SEDNA_ASSIGN_OR_RETURN(XmlKind kind, NodeKind(ctx.op, item));
      if (kind == XmlKind::kText) {
        SEDNA_ASSIGN_OR_RETURN(std::string t, NodeStringValue(ctx.op, item));
        pending_text += t;
        prev_atomic = false;
        continue;
      }
      flush();
      SEDNA_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> n,
                             NodeToXml(ctx.op, item));
      // Copying a document node splices in its children.
      if (n->kind == XmlKind::kDocument) {
        for (auto& c : n->children) {
          ctx.Count(&ExecStats::deep_copy_nodes, c->SubtreeSize());
          elem->Add(std::move(c));
        }
      } else {
        ctx.Count(&ExecStats::deep_copy_nodes, n->SubtreeSize());
        elem->Add(std::move(n));
      }
      prev_atomic = false;
    } else {
      if (prev_atomic) pending_text += ' ';
      pending_text += AtomicLexical(item);
      prev_atomic = true;
    }
  }
  flush();
  const XmlNode* ptr = elem.get();
  std::shared_ptr<XmlNode> root(std::move(elem));
  return Item(ConstructedNode{std::move(root), ptr, NextConstructionId()});
}

// ---------------------------------------------------------------------------
// Function calls
// ---------------------------------------------------------------------------

StatusOr<Sequence> EvalFunctionCall(const Expr& expr, ExecContext& ctx) {
  std::vector<Sequence> args;
  args.reserve(expr.children.size());
  for (const auto& arg : expr.children) {
    SEDNA_ASSIGN_OR_RETURN(Sequence value, Eval(*arg, ctx));
    args.push_back(std::move(value));
  }
  bool found = false;
  StatusOr<Sequence> builtin = CallBuiltin(expr.str_val, args, ctx, &found);
  if (found) return builtin;

  // User-defined function.
  if (ctx.prolog != nullptr) {
    for (const FunctionDecl& decl : ctx.prolog->functions) {
      if (decl.name == expr.str_val && decl.params.size() == args.size()) {
        if (ctx.udf_depth >= kMaxUdfDepth) {
          return Status::ResourceExhausted("function recursion too deep");
        }
        // Fresh variable scope: parameters only (plus globals, which live
        // in vars and are shadowed correctly by the save/restore).
        std::vector<std::pair<std::string, Sequence>> saved;
        for (size_t i = 0; i < args.size(); ++i) {
          saved.emplace_back(decl.params[i],
                             std::move(ctx.vars[decl.params[i]]));
          ctx.vars[decl.params[i]] = std::move(args[i]);
        }
        ctx.udf_depth++;
        StatusOr<Sequence> result = Eval(*decl.body, ctx);
        ctx.udf_depth--;
        for (auto& [name, value] : saved) {
          ctx.vars[name] = std::move(value);
        }
        return result;
      }
    }
  }
  return Status::InvalidArgument("unknown function: " + expr.str_val + "/" +
                                 std::to_string(args.size()));
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

StatusOr<Sequence> Atomize(const OpCtx& ctx, const Sequence& seq) {
  Sequence out;
  out.reserve(seq.size());
  for (const Item& item : seq) {
    SEDNA_ASSIGN_OR_RETURN(Item atom, AtomizeItem(ctx, item));
    out.push_back(std::move(atom));
  }
  return out;
}

StatusOr<bool> EffectiveBooleanValue(const OpCtx&, const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq[0].is_node()) return true;
  if (seq.size() > 1) {
    return Status::InvalidArgument(
        "effective boolean value of a multi-item atomic sequence");
  }
  const Item& v = seq[0];
  if (v.is_boolean()) return v.boolean();
  if (v.is_string()) return !v.str().empty();
  if (v.is_integer()) return v.integer() != 0;
  if (v.is_double()) return v.dbl() != 0 && !std::isnan(v.dbl());
  return false;
}

namespace {

/// The eager recursive evaluator: used for expression kinds that have no
/// streaming operator, and for the whole tree when ctx.enable_streaming is
/// off (the benchmark baseline).
StatusOr<Sequence> EvalEager(const Expr& expr, ExecContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteralInt:
      return Sequence{Item(expr.int_val)};
    case ExprKind::kLiteralDouble:
      return Sequence{Item(expr.dbl_val)};
    case ExprKind::kLiteralString:
      return Sequence{Item(expr.str_val)};
    case ExprKind::kEmptySequence:
      return Sequence{};
    case ExprKind::kSequence: {
      Sequence out;
      for (const auto& c : expr.children) {
        SEDNA_ASSIGN_OR_RETURN(Sequence part, Eval(*c, ctx));
        out.insert(out.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
      }
      return out;
    }
    case ExprKind::kRange: {
      SEDNA_ASSIGN_OR_RETURN(Sequence lo_seq, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(Sequence hi_seq, Eval(*expr.children[1], ctx));
      SEDNA_ASSIGN_OR_RETURN(Sequence lo, Atomize(ctx.op, lo_seq));
      SEDNA_ASSIGN_OR_RETURN(Sequence hi, Atomize(ctx.op, hi_seq));
      if (lo.empty() || hi.empty()) return Sequence{};
      if (!lo[0].is_numeric() || !hi[0].is_numeric()) {
        return Status::InvalidArgument("range bounds must be numeric");
      }
      int64_t a = static_cast<int64_t>(lo[0].as_double());
      int64_t b = static_cast<int64_t>(hi[0].as_double());
      Sequence out;
      for (int64_t i = a; i <= b; ++i) out.push_back(Item(i));
      return out;
    }
    case ExprKind::kArith:
      return EvalArith(expr, ctx);
    case ExprKind::kUnaryMinus: {
      SEDNA_ASSIGN_OR_RETURN(Sequence v, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(Sequence a, Atomize(ctx.op, v));
      if (a.empty()) return Sequence{};
      if (a[0].is_integer()) return Sequence{Item(-a[0].integer())};
      double d;
      if (a[0].is_double()) {
        d = a[0].dbl();
      } else if (!a[0].is_string() || !ParseDouble(a[0].str(), &d)) {
        return Status::InvalidArgument("unary minus on non-numeric value");
      }
      return Sequence{Item(-d)};
    }
    case ExprKind::kComparison:
      return EvalComparison(expr, ctx);
    case ExprKind::kAnd: {
      SEDNA_ASSIGN_OR_RETURN(Sequence l, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(bool lv, EffectiveBooleanValue(ctx.op, l));
      if (!lv) return Sequence{Item(false)};
      SEDNA_ASSIGN_OR_RETURN(Sequence r, Eval(*expr.children[1], ctx));
      SEDNA_ASSIGN_OR_RETURN(bool rv, EffectiveBooleanValue(ctx.op, r));
      return Sequence{Item(rv)};
    }
    case ExprKind::kOr: {
      SEDNA_ASSIGN_OR_RETURN(Sequence l, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(bool lv, EffectiveBooleanValue(ctx.op, l));
      if (lv) return Sequence{Item(true)};
      SEDNA_ASSIGN_OR_RETURN(Sequence r, Eval(*expr.children[1], ctx));
      SEDNA_ASSIGN_OR_RETURN(bool rv, EffectiveBooleanValue(ctx.op, r));
      return Sequence{Item(rv)};
    }
    case ExprKind::kIf: {
      SEDNA_ASSIGN_OR_RETURN(Sequence cond, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(bool pass, EffectiveBooleanValue(ctx.op, cond));
      return Eval(*expr.children[pass ? 1 : 2], ctx);
    }
    case ExprKind::kQuantified: {
      SEDNA_ASSIGN_OR_RETURN(Sequence domain, Eval(*expr.children[0], ctx));
      Sequence saved = std::move(ctx.vars[expr.var]);
      bool result = expr.every;
      Status st = Status::OK();
      for (const Item& item : domain) {
        ctx.vars[expr.var] = Sequence{item};
        StatusOr<Sequence> v = Eval(*expr.children[1], ctx);
        if (!v.ok()) {
          st = v.status();
          break;
        }
        StatusOr<bool> ebv = EffectiveBooleanValue(ctx.op, *v);
        if (!ebv.ok()) {
          st = ebv.status();
          break;
        }
        if (expr.every && !*ebv) {
          result = false;
          break;
        }
        if (!expr.every && *ebv) {
          result = true;
          break;
        }
      }
      ctx.vars[expr.var] = std::move(saved);
      SEDNA_RETURN_IF_ERROR(st);
      return Sequence{Item(result)};
    }
    case ExprKind::kFlwor:
      return EvalFlwor(expr, ctx);
    case ExprKind::kPath:
      return EvalPath(expr, ctx);
    case ExprKind::kContextRoot: {
      if (ctx.context_item == nullptr) {
        return Status::InvalidArgument("no context item for '/'");
      }
      // Root of the context node's tree.
      Item cur = *ctx.context_item;
      for (;;) {
        SEDNA_ASSIGN_OR_RETURN(Sequence parent, NodeParent(ctx.op, cur));
        if (parent.empty()) break;
        cur = parent[0];
      }
      return Sequence{cur};
    }
    case ExprKind::kFunctionCall:
      return EvalFunctionCall(expr, ctx);
    case ExprKind::kVarRef: {
      auto it = ctx.vars.find(expr.str_val);
      if (it == ctx.vars.end()) {
        return Status::InvalidArgument("unbound variable $" + expr.str_val);
      }
      return it->second;
    }
    case ExprKind::kContextItem: {
      if (ctx.context_item == nullptr) {
        return Status::InvalidArgument("no context item");
      }
      return Sequence{*ctx.context_item};
    }
    case ExprKind::kElementCtor: {
      SEDNA_ASSIGN_OR_RETURN(Item elem, BuildElement(expr, ctx));
      return Sequence{std::move(elem)};
    }
    case ExprKind::kAttributeCtor: {
      SEDNA_ASSIGN_OR_RETURN(Item attr, BuildAttributeNode(expr, ctx));
      return Sequence{std::move(attr)};
    }
    case ExprKind::kTextCtor: {
      SEDNA_ASSIGN_OR_RETURN(Sequence content, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(std::string value,
                             SequenceToContentString(ctx.op, content));
      auto node = XmlNode::Text(std::move(value));
      const XmlNode* ptr = node.get();
      std::shared_ptr<XmlNode> root(std::move(node));
      return Sequence{
          Item(ConstructedNode{std::move(root), ptr, NextConstructionId()})};
    }
  }
  return Status::Internal("unhandled expression kind");
}

// ---------------------------------------------------------------------------
// Pull-based pipeline (streaming operators)
// ---------------------------------------------------------------------------

StatusOr<bool> EvalEbv(const Expr& expr, ExecContext& ctx);
StatusOr<StreamPtr> WrapPredicates(ExecContext& ctx, StreamPtr in,
                                   const std::vector<ExprPtr>& preds);

bool IsPositionCall(const Expr& e) {
  return e.kind == ExprKind::kFunctionCall && e.str_val == "position" &&
         e.children.empty();
}

/// Position after which a predicate can never hold again, or 0 when no
/// static bound exists. Recognizes [n], [position() = n], [position() < n]
/// and [position() <= n] (either operand order); once the bound is reached
/// the predicate stream cuts off its upstream pipeline.
int64_t StaticPositionalBound(const Expr& pred) {
  if (pred.kind == ExprKind::kLiteralInt) {
    return pred.int_val >= 1 ? pred.int_val : 1;
  }
  if (pred.kind != ExprKind::kComparison || pred.children.size() != 2) {
    return 0;
  }
  const Expr* lhs = pred.children[0].get();
  const Expr* rhs = pred.children[1].get();
  bool swapped = false;
  if (!IsPositionCall(*lhs)) {
    std::swap(lhs, rhs);
    swapped = true;
  }
  if (!IsPositionCall(*lhs) || rhs->kind != ExprKind::kLiteralInt) return 0;
  int64_t n = rhs->int_val;
  std::string op = pred.str_val;
  if (swapped) {  // normalize to position() OP n
    if (op == "<" || op == "lt") {
      op = ">";
    } else if (op == "<=" || op == "le") {
      op = ">=";
    } else if (op == ">" || op == "gt") {
      op = "<";
    } else if (op == ">=" || op == "ge") {
      op = "<=";
    }
  }
  if (op == "=" || op == "eq") return n >= 1 ? n : 1;
  if (op == "<" || op == "lt") return n >= 2 ? n - 1 : 1;
  if (op == "<=" || op == "le") return n >= 1 ? n : 1;
  return 0;
}

bool PredNeedsLast(const Expr& pred) {
  return pred.stream_annotated ? pred.pred_needs_last : ExprConsultsLast(pred);
}

/// Streamed predicate: evaluates the predicate per item with the position
/// in the focus and the size unknown (context_size = -1; the rewriter
/// guarantees last()-dependent predicates never reach this operator).
class PredicateStream final : public ItemStream {
 public:
  PredicateStream(ExecContext& ctx, StreamPtr in, const Expr* pred)
      : ctx_(ctx),
        in_(std::move(in)),
        pred_(pred),
        bound_(StaticPositionalBound(*pred)) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    while (in_ != nullptr && out->size() < max) {
      // Max-propagation: request no more input than this call can emit,
      // further capped by the static positional bound so [1]/[<=n] never
      // over-pull their upstream pipeline.
      size_t want = max - out->size();
      if (bound_ > 0) {
        size_t remaining = static_cast<size_t>(bound_ - pos_);
        if (want > remaining) want = remaining;
      }
      SEDNA_ASSIGN_OR_RETURN(bool got, PullBatch(ctx_, in_.get(), &buf_, want));
      if (!got) {
        in_.reset();
        break;
      }
      for (size_t i = 0; i < buf_.size() && in_ != nullptr; ++i) {
        cur_ = std::move(buf_[i]);
        pos_++;
        SEDNA_ASSIGN_OR_RETURN(bool keep, Evaluate());
        if (bound_ > 0 && pos_ >= bound_) {
          // No later position can satisfy the predicate.
          ctx_.Count(&ExecStats::early_exits);
          in_.reset();
        }
        if (keep) out->push_back(std::move(cur_));
      }
    }
    return !out->empty();
  }

 private:
  StatusOr<bool> Evaluate() {
    // [n]: the position alone decides, no evaluation needed.
    if (pred_->kind == ExprKind::kLiteralInt) {
      return pos_ == pred_->int_val;
    }
    const Item* saved_item = ctx_.context_item;
    int64_t saved_pos = ctx_.context_pos;
    int64_t saved_size = ctx_.context_size;
    ctx_.context_item = &cur_;
    ctx_.context_pos = pos_;
    ctx_.context_size = -1;
    StatusOr<Sequence> value = Eval(*pred_, ctx_);
    ctx_.context_item = saved_item;
    ctx_.context_pos = saved_pos;
    ctx_.context_size = saved_size;
    if (!value.ok()) return value.status();
    if (value->size() == 1 && (*value)[0].is_numeric()) {
      return (*value)[0].as_double() == static_cast<double>(pos_);
    }
    return EffectiveBooleanValue(ctx_.op, *value);
  }

  ExecContext& ctx_;
  StreamPtr in_;
  const Expr* pred_;
  int64_t bound_;
  int64_t pos_ = 0;
  Item cur_;
  ItemBatch buf_;
};

StatusOr<StreamPtr> WrapPredicates(ExecContext& ctx, StreamPtr in,
                                   const std::vector<ExprPtr>& preds) {
  for (const auto& pred : preds) {
    if (PredNeedsLast(*pred)) {
      // The predicate may consult last(): the context size must be known,
      // so the input is materialized at this point. The buffer is charged
      // against the statement's memory budget; filtering only shrinks it,
      // so the original charge stays an upper bound until the stream dies.
      Sequence buf;
      MemoryReservation reservation(ctx.query);
      SEDNA_RETURN_IF_ERROR(
          DrainStreamCharged(ctx, in.get(), &buf, &reservation));
      ctx.Count(&ExecStats::streams_materialized);
      SEDNA_ASSIGN_OR_RETURN(buf, ApplyPredicate(*pred, std::move(buf), ctx));
      in = MakeSequenceStream(std::move(buf), std::move(reservation));
    } else {
      in = std::make_unique<PredicateStream>(ctx, std::move(in), pred.get());
    }
  }
  return in;
}

/// One axis step applied to one origin node, delivering matching candidates
/// lazily. The descendant axes walk the subtree in document order with an
/// explicit stack; the remaining axes are enumerated up front (they are
/// bounded by siblings/ancestors) and filtered lazily.
class AxisMatchStream final : public ItemStream {
 public:
  AxisMatchStream(ExecContext& ctx, Item origin, const Step* step)
      : ctx_(ctx), origin_(std::move(origin)), step_(step) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    if (done_) return false;
    if (!opened_) {
      SEDNA_RETURN_IF_ERROR(Open());
      opened_ = true;
    }
    if (dfs_) {
      while (out->size() < max) {
        if (stack_.empty()) {
          done_ = true;
          break;
        }
        Frame& top = stack_.back();
        if (top.idx >= top.nodes.size()) {
          stack_.pop_back();
          continue;
        }
        // Copy out and advance before pushing: push_back invalidates `top`.
        Item cand = std::move(top.nodes[top.idx]);
        top.idx++;
        ctx_.Count(&ExecStats::axis_nodes);
        SEDNA_ASSIGN_OR_RETURN(Sequence kids, NodeChildren(ctx_.op, cand));
        if (!kids.empty()) stack_.push_back(Frame{std::move(kids), 0});
        SEDNA_ASSIGN_OR_RETURN(
            bool match, MatchesTest(ctx_, cand, step_->test, step_->axis));
        if (match) out->push_back(std::move(cand));
      }
      return !out->empty();
    }
    while (pos_ < buffer_.size() && out->size() < max) {
      Item cand = std::move(buffer_[pos_++]);
      SEDNA_ASSIGN_OR_RETURN(
          bool match, MatchesTest(ctx_, cand, step_->test, step_->axis));
      if (match) out->push_back(std::move(cand));
    }
    if (pos_ >= buffer_.size()) done_ = true;
    return !out->empty();
  }

 private:
  struct Frame {
    Sequence nodes;
    size_t idx = 0;
  };

  Status Open() {
    if (step_->axis == Axis::kDescendant ||
        step_->axis == Axis::kDescendantOrSelf) {
      dfs_ = true;
      if (step_->axis == Axis::kDescendantOrSelf) {
        // Seeding the stack with the origin itself emits it first
        // (preorder = document order).
        stack_.push_back(Frame{Sequence{origin_}, 0});
      } else {
        SEDNA_ASSIGN_OR_RETURN(Sequence kids, NodeChildren(ctx_.op, origin_));
        if (!kids.empty()) stack_.push_back(Frame{std::move(kids), 0});
      }
      return Status::OK();
    }
    SEDNA_ASSIGN_OR_RETURN(buffer_, AxisNodes(ctx_, origin_, step_->axis));
    ctx_.Count(&ExecStats::axis_nodes, buffer_.size());
    return Status::OK();
  }

  ExecContext& ctx_;
  Item origin_;
  const Step* step_;
  bool opened_ = false;
  bool done_ = false;
  bool dfs_ = false;
  std::vector<Frame> stack_;
  Sequence buffer_;
  size_t pos_ = 0;
};

/// One location step over a stream of origin nodes: for each input node a
/// fresh axis pipeline (with the step's predicates — positions restart per
/// origin node, matching the eager semantics) is pulled to exhaustion.
class StepStream final : public ItemStream {
 public:
  StepStream(ExecContext& ctx, StreamPtr in, const Step* step)
      : ctx_(ctx), in_(std::move(in)), step_(step) {
    origins_.Reset(in_.get());
  }

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    for (;;) {
      while (inner_ != nullptr && out->size() < max) {
        SEDNA_ASSIGN_OR_RETURN(
            bool got, PullBatch(ctx_, inner_.get(), &buf_, max - out->size()));
        if (!got) {
          inner_.reset();
          break;
        }
        for (Item& item : buf_) out->push_back(std::move(item));
      }
      if (out->size() >= max) return true;
      if (done_) return !out->empty();
      // Origins refill at the caller's batch size: a max=1 early-exit
      // consumer advances one origin at a time, a full drain amortizes.
      SEDNA_ASSIGN_OR_RETURN(bool got, origins_.Next(ctx_, &cur_, max));
      if (!got) {
        done_ = true;
        return !out->empty();
      }
      if (!cur_.is_node()) {
        return Status::InvalidArgument(
            "path step applied to an atomic value");
      }
      StreamPtr axis = std::make_unique<AxisMatchStream>(ctx_, cur_, step_);
      SEDNA_ASSIGN_OR_RETURN(
          inner_, WrapPredicates(ctx_, std::move(axis), step_->predicates));
    }
  }

 private:
  ExecContext& ctx_;
  StreamPtr in_;
  BatchReader origins_;
  StreamPtr inner_;
  const Step* step_;
  Item cur_;
  ItemBatch buf_;
  bool done_ = false;
};

/// Lazy scan of all nodes under one schema node (Section 5.1.4), in
/// document order via the storage engine's schema-node chains.
class SchemaScanStream final : public ItemStream {
 public:
  SchemaScanStream(ExecContext& ctx, DocumentStore* doc, SchemaNode* sn)
      : ctx_(ctx), doc_(doc), sn_(sn) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    while (!done_ && out->size() < max) {
      if (!opened_) {
        opened_ = true;
        SEDNA_ASSIGN_OR_RETURN(cur_,
                               doc_->nodes()->FirstOfSchema(ctx_.op, sn_));
      } else {
        SEDNA_ASSIGN_OR_RETURN(cur_,
                               doc_->nodes()->NextSameSchema(ctx_.op, cur_));
      }
      if (!cur_) {
        done_ = true;
        break;
      }
      out->push_back(Item(StoredNode{doc_, cur_}));
    }
    return !out->empty();
  }

 private:
  ExecContext& ctx_;
  DocumentStore* doc_;
  SchemaNode* sn_;
  Xptr cur_;
  bool opened_ = false;
  bool done_ = false;
};

/// Materialization barrier: drains the stream, runs distinct-document-order
/// and re-streams the result.
StatusOr<StreamPtr> MaterializeDdo(ExecContext& ctx, StreamPtr in) {
  Sequence buf;
  MemoryReservation reservation(ctx.query);
  SEDNA_RETURN_IF_ERROR(DrainStreamCharged(ctx, in.get(), &buf, &reservation));
  ctx.Count(&ExecStats::streams_materialized);
  ctx.Count(&ExecStats::ddo_ops);
  ctx.Count(&ExecStats::ddo_items, buf.size());
  SEDNA_RETURN_IF_ERROR(DistinctDocOrder(ctx.op, &buf));
  return MakeSequenceStream(std::move(buf), std::move(reservation));
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel exchange (DESIGN.md §11)
// ---------------------------------------------------------------------------

/// A path scan only goes parallel once the schema node's chain spans at
/// least this many blocks — below that the thread launch outweighs the scan.
constexpr size_t kMinExchangeBlocks = 2;

/// Target morsels per worker: enough claims for load balancing, few enough
/// that the per-morsel result handoff stays negligible.
constexpr size_t kMorselsPerWorker = 4;

/// Everything the worker threads share. Owned by the exchange stream and
/// destroyed only after the pool has joined every worker.
struct ExchangeState {
  DocumentStore* doc = nullptr;
  SchemaNode* sn = nullptr;
  const Expr* path = nullptr;
  size_t first_step = 0;  // first step index past the schema fragment
  const std::vector<ExprPtr>* frag_preds = nullptr;
  std::vector<Xptr> blocks;
  size_t blocks_per_morsel = 1;
  ProfileNode* exchange_node = nullptr;  // EXPLAIN root of the exchange
  // One private context + stats block per worker; stats merge into the
  // statement's block when the exchange finishes.
  std::vector<ExecContext> worker_ctx;
  std::vector<ExecStats> worker_stats;
};

/// Applies path.steps[begin..] over `in` — the shared tail of the serial
/// path pipeline, the exchange's serial fallback and each worker's
/// per-morsel plan.
StatusOr<StreamPtr> ApplyStepsFrom(ExecContext& ctx, StreamPtr in,
                                   const Expr& path, size_t begin) {
  for (size_t i = begin; i < path.steps.size(); ++i) {
    const Step& step = path.steps[i];
    in = MaybeProfile(ctx, StepLabel(step),
                      std::make_unique<StepStream>(ctx, std::move(in), &step));
    if (step.needs_ddo) {
      // The rewriter could not prove the step order-safe (Section 5.1.1):
      // DDO is the pipeline's materialization barrier.
      SEDNA_ASSIGN_OR_RETURN(in, MaterializeDdo(ctx, std::move(in)));
      in = MaybeProfile(ctx, "ddo", std::move(in));
    }
  }
  return in;
}

/// Lazy scan over a contiguous block range of one schema node's chain: one
/// page pin per block, nodes delivered in chain (document) order. Polls the
/// exchange abort flag once per batch so a failed sibling worker or a
/// consumer early-exit cuts the morsel short mid-scan.
class MorselScanStream final : public ItemStream {
 public:
  MorselScanStream(ExecContext& ctx, DocumentStore* doc,
                   const std::vector<Xptr>* blocks, size_t begin, size_t end,
                   const std::atomic<bool>* abort)
      : ctx_(ctx),
        doc_(doc),
        blocks_(blocks),
        next_block_(begin),
        end_(end),
        abort_(abort) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) {
      return Status::Cancelled("morsel exchange aborted");
    }
    while (out->size() < max) {
      if (pos_ >= buf_.size()) {
        if (next_block_ >= end_) break;
        buf_.clear();
        pos_ = 0;
        SEDNA_RETURN_IF_ERROR(doc_->nodes()->ScanBlockNodes(
            ctx_.op, (*blocks_)[next_block_++], &buf_));
        continue;
      }
      out->push_back(Item(StoredNode{doc_, buf_[pos_++]}));
    }
    return !out->empty();
  }

 private:
  ExecContext& ctx_;
  DocumentStore* doc_;
  const std::vector<Xptr>* blocks_;
  size_t next_block_;
  size_t end_;
  const std::atomic<bool>* abort_;
  std::vector<Xptr> buf_;
  size_t pos_ = 0;
};

/// One morsel, run on one worker: block-range scan -> fragment predicate
/// filter -> the path's remaining (exchange-safe, downward) steps with
/// per-worker DDO barriers -> charged drain. Per-morsel DDO composes to
/// global DDO because morsels partition the chain in document order and
/// downward steps keep results inside their origins' disjoint subtrees.
Status RunExchangeMorsel(ExchangeState& state, const std::atomic<bool>* abort,
                         size_t worker, size_t morsel, MorselOutput* out) {
  ExecContext& wctx = state.worker_ctx[worker];
  size_t begin = morsel * state.blocks_per_morsel;
  size_t end = std::min(begin + state.blocks_per_morsel,
                        state.blocks.size());
  StreamPtr s = MaybeProfile(
      wctx, "morsel-scan",
      std::make_unique<MorselScanStream>(wctx, state.doc, &state.blocks,
                                         begin, end, abort));
  if (!state.frag_preds->empty()) {
    SEDNA_ASSIGN_OR_RETURN(s,
                           WrapPredicates(wctx, std::move(s),
                                          *state.frag_preds));
  }
  SEDNA_ASSIGN_OR_RETURN(
      s, ApplyStepsFrom(wctx, std::move(s), *state.path, state.first_step));
  out->reservation = MemoryReservation(wctx.query);
  SEDNA_RETURN_IF_ERROR(
      DrainStreamCharged(wctx, s.get(), &out->items, &out->reservation));
  wctx.Count(&ExecStats::morsels_dispatched);
  return Status::OK();
}

/// Parent side of the exchange: collects morsel outputs strictly in morsel
/// order (= document order) and re-streams them. Any failure — a worker
/// tripping governance, an injected allocation fault, a storage error —
/// aborts the whole pool; Finish() joins every worker and folds their
/// private stats into the statement's exactly once, on whichever path the
/// stream dies (exhaustion, error, or early drop).
class MorselExchangeStream final : public ItemStream {
 public:
  MorselExchangeStream(ExecContext& ctx, std::unique_ptr<ExchangeState> state,
                       size_t morsels, size_t workers)
      : ctx_(ctx), state_(std::move(state)) {
    pool_ = std::make_unique<MorselPool>(
        morsels, workers,
        [this](size_t worker, size_t morsel, MorselOutput* out) {
          return RunExchangeMorsel(*state_, pool_->abort_flag(), worker,
                                   morsel, out);
        });
    ctx_.Count(&ExecStats::exchange_workers, workers);
    pool_->Start();
  }

  ~MorselExchangeStream() override { Finish(); }

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    for (;;) {
      if (cur_ != nullptr) {
        // Delegate wholesale, reservation rider included (cf. ChainStream).
        SEDNA_ASSIGN_OR_RETURN(bool got,
                               PullBatch(ctx_, cur_.get(), out, max));
        if (got) return true;
        cur_.reset();
      }
      if (pool_ == nullptr || next_take_ >= pool_->morsel_count()) {
        Finish();
        out->Clear();
        return false;
      }
      StatusOr<MorselOutput> taken = pool_->Take(next_take_++);
      if (!taken.ok()) {
        Status st = taken.status();
        Finish();
        return st;
      }
      cur_ = MakeSequenceStream(std::move(taken->items),
                                std::move(taken->reservation));
    }
  }

 private:
  void Finish() {
    if (finished_) return;
    finished_ = true;
    cur_.reset();
    pool_.reset();  // aborts and joins; un-taken reservations release here
    if (ctx_.stats != nullptr) {
      for (const ExecStats& ws : state_->worker_stats) {
        ctx_.stats->MergeFrom(ws);
      }
    }
  }

  ExecContext& ctx_;
  std::unique_ptr<ExchangeState> state_;
  std::unique_ptr<MorselPool> pool_;  // after state_: joins before state dies
  StreamPtr cur_;
  size_t next_take_ = 0;
  bool finished_ = false;
};

/// Decides serial-vs-parallel at the *first pull* instead of at build time.
/// The exchange is deliberately eager — workers drain whole morsels — so
/// letting it serve an early-exit consumer (exists(), EBV, a [1] filter, a
/// for-binding pulled one at a time) would trade the pipeline's laziness
/// bounds for parallelism that can never pay off. Those consumers announce
/// themselves through max-propagation: they request fewer items than the
/// configured batch size until a cutoff is known. So: first pull asking for
/// a full batch => launch the worker pool; anything smaller => build the
/// ordinary serial schema pipeline and never spawn a thread. A stream that
/// is dropped unpulled costs nothing either way.
class DeferredExchangeStream final : public ItemStream {
 public:
  DeferredExchangeStream(ExecContext& ctx, std::unique_ptr<ExchangeState> state,
                         size_t morsels, size_t workers)
      : ctx_(ctx),
        state_(std::move(state)),
        morsels_(morsels),
        workers_(workers),
        threshold_(ctx.batch_size == 0 ? kDefaultBatchSize : ctx.batch_size) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    if (inner_ == nullptr) {
      if (max >= threshold_) {
        ProfileNode* node = state_->exchange_node;
        StreamPtr ex = std::make_unique<MorselExchangeStream>(
            ctx_, std::move(state_), morsels_, workers_);
        if (node != nullptr) {
          ex = std::make_unique<ProfilingStream>(ctx_, node, std::move(ex));
        }
        inner_ = std::move(ex);
      } else {
        SEDNA_ASSIGN_OR_RETURN(inner_, BuildSerialFallback());
        state_.reset();
      }
    }
    return inner_->NextBatch(out, max);
  }

 private:
  StatusOr<StreamPtr> BuildSerialFallback() {
    ExchangeState& st = *state_;
    StreamPtr in = MaybeProfile(
        ctx_,
        "schema-scan " +
            NodeTestLabel(st.path->steps[st.first_step - 1].test) +
            " (par-eligible)",
        std::make_unique<SchemaScanStream>(ctx_, st.doc, st.sn));
    if (!st.frag_preds->empty()) {
      SEDNA_ASSIGN_OR_RETURN(
          in, WrapPredicates(ctx_, std::move(in), *st.frag_preds));
    }
    return ApplyStepsFrom(ctx_, std::move(in), *st.path, st.first_step);
  }

  ExecContext& ctx_;
  std::unique_ptr<ExchangeState> state_;
  size_t morsels_;
  size_t workers_;
  size_t threshold_;
  StreamPtr inner_;
};

/// The remaining plan may run inside workers only when every step past the
/// fragment carries the rewriter's exchange-safe mark (downward axis, no
/// shared-state predicates), including the fragment-final step itself when
/// it kept predicates.
bool ExchangeEligible(const Expr& path, size_t end) {
  if (!path.steps[end - 1].predicates.empty() &&
      !path.steps[end - 1].exchange_safe) {
    return false;
  }
  for (size_t i = end; i < path.steps.size(); ++i) {
    if (!path.steps[i].exchange_safe) return false;
  }
  return true;
}

/// Builds a morsel exchange for the path when it is eligible and the scan
/// is big enough to pay for threads; returns null to fall back to the
/// serial schema scan.
StatusOr<StreamPtr> TryMorselExchange(ExecContext& ctx, DocumentStore* doc,
                                      SchemaNode* sn, const Expr& path,
                                      size_t end) {
  if (ctx.parallel_workers <= 1 || !ExchangeEligible(path, end)) {
    return StreamPtr();
  }
  SEDNA_ASSIGN_OR_RETURN(std::vector<Xptr> blocks,
                         doc->nodes()->SchemaBlocks(ctx.op, sn));
  if (blocks.size() < kMinExchangeBlocks) return StreamPtr();
  size_t workers = std::min<size_t>(ctx.parallel_workers, blocks.size());
  size_t per = std::max<size_t>(1, blocks.size() / (workers * kMorselsPerWorker));
  size_t morsels = (blocks.size() + per - 1) / per;

  auto state = std::make_unique<ExchangeState>();
  state->doc = doc;
  state->sn = sn;
  state->path = &path;
  state->first_step = end;
  state->frag_preds = &path.steps[end - 1].predicates;
  state->blocks = std::move(blocks);
  state->blocks_per_morsel = per;
  state->worker_stats = std::vector<ExecStats>(workers);

  std::string label = "exchange[" + NodeTestLabel(path.steps[end - 1].test) +
                      " workers=" + std::to_string(workers) +
                      " morsels=" + std::to_string(morsels) + "]";
  // Profile nodes are pre-created here, on the build thread:
  // ProfileNode::Child is find-or-create and not thread-safe, so each
  // worker gets its own subtree root up front and never touches a shared
  // node afterwards.
  ProfileNode* exchange_node =
      ctx.profile != nullptr ? ctx.profile->Child(label) : nullptr;
  state->exchange_node = exchange_node;
  state->worker_ctx.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    ExecContext wctx = ctx;  // op, prolog, vars, toggles, indexes, query
    wctx.stats = &state->worker_stats[w];
    wctx.parallel_workers = 1;  // no nested exchanges
    wctx.on_doc_access = nullptr;  // exchange-safe plans never call doc()
    wctx.context_item = nullptr;
    wctx.context_pos = 0;
    wctx.context_size = 0;
    wctx.profile = exchange_node != nullptr
                       ? exchange_node->Child("worker " + std::to_string(w))
                       : nullptr;
    state->worker_ctx.push_back(std::move(wctx));
  }

  // The pool does not start here: DeferredExchangeStream launches it only
  // if the first pull demands a full batch (see its class comment).
  return StreamPtr(std::make_unique<DeferredExchangeStream>(
      ctx, std::move(state), morsels, workers));
}

/// An index probe must beat the block scan by this factor before the
/// executor abandons the scan plan: B+tree descent plus per-hit indirection
/// and parent-hop resolution cost several page touches per row, while the
/// schema scan streams sequentially through sibling blocks.
constexpr uint64_t kIndexScanCostFactor = 4;

/// Attempts to serve the fragment-final predicated step with a value-index
/// probe. `sns` is the schema-node set of the fragment's result nodes; the
/// single predicate (guaranteed by the rewriter's index_candidate mark)
/// compares a context-relative structural path against a string literal.
/// Resolves the predicate's relative path to the schema nodes holding the
/// key values, asks the index manager for a covering index, and keeps the
/// probe only when its estimated row count undercuts the block scan's
/// cardinality by kIndexScanCostFactor. Returns null to fall back to the
/// scan plan; the probe result is already in document order with the
/// predicate applied, so the caller skips WrapPredicates.
StatusOr<StreamPtr> TryIndexScan(ExecContext& ctx, DocumentStore* doc,
                                 const std::vector<SchemaNode*>& sns,
                                 const Expr& path, size_t end) {
  const Expr& pred = *path.steps[end - 1].predicates[0];
  if (pred.children.size() != 2) return StreamPtr();
  const Expr* lit = pred.children[0].get();
  const Expr* rel = pred.children[1].get();
  if (lit->kind != ExprKind::kLiteralString) std::swap(lit, rel);
  if (lit->kind != ExprKind::kLiteralString) return StreamPtr();

  // Schema nodes whose string value the predicate compares: the fragment
  // nodes themselves for a bare ".", otherwise the relative path resolved
  // through the summary from the fragment's node set.
  std::vector<SchemaNode*> value_sns;
  int hops = 0;
  if (rel->kind == ExprKind::kContextItem) {
    value_sns = sns;
  } else if (rel->kind == ExprKind::kPath) {
    std::vector<SummaryStep> pattern;
    if (!LowerSummarySteps(rel->steps, 0, rel->steps.size(), &pattern)) {
      return StreamPtr();
    }
    hops = static_cast<int>(rel->steps.size());
    value_sns = doc->summary()->ResolveFrom(sns, pattern);
  } else {
    return StreamPtr();
  }
  if (value_sns.empty()) return StreamPtr();

  std::vector<uint32_t> ids;
  ids.reserve(value_sns.size());
  for (const SchemaNode* sn : value_sns) ids.push_back(sn->id);
  std::sort(ids.begin(), ids.end());

  ValueIndexManager::IndexPlan plan;
  if (!ctx.indexes->FindIndexFor(ctx.op, doc, ids, &plan)) {
    return StreamPtr();
  }
  uint64_t scan_cost = 0;
  for (const SchemaNode* sn : sns) scan_cost += sn->node_count;
  if (plan.est_rows * kIndexScanCostFactor >= scan_cost) return StreamPtr();

  SEDNA_ASSIGN_OR_RETURN(
      Sequence rows,
      ctx.indexes->ExecuteIndexScan(ctx.op, plan.name, lit->str_val, ids,
                                    hops));
  ctx.Count(&ExecStats::index_scans);
  MemoryReservation reservation(ctx.query);
  SEDNA_RETURN_IF_ERROR(reservation.Grow(rows.size() * sizeof(Item)));
  std::string label = "index-scan[" + plan.name + ", key='" + lit->str_val +
                      "', est_rows=" + std::to_string(plan.est_rows) + "]";
  return MaybeProfile(ctx, label,
                      MakeSequenceStream(std::move(rows),
                                         std::move(reservation)));
}

StatusOr<StreamPtr> EvalPathStream(const Expr& path, ExecContext& ctx) {
  // Filter expression: predicates over the whole input sequence.
  if (path.str_val == "filter") {
    SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(*path.children[0], ctx));
    return WrapPredicates(ctx, std::move(in), path.steps[0].predicates);
  }

  size_t step_idx = 0;
  StreamPtr in;

  bool schema_candidate =
      !path.steps.empty() && path.steps[0].schema_resolved;
  if (schema_candidate) {
    // Schema resolution needs the input node up front; a structural
    // fragment's input is a single doc() call, so this materializes one
    // item, never a sequence.
    SEDNA_ASSIGN_OR_RETURN(Sequence in_seq, Eval(*path.children[0], ctx));
    bool served = false;
    if (in_seq.size() == 1 && in_seq[0].is_stored_node()) {
      SEDNA_ASSIGN_OR_RETURN(XmlKind kind, NodeKind(ctx.op, in_seq[0]));
      if (kind == XmlKind::kDocument) {
        DocumentStore* doc = in_seq[0].stored().doc;
        size_t end = 0;
        while (end < path.steps.size() && path.steps[end].schema_resolved) {
          end++;
        }
        std::vector<SchemaNode*> sns =
            ResolveSchemaSteps(doc, path.steps, 0, end);
        ctx.Count(&ExecStats::schema_scans);
        // A predicate-extended fragment keeps its final step's
        // (position-free) predicates; the serial paths below apply them as
        // a flat filter over the scan, the exchange runs them per worker.
        const std::vector<ExprPtr>& frag_preds =
            path.steps[end - 1].predicates;
        bool exchanged = false;
        bool index_served = false;
        if (ctx.indexes != nullptr &&
            !sns.empty() && frag_preds.size() == 1 &&
            path.steps[end - 1].index_candidate) {
          SEDNA_ASSIGN_OR_RETURN(StreamPtr probe,
                                 TryIndexScan(ctx, doc, sns, path, end));
          if (probe != nullptr) {
            in = std::move(probe);
            index_served = true;  // predicate consumed; already in doc order
          }
        }
        if (index_served) {
          step_idx = end;
        } else if (sns.empty()) {
          in = MakeEmptyStream();
        } else if (sns.size() == 1) {
          SEDNA_ASSIGN_OR_RETURN(
              in, TryMorselExchange(ctx, doc, sns[0], path, end));
          if (in != nullptr) {
            exchanged = true;  // workers run the remaining steps too
          } else {
            std::string label =
                "schema-scan " + NodeTestLabel(path.steps[end - 1].test);
            if (ExchangeEligible(path, end)) label += " (par-eligible)";
            in = MaybeProfile(
                ctx, label,
                std::make_unique<SchemaScanStream>(ctx, doc, sns[0]));
          }
        } else {
          // Several schema nodes: the doc-order merge needs the whole set.
          SEDNA_ASSIGN_OR_RETURN(Sequence nodes,
                                 EnumerateSchemaNodes(ctx, doc, sns));
          ctx.Count(&ExecStats::streams_materialized);
          MemoryReservation reservation(ctx.query);
          SEDNA_RETURN_IF_ERROR(
              reservation.Grow(nodes.size() * sizeof(Item)));
          in = MaybeProfile(
              ctx, "schema-merge " + NodeTestLabel(path.steps[end - 1].test),
              MakeSequenceStream(std::move(nodes), std::move(reservation)));
        }
        if (exchanged) {
          step_idx = path.steps.size();
        } else if (!index_served) {
          if (!frag_preds.empty()) {
            SEDNA_ASSIGN_OR_RETURN(
                in, WrapPredicates(ctx, std::move(in), frag_preds));
          }
          step_idx = end;
        }
        served = true;
      }
    }
    if (!served) in = MakeSequenceStream(std::move(in_seq));
  } else {
    SEDNA_ASSIGN_OR_RETURN(in, EvalStream(*path.children[0], ctx));
  }

  return ApplyStepsFrom(ctx, std::move(in), path, step_idx);
}

/// Comma operator: concatenates its parts, opening each part's stream only
/// when the previous one is exhausted.
class ChainStream final : public ItemStream {
 public:
  ChainStream(ExecContext& ctx, const std::vector<ExprPtr>* parts)
      : ctx_(ctx), parts_(parts) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    for (;;) {
      if (cur_ != nullptr) {
        // Delegate wholesale: the part's stream clears and refills *out,
        // and any reservation rider passes through untouched. Batches may
        // run short at part boundaries, which the contract allows.
        SEDNA_ASSIGN_OR_RETURN(bool got, PullBatch(ctx_, cur_.get(), out, max));
        if (got) return true;
        cur_.reset();
      }
      if (idx_ >= parts_->size()) {
        out->Clear();
        return false;
      }
      SEDNA_ASSIGN_OR_RETURN(cur_, EvalStream(*(*parts_)[idx_++], ctx_));
    }
  }

 private:
  ExecContext& ctx_;
  const std::vector<ExprPtr>* parts_;
  size_t idx_ = 0;
  StreamPtr cur_;
};

class RangeStream final : public ItemStream {
 public:
  RangeStream(int64_t next, int64_t last) : next_(next), last_(last) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    while (next_ <= last_ && out->size() < max) {
      out->push_back(Item(next_++));
    }
    return !out->empty();
  }

 private:
  int64_t next_;
  int64_t last_;
};

/// Streaming FLWOR (no order-by): an iterative clause odometer. The deepest
/// for-clause advances first; closing a slot restores the variable bindings
/// it shadowed, so dropping a half-consumed stream (an early exit upstream)
/// leaves the context intact. Lazy for-clause domains (Section 5.1.3) are
/// drained once and re-iterated from the cache whenever the slot reopens.
class FlworStream final : public ItemStream {
 public:
  FlworStream(ExecContext& ctx, const Expr* flwor)
      : ctx_(ctx), flwor_(flwor), slots_(flwor->clauses.size()) {}

  ~FlworStream() override { CloseAll(); }

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    if (done_) return false;
    for (;;) {
      while (ret_ != nullptr && out->size() < max) {
        StatusOr<bool> got =
            PullBatch(ctx_, ret_.get(), &buf_, max - out->size());
        if (!got.ok()) return Fail(got.status());
        if (!*got) {
          ret_.reset();
          break;
        }
        for (Item& item : buf_) out->push_back(std::move(item));
      }
      if (out->size() >= max) return true;
      StatusOr<bool> tuple = NextTuple();
      if (!tuple.ok()) return Fail(tuple.status());
      if (!*tuple) {
        CloseAll();
        done_ = true;
        return !out->empty();
      }
      StatusOr<StreamPtr> ret = EvalStream(*flwor_->children[0], ctx_);
      if (!ret.ok()) return Fail(ret.status());
      ret_ = std::move(*ret);
    }
  }

 private:
  struct Slot {
    bool bound = false;  // bindings saved, slot participating
    Sequence saved_var;
    Sequence saved_pos;
    StreamPtr domain;       // non-cached for-clause domain
    BatchReader domain_reader;  // one-binding-at-a-time cursor over domain
    bool use_cache = false;
    bool cache_valid = false;
    Sequence cache;         // lazy domain, evaluated once
    MemoryReservation cache_reservation;  // budget charge for `cache`
    size_t cache_idx = 0;
    int64_t pos = 0;
  };

  bool HasEarlierFor(size_t i) const {
    for (size_t j = 0; j < i; ++j) {
      if (flwor_->clauses[j].kind == FlworClause::Kind::kFor) return true;
    }
    return false;
  }

  StatusOr<bool> OpenSlot(size_t i) {
    const FlworClause& c = flwor_->clauses[i];
    Slot& s = slots_[i];
    if (!s.bound) {
      s.saved_var = std::move(ctx_.vars[c.var]);
      if (!c.pos_var.empty()) {
        s.saved_pos = std::move(ctx_.vars[c.pos_var]);
      }
      s.bound = true;
    }
    if (c.kind == FlworClause::Kind::kLet) {
      SEDNA_ASSIGN_OR_RETURN(Sequence value, Eval(*c.expr, ctx_));
      ctx_.vars[c.var] = std::move(value);
      return true;
    }
    s.pos = 0;
    s.use_cache = c.lazy && HasEarlierFor(i);
    if (s.use_cache) {
      if (!s.cache_valid) {
        // Section 5.1.3: the domain is independent of outer for-variables —
        // evaluate it once and reuse it on every reopen. The cache lives as
        // long as this stream, so its budget charge does too.
        SEDNA_ASSIGN_OR_RETURN(StreamPtr d, EvalStream(*c.expr, ctx_));
        s.cache_reservation = MemoryReservation(ctx_.query);
        SEDNA_RETURN_IF_ERROR(
            DrainStreamCharged(ctx_, d.get(), &s.cache, &s.cache_reservation));
        s.cache_valid = true;
      }
      s.cache_idx = 0;
    } else {
      SEDNA_ASSIGN_OR_RETURN(s.domain, EvalStream(*c.expr, ctx_));
      s.domain_reader.Reset(s.domain.get());
    }
    return StepFor(i);
  }

  StatusOr<bool> StepFor(size_t i) {
    const FlworClause& c = flwor_->clauses[i];
    Slot& s = slots_[i];
    Item item;
    bool has;
    if (s.use_cache) {
      has = s.cache_idx < s.cache.size();
      if (has) item = s.cache[s.cache_idx++];
    } else {
      // One binding per tuple: refilling more would over-pull the domain
      // when the consumer exits early.
      SEDNA_ASSIGN_OR_RETURN(has, s.domain_reader.Next(ctx_, &item, 1));
    }
    if (!has) return false;
    s.pos++;
    Sequence binding;
    binding.push_back(std::move(item));
    ctx_.vars[c.var] = std::move(binding);
    if (!c.pos_var.empty()) {
      ctx_.vars[c.pos_var] = Sequence{Item(s.pos)};
    }
    return true;
  }

  void CloseSlot(size_t i) {
    const FlworClause& c = flwor_->clauses[i];
    Slot& s = slots_[i];
    s.domain_reader.Reset(nullptr);
    s.domain.reset();
    if (!s.bound) return;
    ctx_.vars[c.var] = std::move(s.saved_var);
    if (!c.pos_var.empty()) {
      ctx_.vars[c.pos_var] = std::move(s.saved_pos);
    }
    s.bound = false;
  }

  void CloseAll() {
    // The return stream may still reference current bindings: drop it first.
    ret_.reset();
    for (size_t i = slots_.size(); i > 0; --i) CloseSlot(i - 1);
  }

  Status Fail(Status st) {
    CloseAll();
    done_ = true;
    return st;
  }

  /// Advances to the next tuple of bindings that passes the where clause.
  /// Iterative (a recursive odometer would grow the stack on long runs of
  /// empty inner domains): `k` is the first slot still to open; `advancing`
  /// means the deepest open for-slot below k must step instead.
  StatusOr<bool> NextTuple() {
    const auto& clauses = flwor_->clauses;
    const size_t n = clauses.size();
    size_t k;
    bool advancing;
    if (!started_) {
      started_ = true;
      k = 0;
      advancing = false;
    } else {
      k = n;
      advancing = true;
    }
    for (;;) {
      if (advancing) {
        bool stepped = false;
        while (k > 0) {
          size_t i = k - 1;
          if (clauses[i].kind == FlworClause::Kind::kFor) {
            SEDNA_ASSIGN_OR_RETURN(bool has, StepFor(i));
            if (has) {
              k = i + 1;
              stepped = true;
              break;
            }
          }
          CloseSlot(i);
          k = i;
        }
        if (!stepped) return false;  // every for-slot exhausted
        advancing = false;
        continue;
      }
      bool opened_all = true;
      while (k < n) {
        SEDNA_ASSIGN_OR_RETURN(bool has, OpenSlot(k));
        k++;
        if (!has) {
          // Slot k-1 opened onto an empty domain; the advancing sweep
          // closes it and steps the next for-slot above.
          opened_all = false;
          break;
        }
      }
      if (!opened_all) {
        advancing = true;
        continue;
      }
      if (flwor_->where != nullptr) {
        SEDNA_ASSIGN_OR_RETURN(bool pass, EvalEbv(*flwor_->where, ctx_));
        if (!pass) {
          advancing = true;  // k == n: step the deepest for-slot
          continue;
        }
      }
      return true;
    }
  }

  ExecContext& ctx_;
  const Expr* flwor_;
  std::vector<Slot> slots_;
  StreamPtr ret_;
  ItemBatch buf_;
  bool started_ = false;
  bool done_ = false;
};

/// Streaming quantified expression: pulls the domain one item at a time and
/// stops at the first witness (some) / first counterexample (every).
StatusOr<Sequence> EvalQuantifiedStream(const Expr& expr, ExecContext& ctx) {
  SEDNA_ASSIGN_OR_RETURN(StreamPtr domain, EvalStream(*expr.children[0], ctx));
  Sequence saved = std::move(ctx.vars[expr.var]);
  bool result = expr.every;
  Status st = Status::OK();
  Item item;
  BatchReader reader(domain.get());
  for (;;) {
    // Batch size 1: the first witness/counterexample must stop the
    // upstream pipeline after O(1) items.
    StatusOr<bool> got = reader.Next(ctx, &item, 1);
    if (!got.ok()) {
      st = got.status();
      break;
    }
    if (!*got) break;
    Sequence binding;
    binding.push_back(std::move(item));
    ctx.vars[expr.var] = std::move(binding);
    StatusOr<bool> ebv = EvalEbv(*expr.children[1], ctx);
    if (!ebv.ok()) {
      st = ebv.status();
      break;
    }
    if (*ebv != expr.every) {
      result = !expr.every;
      ctx.Count(&ExecStats::early_exits);
      break;
    }
  }
  domain.reset();
  ctx.vars[expr.var] = std::move(saved);
  SEDNA_RETURN_IF_ERROR(st);
  return Sequence{Item(result)};
}

/// Effective boolean value of an expression, short-circuiting through the
/// stream layer when streaming is enabled.
StatusOr<bool> EvalEbv(const Expr& expr, ExecContext& ctx) {
  if (!ctx.enable_streaming) {
    SEDNA_ASSIGN_OR_RETURN(Sequence value, EvalEager(expr, ctx));
    return EffectiveBooleanValue(ctx.op, value);
  }
  SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(expr, ctx));
  return EffectiveBooleanValueStream(ctx, in.get());
}

/// The operator-construction dispatch behind EvalStream(). The public
/// wrapper handles the eager fallback and profile-tree attachment.
StatusOr<StreamPtr> EvalStreamSwitch(const Expr& expr, ExecContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kPath:
      return EvalPathStream(expr, ctx);
    case ExprKind::kSequence:
      return StreamPtr(std::make_unique<ChainStream>(ctx, &expr.children));
    case ExprKind::kRange: {
      SEDNA_ASSIGN_OR_RETURN(Sequence lo_seq, Eval(*expr.children[0], ctx));
      SEDNA_ASSIGN_OR_RETURN(Sequence hi_seq, Eval(*expr.children[1], ctx));
      SEDNA_ASSIGN_OR_RETURN(Sequence lo, Atomize(ctx.op, lo_seq));
      SEDNA_ASSIGN_OR_RETURN(Sequence hi, Atomize(ctx.op, hi_seq));
      if (lo.empty() || hi.empty()) return MakeEmptyStream();
      if (!lo[0].is_numeric() || !hi[0].is_numeric()) {
        return Status::InvalidArgument("range bounds must be numeric");
      }
      return StreamPtr(std::make_unique<RangeStream>(
          static_cast<int64_t>(lo[0].as_double()),
          static_cast<int64_t>(hi[0].as_double())));
    }
    case ExprKind::kAnd: {
      SEDNA_ASSIGN_OR_RETURN(bool lv, EvalEbv(*expr.children[0], ctx));
      if (!lv) return MakeSingletonStream(Item(false));
      SEDNA_ASSIGN_OR_RETURN(bool rv, EvalEbv(*expr.children[1], ctx));
      return MakeSingletonStream(Item(rv));
    }
    case ExprKind::kOr: {
      SEDNA_ASSIGN_OR_RETURN(bool lv, EvalEbv(*expr.children[0], ctx));
      if (lv) return MakeSingletonStream(Item(true));
      SEDNA_ASSIGN_OR_RETURN(bool rv, EvalEbv(*expr.children[1], ctx));
      return MakeSingletonStream(Item(rv));
    }
    case ExprKind::kIf: {
      SEDNA_ASSIGN_OR_RETURN(bool pass, EvalEbv(*expr.children[0], ctx));
      return EvalStream(*expr.children[pass ? 1 : 2], ctx);
    }
    case ExprKind::kQuantified: {
      SEDNA_ASSIGN_OR_RETURN(Sequence result, EvalQuantifiedStream(expr, ctx));
      return MakeSequenceStream(std::move(result));
    }
    case ExprKind::kFlwor:
      if (expr.order_specs.empty()) {
        return StreamPtr(std::make_unique<FlworStream>(ctx, &expr));
      } else {
        // order by needs every tuple before the first result item: evaluate
        // eagerly behind a barrier and charge the buffered result.
        SEDNA_ASSIGN_OR_RETURN(Sequence result, EvalFlwor(expr, ctx));
        ctx.Count(&ExecStats::streams_materialized);
        MemoryReservation reservation(ctx.query);
        uint64_t result_bytes = 0;
        for (const Item& item : result) result_bytes += ApproxItemBytes(item);
        SEDNA_RETURN_IF_ERROR(reservation.Grow(result_bytes));
        return MakeSequenceStream(std::move(result), std::move(reservation));
      }
    case ExprKind::kVarRef: {
      auto it = ctx.vars.find(expr.str_val);
      if (it == ctx.vars.end()) {
        return Status::InvalidArgument("unbound variable $" + expr.str_val);
      }
      return MakeSequenceStream(it->second);
    }
    case ExprKind::kFunctionCall: {
      bool handled = false;
      StatusOr<StreamPtr> streamed = CallStreamingBuiltin(expr, ctx, &handled);
      if (handled || !streamed.ok()) return streamed;
      SEDNA_ASSIGN_OR_RETURN(Sequence value, EvalFunctionCall(expr, ctx));
      return MakeSequenceStream(std::move(value));
    }
    default: {
      SEDNA_ASSIGN_OR_RETURN(Sequence value, EvalEager(expr, ctx));
      return MakeSequenceStream(std::move(value));
    }
  }
}

}  // namespace

StatusOr<Sequence> Eval(const Expr& expr, ExecContext& ctx) {
  if (!ctx.enable_streaming) return EvalEager(expr, ctx);
  SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(expr, ctx));
  // The caller owns the materialized result, so the budget charge here is
  // transient: it guards the drain itself against unbounded growth (and
  // records the high-water mark), then releases when the reservation dies.
  Sequence out;
  MemoryReservation reservation(ctx.query);
  SEDNA_RETURN_IF_ERROR(DrainStreamCharged(ctx, in.get(), &out, &reservation));
  return out;
}

StatusOr<StreamPtr> EvalStream(const Expr& expr, ExecContext& ctx) {
  if (!ctx.enable_streaming) {
    SEDNA_ASSIGN_OR_RETURN(Sequence value, EvalEager(expr, ctx));
    return MakeSequenceStream(std::move(value));
  }
  if (ctx.profile == nullptr) return EvalStreamSwitch(expr, ctx);
  // Profiled: this operator's node collects the counters; subexpression
  // streams built during construction (and lazily during pulls, via
  // ProfilingStream's focus switch) attach under it.
  ProfileNode* parent = ctx.profile;
  ProfileNode* node = parent->Child(ProfileLabel(expr));
  ctx.profile = node;
  StatusOr<StreamPtr> built = EvalStreamSwitch(expr, ctx);
  ctx.profile = parent;
  if (!built.ok()) return built;
  return StreamPtr(
      std::make_unique<ProfilingStream>(ctx, node, std::move(*built)));
}

StatusOr<bool> EffectiveBooleanValueStream(ExecContext& ctx, ItemStream* in) {
  // Batch size 1 twice: at most two items ever leave the pipeline.
  ItemBatch batch;
  SEDNA_ASSIGN_OR_RETURN(bool got, PullBatch(ctx, in, &batch, 1));
  if (!got) return false;
  Item first = std::move(batch[0]);
  if (first.is_node()) {
    // A node decides immediately: the rest of the pipeline never runs.
    ctx.Count(&ExecStats::early_exits);
    return true;
  }
  SEDNA_ASSIGN_OR_RETURN(bool more, PullBatch(ctx, in, &batch, 1));
  if (more) {
    return Status::InvalidArgument(
        "effective boolean value of a multi-item atomic sequence");
  }
  Sequence one;
  one.push_back(std::move(first));
  return EffectiveBooleanValue(ctx.op, one);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

Status SerializeVirtual(const OpCtx& ctx, const VirtualElement& v,
                        std::string* out);

Status SerializeNodeItem(const OpCtx& ctx, const Item& item,
                         std::string* out) {
  if (item.is_virtual_element()) {
    // The payoff of virtual constructors: serialize straight from the
    // references, no deep copy ever happens.
    return SerializeVirtual(ctx, *item.virtual_element(), out);
  }
  SEDNA_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> node, NodeToXml(ctx, item));
  *out += SerializeXml(*node);
  return Status::OK();
}

Status SerializeVirtual(const OpCtx& ctx, const VirtualElement& v,
                        std::string* out) {
  *out += "<" + v.name;
  for (const Item& attr : v.attributes) {
    SEDNA_ASSIGN_OR_RETURN(std::string name, NodeName(ctx, attr));
    SEDNA_ASSIGN_OR_RETURN(std::string value, NodeStringValue(ctx, attr));
    *out += " " + name + "=\"" + XmlEscape(value, true) + "\"";
  }
  if (v.content.empty()) {
    *out += "/>";
    return Status::OK();
  }
  *out += ">";
  bool prev_atomic = false;
  for (const Item& c : v.content) {
    if (c.is_node()) {
      SEDNA_RETURN_IF_ERROR(SerializeNodeItem(ctx, c, out));
      prev_atomic = false;
    } else {
      if (prev_atomic) *out += ' ';
      *out += XmlEscape(AtomicLexical(c));
      prev_atomic = true;
    }
  }
  *out += "</" + v.name + ">";
  return Status::OK();
}

}  // namespace

StatusOr<std::string> SerializeItem(const OpCtx& ctx, const Item& item) {
  std::string out;
  if (item.is_node()) {
    SEDNA_RETURN_IF_ERROR(SerializeNodeItem(ctx, item, &out));
  } else {
    out = AtomicLexical(item);
  }
  return out;
}

Status IncrementalSerializer::Append(const Item& item, std::string* out) {
  if (item.is_node()) {
    SEDNA_RETURN_IF_ERROR(SerializeNodeItem(ctx_, item, out));
    prev_atomic_ = false;
  } else {
    if (prev_atomic_) *out += ' ';
    *out += AtomicLexical(item);
    prev_atomic_ = true;
  }
  return Status::OK();
}

StatusOr<std::string> SerializeSequence(const OpCtx& ctx,
                                        const Sequence& seq) {
  std::string out;
  IncrementalSerializer ser(ctx);
  for (const Item& item : seq) {
    SEDNA_RETURN_IF_ERROR(ser.Append(item, &out));
  }
  return out;
}

}  // namespace sedna
