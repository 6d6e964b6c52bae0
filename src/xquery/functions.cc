#include "xquery/functions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/string_util.h"
#include "xquery/value_index.h"

namespace sedna {

namespace {

Status SingleNumeric(const OpCtx& ctx, const Sequence& seq, double* out,
                     bool* empty) {
  SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx, seq));
  if (atoms.empty()) {
    *empty = true;
    return Status::OK();
  }
  *empty = false;
  if (atoms.size() != 1) {
    return Status::InvalidArgument("expected a single numeric value");
  }
  if (atoms[0].is_numeric()) {
    *out = atoms[0].as_double();
    return Status::OK();
  }
  if (atoms[0].is_string() && ParseDouble(atoms[0].str(), out)) {
    return Status::OK();
  }
  return Status::InvalidArgument("expected a numeric value");
}

StatusOr<std::string> SingleString(const OpCtx& ctx, const Sequence& seq) {
  SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx, seq));
  if (atoms.empty()) return std::string();
  if (atoms.size() != 1) {
    return Status::InvalidArgument("expected a single string value");
  }
  return AtomicLexical(atoms[0]);
}

StatusOr<Sequence> NumericAggregate(const OpCtx& ctx, const Sequence& arg,
                                    const std::string& which) {
  SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx, arg));
  if (atoms.empty()) {
    if (which == "sum") return Sequence{Item(static_cast<int64_t>(0))};
    return Sequence{};
  }
  bool all_int = true;
  double sum = 0, mn = 0, mx = 0;
  int64_t isum = 0;
  for (size_t i = 0; i < atoms.size(); ++i) {
    double v;
    if (atoms[i].is_numeric()) {
      v = atoms[i].as_double();
      if (!atoms[i].is_integer()) all_int = false;
    } else if (atoms[i].is_string() && ParseDouble(atoms[i].str(), &v)) {
      all_int = false;
    } else {
      return Status::InvalidArgument(which + "() over non-numeric values");
    }
    if (atoms[i].is_integer()) isum += atoms[i].integer();
    sum += v;
    mn = i == 0 ? v : std::min(mn, v);
    mx = i == 0 ? v : std::max(mx, v);
  }
  if (which == "sum") {
    return Sequence{all_int ? Item(isum) : Item(sum)};
  }
  if (which == "avg") return Sequence{Item(sum / atoms.size())};
  if (which == "min") {
    return Sequence{all_int ? Item(static_cast<int64_t>(mn)) : Item(mn)};
  }
  return Sequence{all_int ? Item(static_cast<int64_t>(mx)) : Item(mx)};
}

}  // namespace

bool IsBuiltinFunction(const std::string& name) {
  static const std::set<std::string>* names = new std::set<std::string>{
      "doc",        "count",          "sum",          "avg",
      "min",        "max",            "empty",        "exists",
      "not",        "boolean",        "true",         "false",
      "string",     "data",           "number",       "string-length",
      "concat",     "contains",       "starts-with",  "ends-with",
      "substring",  "substring-before", "substring-after", "upper-case",
      "lower-case", "normalize-space", "string-join", "name",
      "local-name", "distinct-values", "position",    "last",
      "floor",      "ceiling",        "round",        "abs",
      "reverse",    "index-of",       "op:union",     "root",
      "deep-equal", "zero-or-one",    "exactly-one",  "subsequence",
      "index-lookup",
  };
  return names->count(name) > 0;
}

StatusOr<Sequence> CallBuiltin(const std::string& name,
                               std::vector<Sequence>& args, ExecContext& ctx,
                               bool* found) {
  *found = true;
  const size_t n = args.size();

  if (name == "index-lookup" && n == 2) {
    if (ctx.indexes == nullptr) {
      return Status::FailedPrecondition("no index manager configured");
    }
    SEDNA_ASSIGN_OR_RETURN(std::string idx, SingleString(ctx.op, args[0]));
    SEDNA_ASSIGN_OR_RETURN(std::string key, SingleString(ctx.op, args[1]));
    // The index is document state: read it under its document's lock, as
    // doc() reads the document.
    SEDNA_ASSIGN_OR_RETURN(std::string doc_name, ctx.indexes->DocumentOf(idx));
    if (ctx.on_doc_access) {
      SEDNA_RETURN_IF_ERROR(
          ctx.on_doc_access(doc_name, ctx.doc_access_exclusive));
    }
    // Lookup deduplicates into document order itself (the persistent
    // index's contract); no extra DDO pass here.
    return ctx.indexes->Lookup(ctx.op, doc_name, idx, key);
  }
  if (name == "doc" && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(std::string doc_name,
                           SingleString(ctx.op, args[0]));
    if (ctx.on_doc_access) {
      SEDNA_RETURN_IF_ERROR(
          ctx.on_doc_access(doc_name, ctx.doc_access_exclusive));
    }
    SEDNA_ASSIGN_OR_RETURN(DocumentStore * doc,
                           ctx.storage->GetDocument(doc_name));
    SEDNA_ASSIGN_OR_RETURN(
        Xptr root, doc->indirection()->Get(ctx.op, doc->root_handle()));
    return Sequence{Item(StoredNode{doc, root})};
  }
  if (name == "root" && n <= 1) {
    Item start;
    if (n == 1) {
      if (args[0].empty()) return Sequence{};
      start = args[0][0];
    } else {
      if (ctx.context_item == nullptr) {
        return Status::InvalidArgument("root() with no context item");
      }
      start = *ctx.context_item;
    }
    for (;;) {
      SEDNA_ASSIGN_OR_RETURN(Sequence parent, NodeParent(ctx.op, start));
      if (parent.empty()) break;
      start = parent[0];
    }
    return Sequence{start};
  }
  if (name == "count" && n == 1) {
    return Sequence{Item(static_cast<int64_t>(args[0].size()))};
  }
  if ((name == "sum" || name == "avg" || name == "min" || name == "max") &&
      n == 1) {
    return NumericAggregate(ctx.op, args[0], name);
  }
  if (name == "empty" && n == 1) return Sequence{Item(args[0].empty())};
  if (name == "exists" && n == 1) return Sequence{Item(!args[0].empty())};
  if (name == "not" && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(bool v, EffectiveBooleanValue(ctx.op, args[0]));
    return Sequence{Item(!v)};
  }
  if (name == "boolean" && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(bool v, EffectiveBooleanValue(ctx.op, args[0]));
    return Sequence{Item(v)};
  }
  if (name == "true" && n == 0) return Sequence{Item(true)};
  if (name == "false" && n == 0) return Sequence{Item(false)};
  if (name == "string" && n <= 1) {
    if (n == 0) {
      if (ctx.context_item == nullptr) {
        return Status::InvalidArgument("string() with no context item");
      }
      Sequence c{*ctx.context_item};
      SEDNA_ASSIGN_OR_RETURN(std::string s, SingleString(ctx.op, c));
      return Sequence{Item(std::move(s))};
    }
    SEDNA_ASSIGN_OR_RETURN(std::string s, SingleString(ctx.op, args[0]));
    return Sequence{Item(std::move(s))};
  }
  if (name == "data" && n == 1) return Atomize(ctx.op, args[0]);
  if (name == "number" && n == 1) {
    double v;
    bool empty;
    Status st = SingleNumeric(ctx.op, args[0], &v, &empty);
    if (!st.ok() || empty) {
      return Sequence{Item(std::numeric_limits<double>::quiet_NaN())};
    }
    return Sequence{Item(v)};
  }
  if (name == "string-length" && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(std::string s, SingleString(ctx.op, args[0]));
    return Sequence{Item(static_cast<int64_t>(s.size()))};
  }
  if (name == "concat" && n >= 2) {
    std::string out;
    for (const Sequence& arg : args) {
      SEDNA_ASSIGN_OR_RETURN(std::string s, SingleString(ctx.op, arg));
      out += s;
    }
    return Sequence{Item(std::move(out))};
  }
  if ((name == "contains" || name == "starts-with" || name == "ends-with") &&
      n == 2) {
    SEDNA_ASSIGN_OR_RETURN(std::string a, SingleString(ctx.op, args[0]));
    SEDNA_ASSIGN_OR_RETURN(std::string b, SingleString(ctx.op, args[1]));
    bool r;
    if (name == "contains") {
      r = a.find(b) != std::string::npos;
    } else if (name == "starts-with") {
      r = a.rfind(b, 0) == 0;
    } else {
      r = a.size() >= b.size() && a.compare(a.size() - b.size(),
                                            b.size(), b) == 0;
    }
    return Sequence{Item(r)};
  }
  if (name == "substring" && (n == 2 || n == 3)) {
    SEDNA_ASSIGN_OR_RETURN(std::string s, SingleString(ctx.op, args[0]));
    double start_d;
    bool empty;
    SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, args[1], &start_d, &empty));
    if (empty) return Sequence{Item(std::string())};
    int64_t start = static_cast<int64_t>(std::llround(start_d));
    int64_t len = static_cast<int64_t>(s.size()) - (start - 1);
    if (n == 3) {
      double len_d;
      SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, args[2], &len_d, &empty));
      len = empty ? 0 : static_cast<int64_t>(std::llround(len_d));
    }
    int64_t begin = std::max<int64_t>(start, 1);
    int64_t end = start + len;  // exclusive, 1-based
    if (end <= begin || begin > static_cast<int64_t>(s.size())) {
      return Sequence{Item(std::string())};
    }
    end = std::min<int64_t>(end, static_cast<int64_t>(s.size()) + 1);
    return Sequence{Item(s.substr(begin - 1, end - begin))};
  }
  if ((name == "substring-before" || name == "substring-after") && n == 2) {
    SEDNA_ASSIGN_OR_RETURN(std::string a, SingleString(ctx.op, args[0]));
    SEDNA_ASSIGN_OR_RETURN(std::string b, SingleString(ctx.op, args[1]));
    size_t pos = a.find(b);
    if (pos == std::string::npos) return Sequence{Item(std::string())};
    if (name == "substring-before") return Sequence{Item(a.substr(0, pos))};
    return Sequence{Item(a.substr(pos + b.size()))};
  }
  if ((name == "upper-case" || name == "lower-case") && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(std::string s, SingleString(ctx.op, args[0]));
    for (char& c : s) {
      c = name == "upper-case"
              ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
              : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return Sequence{Item(std::move(s))};
  }
  if (name == "normalize-space" && n <= 1) {
    std::string s;
    if (n == 1) {
      SEDNA_ASSIGN_OR_RETURN(s, SingleString(ctx.op, args[0]));
    } else if (ctx.context_item != nullptr) {
      Sequence c{*ctx.context_item};
      SEDNA_ASSIGN_OR_RETURN(s, SingleString(ctx.op, c));
    }
    std::string out;
    bool in_space = true;
    for (char c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!in_space) out += ' ';
        in_space = true;
      } else {
        out += c;
        in_space = false;
      }
    }
    if (!out.empty() && out.back() == ' ') out.pop_back();
    return Sequence{Item(std::move(out))};
  }
  if (name == "string-join" && n == 2) {
    SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx.op, args[0]));
    SEDNA_ASSIGN_OR_RETURN(std::string sep, SingleString(ctx.op, args[1]));
    std::string out;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out += sep;
      out += AtomicLexical(atoms[i]);
    }
    return Sequence{Item(std::move(out))};
  }
  if ((name == "name" || name == "local-name") && n <= 1) {
    Item node;
    if (n == 1) {
      if (args[0].empty()) return Sequence{Item(std::string())};
      node = args[0][0];
    } else {
      if (ctx.context_item == nullptr) {
        return Status::InvalidArgument(name + "() with no context item");
      }
      node = *ctx.context_item;
    }
    if (!node.is_node()) {
      return Status::InvalidArgument(name + "() requires a node");
    }
    SEDNA_ASSIGN_OR_RETURN(std::string qname, NodeName(ctx.op, node));
    if (name == "local-name") {
      size_t colon = qname.find(':');
      if (colon != std::string::npos) qname = qname.substr(colon + 1);
    }
    return Sequence{Item(std::move(qname))};
  }
  if (name == "distinct-values" && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx.op, args[0]));
    Sequence out;
    std::set<std::string> seen_strings;
    std::set<double> seen_numbers;
    for (Item& v : atoms) {
      if (v.is_numeric()) {
        if (seen_numbers.insert(v.as_double()).second) {
          out.push_back(std::move(v));
        }
      } else {
        if (seen_strings.insert(AtomicLexical(v)).second) {
          out.push_back(std::move(v));
        }
      }
    }
    return out;
  }
  if (name == "position" && n == 0) {
    if (ctx.context_pos == 0) {
      return Status::InvalidArgument("position() with no context");
    }
    return Sequence{Item(ctx.context_pos)};
  }
  if (name == "last" && n == 0) {
    if (ctx.context_pos == 0) {
      return Status::InvalidArgument("last() with no context");
    }
    if (ctx.context_size < 0) {
      // A streamed predicate's context size is unknown by construction; the
      // rewriter marks last()-dependent predicates for materialization, so
      // reaching this point is an annotation bug, not a user error.
      return Status::Internal(
          "last() inside a streamed predicate was not materialized");
    }
    return Sequence{Item(ctx.context_size)};
  }
  if ((name == "floor" || name == "ceiling" || name == "round" ||
       name == "abs") &&
      n == 1) {
    double v;
    bool empty;
    SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, args[0], &v, &empty));
    if (empty) return Sequence{};
    double r = name == "floor"     ? std::floor(v)
               : name == "ceiling" ? std::ceil(v)
               : name == "round"   ? std::floor(v + 0.5)
                                   : std::fabs(v);
    if (!args[0].empty() && args[0][0].is_integer()) {
      return Sequence{Item(static_cast<int64_t>(r))};
    }
    return Sequence{Item(r)};
  }
  if (name == "reverse" && n == 1) {
    Sequence out = std::move(args[0]);
    std::reverse(out.begin(), out.end());
    return out;
  }
  if (name == "subsequence" && (n == 2 || n == 3)) {
    double start_d, len_d = 0;
    bool empty;
    SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, args[1], &start_d, &empty));
    if (empty) return Sequence{};
    if (n == 3) {
      SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, args[2], &len_d, &empty));
      if (empty) return Sequence{};
    }
    int64_t start = static_cast<int64_t>(std::llround(start_d));
    int64_t end = n == 3 ? start + static_cast<int64_t>(std::llround(len_d))
                         : static_cast<int64_t>(args[0].size()) + 1;
    Sequence out;
    for (int64_t i = std::max<int64_t>(start, 1);
         i < end && i <= static_cast<int64_t>(args[0].size()); ++i) {
      out.push_back(args[0][i - 1]);
    }
    return out;
  }
  if (name == "index-of" && n == 2) {
    SEDNA_ASSIGN_OR_RETURN(Sequence atoms, Atomize(ctx.op, args[0]));
    SEDNA_ASSIGN_OR_RETURN(Sequence target, Atomize(ctx.op, args[1]));
    Sequence out;
    if (target.size() != 1) {
      return Status::InvalidArgument("index-of needs a single search value");
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      bool eq = false;
      if (atoms[i].is_numeric() || target[0].is_numeric()) {
        double a, b;
        if (ParseDouble(AtomicLexical(atoms[i]), &a) &&
            ParseDouble(AtomicLexical(target[0]), &b)) {
          eq = a == b;
        }
      } else {
        eq = AtomicLexical(atoms[i]) == AtomicLexical(target[0]);
      }
      if (eq) out.push_back(Item(static_cast<int64_t>(i + 1)));
    }
    return out;
  }
  if (name == "op:union" && n == 2) {
    Sequence out = std::move(args[0]);
    out.insert(out.end(), std::make_move_iterator(args[1].begin()),
               std::make_move_iterator(args[1].end()));
    SEDNA_RETURN_IF_ERROR(DistinctDocOrder(ctx.op, &out));
    return out;
  }
  if (name == "deep-equal" && n == 2) {
    SEDNA_ASSIGN_OR_RETURN(std::string a, SerializeSequence(ctx.op, args[0]));
    SEDNA_ASSIGN_OR_RETURN(std::string b, SerializeSequence(ctx.op, args[1]));
    return Sequence{Item(a == b)};
  }
  if (name == "zero-or-one" && n == 1) {
    if (args[0].size() > 1) {
      return Status::InvalidArgument("zero-or-one() got more than one item");
    }
    return std::move(args[0]);
  }
  if (name == "exactly-one" && n == 1) {
    if (args[0].size() != 1) {
      return Status::InvalidArgument("exactly-one() got " +
                                     std::to_string(args[0].size()) +
                                     " items");
    }
    return std::move(args[0]);
  }

  *found = false;
  return Sequence{};
}

namespace {

/// Streaming subsequence(): emits 1-based positions [start, end) and cuts
/// off the upstream pipeline once no further position can qualify.
class SubsequenceStream final : public ItemStream {
 public:
  SubsequenceStream(ExecContext& ctx, StreamPtr in, int64_t start,
                    int64_t end)
      : ctx_(ctx), in_(std::move(in)), start_(start), end_(end) {}

  StatusOr<bool> NextBatch(ItemBatch* out, size_t max) override {
    out->Clear();
    while (in_ != nullptr && out->size() < max) {
      if (pos_ + 1 >= end_) {
        ctx_.Count(&ExecStats::early_exits);
        in_.reset();
        break;
      }
      // The window bounds how much input can still matter: never request
      // past the end position, so the upstream cutoff stays O(window).
      size_t want = max - out->size();
      if (end_ != std::numeric_limits<int64_t>::max()) {
        int64_t remaining = end_ - 1 - pos_;
        if (remaining < static_cast<int64_t>(want)) {
          want = static_cast<size_t>(remaining);
        }
      }
      SEDNA_ASSIGN_OR_RETURN(bool got, PullBatch(ctx_, in_.get(), &buf_, want));
      if (!got) {
        in_.reset();
        break;
      }
      for (Item& item : buf_) {
        pos_++;
        if (pos_ >= start_) out->push_back(std::move(item));
      }
    }
    return !out->empty();
  }

 private:
  ExecContext& ctx_;
  StreamPtr in_;
  int64_t start_;
  int64_t end_;
  int64_t pos_ = 0;
  ItemBatch buf_;
};

}  // namespace

StatusOr<StreamPtr> CallStreamingBuiltin(const Expr& call, ExecContext& ctx,
                                         bool* handled) {
  *handled = true;
  const std::string& name = call.str_val;
  const size_t n = call.children.size();
  if ((name == "exists" || name == "empty") && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(*call.children[0], ctx));
    // Batch size 1: one item decides, the pipeline never runs further.
    ItemBatch probe;
    SEDNA_ASSIGN_OR_RETURN(bool got, PullBatch(ctx, in.get(), &probe, 1));
    if (got) ctx.Count(&ExecStats::early_exits);
    return MakeSingletonStream(Item(name == "exists" ? got : !got));
  }
  if ((name == "not" || name == "boolean") && n == 1) {
    SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(*call.children[0], ctx));
    SEDNA_ASSIGN_OR_RETURN(bool value,
                           EffectiveBooleanValueStream(ctx, in.get()));
    return MakeSingletonStream(Item(name == "not" ? !value : value));
  }
  if (name == "count" && n == 1) {
    // Counts without buffering: O(1) memory however long the sequence.
    SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(*call.children[0], ctx));
    int64_t count = 0;
    ItemBatch batch;
    size_t max = ctx.batch_size == 0 ? kDefaultBatchSize : ctx.batch_size;
    for (;;) {
      SEDNA_ASSIGN_OR_RETURN(bool got, PullBatch(ctx, in.get(), &batch, max));
      if (!got) break;
      count += static_cast<int64_t>(batch.size());
    }
    return MakeSingletonStream(Item(count));
  }
  if (name == "subsequence" && (n == 2 || n == 3)) {
    double start_d, len_d = 0;
    bool empty;
    SEDNA_ASSIGN_OR_RETURN(Sequence start_seq, Eval(*call.children[1], ctx));
    SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, start_seq, &start_d, &empty));
    if (empty) return MakeEmptyStream();
    int64_t end = std::numeric_limits<int64_t>::max();
    if (n == 3) {
      SEDNA_ASSIGN_OR_RETURN(Sequence len_seq, Eval(*call.children[2], ctx));
      SEDNA_RETURN_IF_ERROR(SingleNumeric(ctx.op, len_seq, &len_d, &empty));
      if (empty) return MakeEmptyStream();
      end = static_cast<int64_t>(std::llround(start_d)) +
            static_cast<int64_t>(std::llround(len_d));
    }
    int64_t start =
        std::max<int64_t>(static_cast<int64_t>(std::llround(start_d)), 1);
    SEDNA_ASSIGN_OR_RETURN(StreamPtr in, EvalStream(*call.children[0], ctx));
    return StreamPtr(
        std::make_unique<SubsequenceStream>(ctx, std::move(in), start, end));
  }
  *handled = false;
  return StreamPtr();
}

}  // namespace sedna
