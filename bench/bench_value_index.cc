// Ablation — persistent B+tree value indexes (paper Sections 4.1.2, 6.4).
//
// "Node handle is used to refer to an XML node from index structures": the
// B+tree maps typed string values to node handles, so entries survive
// block splits and buffer eviction. This ablation measures, at XMark scale
// (>= 100k nodes):
//   - a point probe through the index-lookup builtin (direct tree descent),
//   - the cost-based planner's automatic index-scan plan for a selective
//     equality predicate vs the same query pinned to the block-scan plan
//     (the >= 20x acceptance ratio lives in these two rows),
//   - a raw B+tree range scan over the key space,
//   - incremental maintenance: the per-statement cost of keeping the tree
//     current through insert/delete cycles (no lazy rebuilds).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "storage/btree_index.h"
#include "xquery/statement.h"
#include "xquery/value_index.h"

namespace sedna {
namespace {

struct IndexFixture {
  std::unique_ptr<StorageEngine> engine;
  std::unique_ptr<ValueIndexManager> indexes;
  std::unique_ptr<StatementExecutor> executor;
  OpCtx ctx;
  std::string probe_key;  // name of a real item mid-document
  uint64_t node_count = 0;
};

IndexFixture& Fixture() {
  static IndexFixture* fixture = [] {
    auto f = new IndexFixture();
    xmlgen::AuctionParams params;
    params.items = 9000;
    params.people = 2000;
    params.open_auctions = 2000;
    params.closed_auctions = 1000;
    params.description_words = 8;
    auto doc = xmlgen::Auction(params);
    StorageOptions options;
    options.path = bench::TempPath("idx") + ".sedna";
    options.buffer_frames = 8192;
    std::remove(options.path.c_str());
    auto engine = StorageEngine::Create(options);
    SEDNA_CHECK(engine.ok());
    f->engine = std::move(engine).value();
    auto store = f->engine->CreateDocument(f->ctx, "bench");
    SEDNA_CHECK(store.ok());
    SEDNA_CHECK((*store)->Load(f->ctx, *doc).ok());
    f->indexes = std::make_unique<ValueIndexManager>(f->engine.get());
    f->executor = std::make_unique<StatementExecutor>(f->engine.get());
    f->executor->set_index_manager(f->indexes.get());
    auto created = f->executor->Execute(
        "CREATE INDEX 'by-name' ON doc('bench')//item/name", f->ctx);
    SEDNA_CHECK(created.ok()) << created.status().ToString();

    auto nodes =
        f->executor->Execute("count(doc('bench')//node())", f->ctx);
    SEDNA_CHECK(nodes.ok());
    f->node_count = std::stoull(nodes->serialized);
    SEDNA_CHECK(f->node_count >= 100000u)
        << "XMark document below the 100k-node scale bar: " << f->node_count;

    auto key = f->executor->Execute(
        "string((doc('bench')//item/name)[2777])", f->ctx);
    SEDNA_CHECK(key.ok());
    f->probe_key = key->serialized;

    // The planner must choose the index automatically for the selective
    // predicate — the ablation is meaningless if both rows block-scan.
    auto plan = f->executor->Execute(
        "explain count(doc('bench')//item[name = '" + f->probe_key + "'])",
        f->ctx);
    SEDNA_CHECK(plan.ok());
    SEDNA_CHECK(plan->profile_text.find("index-scan[by-name") !=
                std::string::npos)
        << plan->profile_text;
    return f;
  }();
  return *fixture;
}

const std::string& SelectiveQuery() {
  static const std::string* q = new std::string(
      "count(doc('bench')//item[name = '" + Fixture().probe_key + "'])");
  return *q;
}

// Direct probe through the index-lookup builtin: B+tree descent plus the
// document-order merge of the handle list.
void BM_IndexPointLookup(benchmark::State& state) {
  auto& f = Fixture();
  const std::string query =
      "count(index-lookup('by-name', '" + f.probe_key + "'))";
  for (auto _ : state) {
    auto r = f.executor->Execute(query, f.ctx);
    SEDNA_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r->serialized);
  }
  state.counters["doc_nodes"] = static_cast<double>(f.node_count);
}
BENCHMARK(BM_IndexPointLookup);

// The full pipeline with the cost-based planner free to pick the index
// plan (it does — asserted in the fixture).
void BM_IndexScanPlan(benchmark::State& state) {
  auto& f = Fixture();
  uint64_t scans = 0;
  for (auto _ : state) {
    auto r = f.executor->Execute(SelectiveQuery(), f.ctx);
    SEDNA_CHECK(r.ok()) << r.status().ToString();
    scans += r->stats.index_scans.load();
    benchmark::DoNotOptimize(r->serialized);
  }
  state.counters["index_scans"] = static_cast<double>(scans);
}
BENCHMARK(BM_IndexScanPlan);

// The same query pinned to the block-scan plan: every //item subtree is
// walked and the predicate evaluated per node. The IndexScanPlan/this
// ratio is the ablation's headline number (acceptance: >= 20x).
void BM_BlockScanPlan(benchmark::State& state) {
  auto& f = Fixture();
  RewriteOptions no_index;
  no_index.use_value_indexes = false;
  for (auto _ : state) {
    auto r = f.executor->Execute(SelectiveQuery(), f.ctx, no_index);
    SEDNA_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r->serialized);
  }
}
BENCHMARK(BM_BlockScanPlan);

// Raw persistent-tree range scan: how fast the slotted pages stream a key
// window back out, independent of the query pipeline.
void BM_BtreeRangeScan(benchmark::State& state) {
  auto& f = Fixture();
  static Xptr meta = [&] {
    auto created = BtreeIndex::Create(f.engine->env(), f.ctx);
    SEDNA_CHECK(created.ok());
    BtreeIndex tree(f.engine->env(), *created);
    char buf[16];
    for (uint64_t i = 0; i < 100000; ++i) {
      std::snprintf(buf, sizeof buf, "k%08llu",
                    static_cast<unsigned long long>(i));
      SEDNA_CHECK(tree.Insert(f.ctx, buf, Xptr((i + 1) * 8)).ok());
    }
    return *created;
  }();
  BtreeIndex tree(f.engine->env(), meta);
  uint64_t returned = 0;
  for (auto _ : state) {
    std::vector<std::pair<std::string, Xptr>> out;
    SEDNA_CHECK(tree.ScanRange(f.ctx, "k00042000", "k00043000", false, &out)
                    .ok());
    returned += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows_per_scan"] =
      benchmark::Counter(static_cast<double>(returned),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_BtreeRangeScan);

// Incremental maintenance: each iteration inserts an item (index entry
// added on commit) and deletes it again (entry removed). The tree absorbs
// both without a rebuild — `rebuilds` must not move, `maintenance_ops`
// must. A probe after each cycle keeps the tree honest.
void BM_IncrementalMaintenance(benchmark::State& state) {
  auto& f = Fixture();
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* rebuilds = reg.counter("index.rebuilds");
  Counter* maintenance_ops = reg.counter("index.maintenance_ops");
  const uint64_t rebuilds_before = rebuilds->value();
  const uint64_t maintenance_before = maintenance_ops->value();
  int tick = 0;
  for (auto _ : state) {
    std::string name = "bench-maint-" + std::to_string(tick++);
    auto ins = f.executor->Execute(
        "UPDATE insert <item><name>" + name +
            "</name><quantity>1</quantity></item> "
            "into doc('bench')/site/regions/europe",
        f.ctx);
    SEDNA_CHECK(ins.ok()) << ins.status().ToString();
    auto hit = f.executor->Execute(
        "count(index-lookup('by-name', '" + name + "'))", f.ctx);
    SEDNA_CHECK(hit.ok() && hit->serialized == "1")
        << hit.status().ToString() << " " << hit->serialized;
    auto del = f.executor->Execute(
        "UPDATE delete doc('bench')//item[name = '" + name + "']", f.ctx);
    SEDNA_CHECK(del.ok()) << del.status().ToString();
  }
  SEDNA_CHECK(rebuilds->value() == rebuilds_before)
      << "incremental maintenance fell back to a rebuild";
  state.counters["maintenance_ops"] =
      static_cast<double>(maintenance_ops->value() - maintenance_before);
  state.counters["rebuilds"] = static_cast<double>(rebuilds->value());
}
BENCHMARK(BM_IncrementalMaintenance);

}  // namespace
}  // namespace sedna

SEDNA_BENCH_MAIN(bench_value_index)
