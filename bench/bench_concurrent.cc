// E13 — concurrent buffer-manager throughput.
//
// The pool is split into shards (hash of the physical page), Unpin/MarkDirty
// are lock-free and fills/writebacks run outside the shard lock, so N reader
// threads should scale instead of convoying on one pool mutex. Each
// benchmark scans the pages of an XMark-like document from N threads
// through Pin/PageGuard (the MT-safe path) or DerefFast (the lock-free fast
// map).
//
//   * Hot: pool larger than the document — every access is a hit, so the
//     benchmark isolates locking/bookkeeping overhead and its scaling.
//   * Hot_Txn: the hot scan through a Database's VersionManager, pinning
//     with a read-write transaction's context — the path every statement's
//     pins take (the plain rows resolve through the bare directory).
//   * Cold: pool much smaller than the document — every scan faults and
//     evicts, so fills and writebacks exercise the parallel-I/O path.
//
// Aggregate throughput is items_per_second (pages touched, summed over
// threads); `hit_rate` is the hit fraction of the pins made during the run,
// from registry deltas.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"

namespace sedna {
namespace {

struct PoolFixture {
  // The storage engine under test: a plain-directory engine, or the one
  // inside `db` (resolving through its VersionManager).
  bench::EngineFixture fx;
  std::unique_ptr<Database> db;
  StorageEngine* engine = nullptr;
  std::unique_ptr<Transaction> txn;  // open for the process lifetime
  ResolveContext ctx;                // what every pin resolves with
  std::vector<Xptr> pages;
};

std::unique_ptr<XmlNode> AuctionDocument() {
  xmlgen::AuctionParams params;
  params.items = 1000;
  params.people = 400;
  params.open_auctions = 500;
  params.closed_auctions = 250;
  return xmlgen::Auction(params);
}

/// Lists the document's pages and warms the pool (and the shared fast map)
/// once; the hot fixtures never evict after this.
PoolFixture* Finish(PoolFixture* f) {
  for (const auto& [lpid, ppn] : f->engine->directory()->Entries()) {
    f->pages.push_back(Xptr(lpid));
  }
  std::sort(f->pages.begin(), f->pages.end(),
            [](Xptr a, Xptr b) { return a.raw < b.raw; });
  SEDNA_CHECK(!f->pages.empty());
  for (Xptr p : f->pages) {
    auto g = f->engine->buffers()->Pin(p, f->ctx, /*for_write=*/false);
    SEDNA_CHECK(g.ok()) << g.status().ToString();
  }
  return f;
}

PoolFixture* MakeFixture(const char* tag, size_t frames,
                         BufferPoolOptions pool) {
  auto* f = new PoolFixture;
  f->fx = bench::EngineFixture::WithDocument(tag, *AuctionDocument(), frames,
                                             pool);
  f->engine = f->fx.engine.get();
  return Finish(f);
}

/// The same document in a Database (MVCC on), pinned with the context of
/// a read-write transaction that stays open and never writes.
PoolFixture* MakeTxnFixture(const char* tag, size_t frames) {
  auto* f = new PoolFixture;
  DatabaseOptions options;
  options.path = bench::TempPath(tag) + ".sedna";
  options.wal_path = bench::TempPath(tag) + ".wal";
  options.buffer_frames = frames;
  std::remove(options.path.c_str());
  std::remove(options.wal_path.c_str());
  auto db = Database::Create(options);
  SEDNA_CHECK(db.ok()) << db.status().ToString();
  f->db = std::move(db).value();
  f->engine = f->db->storage();
  OpCtx load;
  auto doc = f->engine->CreateDocument(load, "bench");
  SEDNA_CHECK(doc.ok()) << doc.status().ToString();
  Status st = (*doc)->Load(load, *AuctionDocument());
  SEDNA_CHECK(st.ok()) << st.ToString();
  auto txn = f->db->txns()->Begin(/*read_only=*/false);
  SEDNA_CHECK(txn.ok()) << txn.status().ToString();
  f->txn = std::move(txn).value();
  f->ctx = f->txn->ctx().resolve;
  return Finish(f);
}

BufferPoolOptions ShardedPool(size_t shards) {
  BufferPoolOptions p;
  p.shard_count = shards;
  return p;
}

PoolFixture& HotSharded() {
  static PoolFixture* f = MakeFixture("e13_hot_sharded", 4096, {});
  return *f;
}
PoolFixture& HotTxn() {
  static PoolFixture* f = MakeTxnFixture("e13_hot_txn", 4096);
  return *f;
}
PoolFixture& ColdSharded() {
  // Explicit 4 shards: the auto heuristic collapses pools this small to one
  // shard for the unit tests' benefit, which is exactly what the cold
  // experiment must not do.
  static PoolFixture* f =
      MakeFixture("e13_cold_sharded", 64, ShardedPool(4));
  return *f;
}

/// Pool-wide hits and faults, summed over the registry's shard counters.
struct PinCounts {
  uint64_t hits = 0;
  uint64_t faults = 0;

  static PinCounts Now() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return {reg.SumCounters("buffer.shard", ".hits"),
            reg.SumCounters("buffer.shard", ".faults")};
  }
};

/// `start` is thread 0's reading before the timed loop; the loop's start
/// and end are barriers for all threads, so the delta covers the run.
void ReportPoolCounters(benchmark::State& state, PoolFixture& f,
                        const PinCounts& start) {
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const PinCounts end = PinCounts::Now();
    const double hits = static_cast<double>(end.hits - start.hits);
    const double total = hits + static_cast<double>(end.faults - start.faults);
    // DerefFast hits bypass the counters, so its runs count no pins.
    if (total > 0) state.counters["hit_rate"] = hits / total;
    state.counters["doc_pages"] = static_cast<double>(f.pages.size());
    state.counters["shards"] =
        static_cast<double>(f.engine->buffers()->shard_count());
  }
}

/// Each thread round-robins over all document pages through Pin, starting
/// at its own offset so every shard sees traffic from every thread.
void ScanPins(benchmark::State& state, PoolFixture& f) {
  const std::vector<Xptr>& pages = f.pages;
  const size_t n = pages.size();
  size_t i = (static_cast<size_t>(state.thread_index()) * n) /
             static_cast<size_t>(state.threads());
  uint64_t sum = 0;
  const PinCounts start = PinCounts::Now();
  for (auto _ : state) {
    auto guard = f.engine->buffers()->Pin(pages[i], f.ctx,
                                          /*for_write=*/false);
    SEDNA_CHECK(guard.ok()) << guard.status().ToString();
    sum += *reinterpret_cast<const uint64_t*>(guard->data());
    i = (i + 1) % n;
  }
  benchmark::DoNotOptimize(sum);
  ReportPoolCounters(state, f, start);
}

void BM_HotScan_Sharded(benchmark::State& state) {
  ScanPins(state, HotSharded());
}
void BM_HotScan_Txn(benchmark::State& state) { ScanPins(state, HotTxn()); }
void BM_ColdScan_Sharded(benchmark::State& state) {
  ScanPins(state, ColdSharded());
}

/// The lock-free fast path: three atomic loads + mask + add per access. Only
/// sound here because the hot pool never evicts after warmup (pointer
/// stability — see the CHECKP note in buffer_manager.h).
void BM_DerefFastHot(benchmark::State& state) {
  PoolFixture& f = HotSharded();
  const std::vector<Xptr>& pages = f.pages;
  const size_t n = pages.size();
  size_t i = (static_cast<size_t>(state.thread_index()) * n) /
             static_cast<size_t>(state.threads());
  uint64_t sum = 0;
  const PinCounts start = PinCounts::Now();
  for (auto _ : state) {
    sum += *static_cast<const uint64_t*>(
        f.engine->buffers()->DerefFast(pages[i]));
    i = (i + 1) % n;
  }
  benchmark::DoNotOptimize(sum);
  ReportPoolCounters(state, f, start);
}

BENCHMARK(BM_HotScan_Sharded)->ThreadRange(1, 8)->UseRealTime();
BENCHMARK(BM_HotScan_Txn)->ThreadRange(1, 8)->UseRealTime();
BENCHMARK(BM_ColdScan_Sharded)->ThreadRange(1, 8)->UseRealTime();
BENCHMARK(BM_DerefFastHot)->ThreadRange(1, 8)->UseRealTime();

}  // namespace
}  // namespace sedna

SEDNA_BENCH_MAIN(bench_concurrent);
