// E16 — group-commit throughput under concurrent writers.
//
// Open-loop writer sweep (1/2/4/8 threads) through the full Database/
// Session autocommit path: every iteration is one small update transaction
// whose commit must reach the disk before it is acknowledged. Before group
// commit, N writers paid N fsyncs; with WalWriter::WaitDurable, one waiter
// leads a sync that covers every commit appended so far, so aggregate
// items_per_second (= commits/sec, summed over threads) should scale with
// the writer count while wal_syncs stays well below commits.
//
// Counters (measured over the timed region, reported by thread 0):
//   commits           total acknowledged commits
//   wal_syncs         fsyncs the WAL issued for them
//   group_commits     leader batches formed
//   syncs_per_commit  wal_syncs / commits — < 1.0 means batching works
//
// Each writer updates its own document, so the sweep measures the commit
// path, not document write-lock contention.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"

namespace sedna {
namespace {

constexpr int kMaxWriters = 8;

Database& CommitDb() {
  static Database* db = [] {
    auto owned = bench::MakeDatabase("commit");
    auto session = owned->Connect();
    for (int w = 0; w < kMaxWriters; ++w) {
      std::string doc = "w" + std::to_string(w);
      auto created = session->Execute("CREATE DOCUMENT '" + doc + "'");
      SEDNA_CHECK(created.ok()) << created.status().ToString();
      auto seeded = session->Execute(
          "UPDATE insert <r><v>0</v></r> into doc('" + doc + "')");
      SEDNA_CHECK(seeded.ok()) << seeded.status().ToString();
    }
    return owned.release();
  }();
  return *db;
}

void BM_AutocommitWriters(benchmark::State& state) {
  Database& db = CommitDb();
  auto session = db.Connect();
  const std::string statement =
      "UPDATE replace $x in doc('w" + std::to_string(state.thread_index()) +
      "')/r/v with <v>1</v>";

  MetricsRegistry& reg = MetricsRegistry::Global();
  static uint64_t syncs0, groups0;
  if (state.thread_index() == 0) {
    syncs0 = reg.counter("wal.syncs")->value();
    groups0 = reg.counter("wal.group_commits")->value();
  }

  for (auto _ : state) {
    auto r = session->Execute(statement);
    SEDNA_CHECK(r.ok()) << r.status().ToString();
  }

  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    // Every thread runs the same iteration count; the off-by-a-batch skew
    // from threads finishing at different instants is noise at this scale.
    double commits =
        static_cast<double>(state.iterations()) * state.threads();
    double syncs =
        static_cast<double>(reg.counter("wal.syncs")->value() - syncs0);
    double groups = static_cast<double>(
        reg.counter("wal.group_commits")->value() - groups0);
    state.counters["commits"] = commits;
    state.counters["wal_syncs"] = syncs;
    state.counters["group_commits"] = groups;
    state.counters["syncs_per_commit"] = commits > 0 ? syncs / commits : 0.0;
  }
}

BENCHMARK(BM_AutocommitWriters)
    ->ThreadRange(1, kMaxWriters)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace sedna

SEDNA_BENCH_MAIN(bench_commit);
