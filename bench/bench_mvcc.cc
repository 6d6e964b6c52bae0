// E9 — snapshot multiversioning vs pure S2PL (paper Sections 6.1-6.3).
//
// Claim: "Multiversioning allows using read-only transactions ... they can
// be executed much faster due to multiversioning. Each query reads one of
// the snapshots ... reading a snapshot allows non-blocking processing
// (i.e. non-S2PL) for read-only transactions."
//
// Workload: one updater commits small replaces in a loop while R reader
// threads run fixed-duration query loops. Two modes:
//   snapshot — readers use read-only transactions (no locks, old versions)
//   s2pl     — readers are ordinary transactions taking shared locks, so
//              they serialize against the updater's exclusive lock
//
// Output: one table row per mode with reads/sec and updates/sec.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace sedna {
namespace {

struct Throughput {
  double reads_per_sec = 0;
  double updates_per_sec = 0;
  uint64_t snapshot_reads = 0;
};

Throughput RunMode(bool snapshot_readers, int reader_threads,
                   int think_time_us, int duration_ms) {
  Counter* snapshot_reads =
      MetricsRegistry::Global().counter("mvcc.snapshot_reads");
  const uint64_t snapshot_reads0 = snapshot_reads->value();
  auto db =
      bench::MakeDatabase(snapshot_readers ? "e9_snap" : "e9_s2pl",
                          /*enable_wal=*/false);
  {
    auto setup = db->Connect();
    auto r = setup->Execute("CREATE DOCUMENT 'd'");
    SEDNA_CHECK(r.ok());
    r = setup->Execute(
        "UPDATE insert <inv><item><price>10</price></item>"
        "<item><price>20</price></item></inv> into doc('d')");
    SEDNA_CHECK(r.ok()) << r.status().ToString();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> updates{0};

  std::thread updater([&] {
    // Realistic updater: each transaction performs a batch of statements,
    // holding its exclusive document lock for the whole transaction (strict
    // 2PL). This is the situation Section 6.3 targets: without snapshots,
    // readers serialize behind the writer.
    auto session = db->Connect();
    int tick = 0;
    while (!stop.load()) {
      if (!session->Begin().ok()) continue;
      bool ok = true;
      for (int k = 0; k < 10 && ok; ++k) {
        auto r = session->Execute(
            "UPDATE replace $p in doc('d')/inv/item[1]/price with "
            "<price>" + std::to_string(10 + (tick++ % 90)) + "</price>");
        ok = r.ok();
        // Client think time INSIDE the transaction: the exclusive lock
        // stays held, as in any interactive multi-statement session.
        if (think_time_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(think_time_us));
        }
      }
      if (ok && session->Commit().ok()) {
        updates.fetch_add(10);
      } else if (session->in_transaction()) {
        (void)session->Abort();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&] {
      auto session = db->Connect();
      while (!stop.load()) {
        Status st = session->Begin(/*read_only=*/snapshot_readers);
        if (!st.ok()) continue;
        auto r = session->Execute("sum(doc('d')/inv/item/price)");
        if (snapshot_readers) {
          (void)session->Commit();
        } else {
          // Ordinary transaction: commit releases the shared lock.
          (void)session->Commit();
        }
        if (r.ok()) reads.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  updater.join();
  for (auto& t : readers) t.join();

  Throughput result;
  result.reads_per_sec = reads.load() * 1000.0 / duration_ms;
  result.updates_per_sec = updates.load() * 1000.0 / duration_ms;
  result.snapshot_reads = snapshot_reads->value() - snapshot_reads0;
  return result;
}

}  // namespace
}  // namespace sedna

int main() {
  using sedna::Throughput;
  const int kDurationMs = 1200;
  std::printf(
      "E9: concurrent read-only transactions vs S2PL readers "
      "(1 updater holding its lock across 10-statement transactions, "
      "%d ms per cell)\n",
      kDurationMs);
  std::printf("%-8s %-10s %-16s %12s %12s %16s\n", "readers", "think_us",
              "mode", "reads/s", "updates/s", "snapshot_reads");
  for (int readers : {2, 4}) {
    for (int think_us : {0, 500, 2000}) {
      Throughput snap = sedna::RunMode(true, readers, think_us, kDurationMs);
      std::printf("%-8d %-10d %-16s %12.0f %12.0f %16llu\n", readers,
                  think_us, "mvcc-snapshot", snap.reads_per_sec,
                  snap.updates_per_sec,
                  static_cast<unsigned long long>(snap.snapshot_reads));
      Throughput s2pl =
          sedna::RunMode(false, readers, think_us, kDurationMs);
      std::printf("%-8d %-10d %-16s %12.0f %12.0f %16llu\n", readers,
                  think_us, "s2pl-locking", s2pl.reads_per_sec,
                  s2pl.updates_per_sec,
                  static_cast<unsigned long long>(s2pl.snapshot_reads));
    }
  }
  sedna::bench::WriteRegistrySnapshotReport("bench_mvcc");
  return 0;
}
