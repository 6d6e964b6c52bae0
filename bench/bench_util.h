// Shared helpers for the benchmark harness (one binary per experiment in
// DESIGN.md §1).

#ifndef SEDNA_BENCH_BENCH_UTIL_H_
#define SEDNA_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "db/database.h"
#include "storage/storage_engine.h"
#include "xmlgen/generators.h"

namespace sedna::bench {

inline std::string TempPath(const std::string& tag) {
  return "/tmp/sedna_bench_" + tag;
}

/// Fresh storage engine (no MVCC/WAL) with a loaded document.
struct EngineFixture {
  std::unique_ptr<StorageEngine> engine;
  DocumentStore* doc = nullptr;
  OpCtx ctx;

  static EngineFixture WithDocument(const std::string& tag,
                                    const XmlNode& tree,
                                    size_t buffer_frames = 4096,
                                    BufferPoolOptions pool = {}) {
    EngineFixture f;
    StorageOptions options;
    options.path = TempPath(tag) + ".sedna";
    options.buffer_frames = buffer_frames;
    options.pool = pool;
    std::remove(options.path.c_str());
    auto engine = StorageEngine::Create(options);
    SEDNA_CHECK(engine.ok()) << engine.status().ToString();
    f.engine = std::move(engine).value();
    auto doc = f.engine->CreateDocument(f.ctx, "bench");
    SEDNA_CHECK(doc.ok()) << doc.status().ToString();
    f.doc = *doc;
    Status st = f.doc->Load(f.ctx, tree);
    SEDNA_CHECK(st.ok()) << st.ToString();
    return f;
  }
};

/// Fresh full database (MVCC, and the WAL unless `enable_wal` is false).
inline std::unique_ptr<Database> MakeDatabase(const std::string& tag,
                                              bool enable_wal = true) {
  DatabaseOptions options;
  options.path = TempPath(tag) + ".sedna";
  options.wal_path = TempPath(tag) + ".wal";
  options.enable_wal = enable_wal;
  std::remove(options.path.c_str());
  std::remove(options.wal_path.c_str());
  auto db = Database::Create(options);
  SEDNA_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// Runs the registered benchmarks with the human-readable console reporter
/// on stdout AND a machine-readable JSON report written to
/// `BENCH_<name>.json` in the current directory (override the directory
/// with SEDNA_BENCH_JSON_DIR, or take over completely by passing your own
/// --benchmark_out=...). The JSON is google-benchmark's standard schema:
/// {context: {...}, benchmarks: [{name, real_time, items_per_second,
/// counters...}]}, so CI and the experiment scripts can diff runs without
/// scraping the console table. A `metrics_registry` key holding the
/// process-wide MetricsRegistry snapshot (buffer/lock/wal/mvcc/xquery
/// instruments accumulated over the whole run) is spliced into the report.
inline void SpliceRegistrySnapshot(const std::string& json_path) {
  std::ifstream in(json_path);
  if (!in) return;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  size_t close = text.find_last_of('}');
  if (close == std::string::npos) return;
  std::string snapshot = MetricsRegistry::Global().SnapshotJson();
  text.insert(close, ",\n  \"metrics_registry\": " + snapshot + "\n");
  std::ofstream out(json_path, std::ios::trunc);
  out << text;
}

/// For benchmarks with a hand-rolled main (no google-benchmark driver):
/// writes BENCH_<name>.json containing just the registry snapshot, honoring
/// SEDNA_BENCH_JSON_DIR like RunBenchMain.
inline void WriteRegistrySnapshotReport(const char* bench_name) {
  std::string dir = ".";
  if (const char* env = std::getenv("SEDNA_BENCH_JSON_DIR")) dir = env;
  std::string json_path = dir + "/BENCH_" + std::string(bench_name) + ".json";
  std::ofstream out(json_path, std::ios::trunc);
  out << "{\n  \"metrics_registry\": "
      << MetricsRegistry::Global().SnapshotJson() << "\n}\n";
  std::fprintf(stderr, "JSON report: %s\n", json_path.c_str());
}

inline int RunBenchMain(const char* bench_name, int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool user_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
      user_out = true;
    }
  }
  std::string dir = ".";
  if (const char* env = std::getenv("SEDNA_BENCH_JSON_DIR")) dir = env;
  std::string json_path = dir + "/BENCH_" + std::string(bench_name) + ".json";
  std::string out_flag = "--benchmark_out=" + json_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!user_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  ::benchmark::Initialize(&n, args.data());
  if (::benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!user_out) {
    SpliceRegistrySnapshot(json_path);
    std::fprintf(stderr, "JSON report: %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace sedna::bench

/// Drop-in replacement for BENCHMARK_MAIN() that also emits the JSON
/// report. `name` is used for the output file name (BENCH_<name>.json).
#define SEDNA_BENCH_MAIN(name)                                              \
  int main(int argc, char** argv) {                                         \
    return ::sedna::bench::RunBenchMain(#name, argc, argv);                 \
  }

#endif  // SEDNA_BENCH_BENCH_UTIL_H_
