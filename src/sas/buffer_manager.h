// Buffer manager for the Sedna Address Space (paper Section 4.2, Figure 4).
//
// The paper maps each SAS layer into the process VAS on equality basis and
// lets hardware page faults trigger buffer-manager fills. This reproduction
// substitutes a *software-checked* mapping (see DESIGN.md §2): every layer
// has a frame table indexed by page-index; dereferencing an Xptr is
//
//     frame = layer_table[layer][offset >> kPageSizeBits]   (three loads)
//     return frame->data + (offset & kPageOffsetMask)       (mask + add)
//
// with a miss ("software page fault") invoking the fault handler that reads
// the page from disk into a frame, evicting with a clock policy if needed.
// The key property claimed by the paper is preserved: the pointer
// representation is identical in memory and on disk, so there is no
// swizzling step on either the read or the write path.
//
// Concurrency protocol (multi-threaded throughput rework):
//
//   * The pool is split into up to 16 *shards*. Each shard owns a disjoint
//     slice of the frame array, its own clock hand, its own residency map
//     (physical page -> frame) and one mutex + condvar. A physical page is
//     homed on shard hash(ppn), so a fault, hit, or eviction touches exactly
//     one shard lock — there is no pool-global critical section anywhere on
//     the page access path.
//   * Each frame carries a *state word* (empty / loading / resident /
//     evicting). Page fills and dirty-victim writebacks run with NO shard
//     lock held: the filling thread claims the frame (state = loading, one
//     pin), inserts the residency mapping, drops the shard lock, does the
//     I/O, re-locks, publishes (state = resident) and wakes waiters. A
//     thread that finds a loading/evicting frame waits on the shard condvar
//     instead of re-reading the page, so concurrent faults to different
//     pages overlap their preads while faults to the same page coalesce
//     into one read.
//   * `pin_count`, `dirty` and `referenced` are atomics: `Unpin` (guard
//     destruction) and `MarkDirty` are lock-free, and the clock sweep reads
//     them without taking other frames' locks. Pool events are counted only
//     in the registry's `buffer.shardN.*` counters, one relaxed add each.
//     Pinning happens under the home-shard lock, so an evictor that
//     observes pin_count == 0 under that lock can never race a new pin;
//     the release-decrement in Unpin paired with the acquire-load in the
//     clock sweep makes the unpinning thread's page writes visible to the
//     evicting thread.
//   * The shared-view fast map (`DerefFast`) is a PageTable of Frame*
//     (sas/page_table.h): lookups are entirely lock-free (three atomic
//     loads + mask + add) and cover every layer and page index, the table
//     growing by publishing larger copies. All table *writes* (install /
//     remove / invalidate) serialize on one small mutex; they only happen
//     on fault, eviction and commit paths.
//
// CHECKP discipline under multi-threading: `Deref`/`DerefFast` return a
// borrowed pointer that is only stable while no other thread can trigger an
// eviction — i.e. for single-threaded phases (query execution over a private
// engine, benchmarks, recovery). Any code that runs concurrently with other
// pool users MUST hold a PageGuard (`Pin`) across every access to page
// memory; the storage layer's StorageEnv::Read/Write helpers do exactly
// that. This mirrors Sedna's CHECKP macro, which re-validated a pointer
// before every block access for the same reason.

#ifndef SEDNA_SAS_BUFFER_MANAGER_H_
#define SEDNA_SAS_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "sas/file_manager.h"
#include "sas/page_directory.h"
#include "sas/page_table.h"
#include "sas/xptr.h"

namespace sedna {

class BufferManager;

/// Lifecycle of a frame's contents. Transitions happen under the home-shard
/// mutex; fills and writebacks run unlocked while the state is
/// kFrameLoading / kFrameEvicting.
enum FrameState : uint32_t {
  kFrameEmpty = 0,     // holds no page
  kFrameLoading = 1,   // claimed; fill I/O in flight, contents undefined
  kFrameResident = 2,  // contents valid
  kFrameEvicting = 3,  // dirty-victim writeback in flight, contents valid
};

/// One in-memory page frame. `lpid`, `ppn` and `owner_txn` are guarded by
/// the home shard's mutex; the atomics are written lock-free (see the
/// protocol comment above).
struct Frame {
  uint8_t* data = nullptr;      // kPageSize bytes
  LogicalPageId lpid = 0;       // logical page held (0 = frame empty)
  PhysPageId ppn = kInvalidPhysPage;  // physical page backing the contents
  uint64_t owner_txn = 0;       // 0 = shared (last-committed) version
  uint32_t home_shard = 0;      // fixed at pool construction
  std::atomic<uint32_t> state{kFrameEmpty};
  std::atomic<int32_t> pin_count{0};
  std::atomic<bool> dirty{false};
  std::atomic<bool> referenced{false};  // clock bit
};

/// RAII pin on a page. While alive, the page cannot be evicted and `data()`
/// stays valid. Release (Unpin) and MarkDirty are lock-free.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferManager* bm, Frame* frame) : bm_(bm), frame_(frame) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return frame_ != nullptr; }
  uint8_t* data() const { return frame_->data; }
  LogicalPageId lpid() const { return frame_->lpid; }

  /// Marks the page dirty (must be called after modifying `data()`).
  void MarkDirty();

  /// Releases the pin early.
  void Release();

 private:
  BufferManager* bm_ = nullptr;
  Frame* frame_ = nullptr;
};

/// Pool tuning knobs.
struct BufferPoolOptions {
  /// Number of shards (power of two). 0 = auto: the largest power of two
  /// with at least 16 frames per shard, capped at 16. A tiny pool therefore
  /// degenerates to one shard, preserving single-shard eviction semantics.
  size_t shard_count = 0;
};

class BufferManager {
 public:
  /// `frame_count` pages of buffer pool. `resolver` translates logical to
  /// physical pages (plain directory or MVCC version manager).
  BufferManager(FileManager* file, PageResolver* resolver, size_t frame_count,
                BufferPoolOptions pool_options = {});
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pins the page containing `addr` for the given context. If `for_write`,
  /// the resolver may create a copy-on-write version (MVCC) and the guard's
  /// frame is bound to that version. Thread-safe. Note that with a sharded
  /// pool, ResourceExhausted means the page's *home shard* is out of
  /// unpinned frames.
  StatusOr<PageGuard> Pin(Xptr addr, const ResolveContext& ctx,
                          bool for_write);

  /// Pins with the default (last-committed, non-transactional) context.
  StatusOr<PageGuard> Pin(Xptr addr, bool for_write = false) {
    return Pin(addr, ResolveContext{}, for_write);
  }

  /// Dereferences `addr` against the shared (last-committed) view, faulting
  /// the page in if necessary. Returned pointer follows the CHECKP
  /// discipline described in the header comment. Returns nullptr only on
  /// I/O error.
  StatusOr<void*> Deref(Xptr addr);

  /// Hot-path deref used by single-threaded query execution and benchmarks:
  /// three lock-free atomic loads + mask + add on a hit; CHECK-fails on I/O
  /// errors. See the CHECKP note in the header comment for when the
  /// returned pointer is stable.
  inline void* DerefFast(Xptr addr) {
    Frame* f = fast_map_.Load(addr);
    if (f != nullptr) {
      // Feed the clock without dirtying the cache line on every hit.
      if (!f->referenced.load(std::memory_order_relaxed)) {
        f->referenced.store(true, std::memory_order_relaxed);
      }
      return f->data + addr.PageOffset();
    }
    return DerefSlow(addr);
  }

  /// Transfers ownership of a committed transaction's version frames to the
  /// shared view (called by the version manager at commit, after rebinding).
  /// Walks the per-transaction frame list maintained at fetch time, not the
  /// whole pool.
  void PublishTxnFrames(uint64_t txn_id);

  /// Drops the bookkeeping for a transaction that will never publish or
  /// flush (called on abort). No frame contents are touched.
  void ForgetTxn(uint64_t txn_id);

  /// Drops the shared-view mapping for a logical page (called when its
  /// last-committed version changes, e.g. on transaction commit).
  void InvalidateShared(LogicalPageId lpid);

  /// Drops any resident frame holding physical page `ppn` without writing it
  /// back (called when a version is discarded on abort).
  void DiscardPhysical(PhysPageId ppn);

  /// Writes all dirty frames to disk. Callers must have quiesced writers
  /// (checkpoint, shutdown): pages pinned for write are flushed as-is.
  /// With `skip_pinned` (the fuzzy checkpoint pre-flush, which runs while
  /// update transactions are still mutating pinned pages), frames with a
  /// live pin are left for the post-drain flush — writing them here would
  /// race with the pin holder's in-place updates and be re-dirtied anyway.
  Status FlushAll(bool skip_pinned = false);

  /// Writes dirty frames owned by `txn_id` (their versions) to disk, using
  /// the per-transaction frame list.
  Status FlushTxn(uint64_t txn_id);

  size_t frame_count() const { return frame_count_; }
  size_t shard_count() const { return shard_count_; }

  /// Frames currently pinned (pin_count > 0). With all guards dropped this
  /// must be zero — the torture suite asserts it after killing statements
  /// at arbitrary points to prove no pin leaks.
  size_t PinnedFrameCount() const;

 private:
  friend class PageGuard;

  /// Registry counters `buffer.shardN.<event>` for one shard, looked up
  /// once at pool construction so the hot path is a cached-pointer
  /// fetch_add (see common/metrics.h). Pools in one process share them.
  /// Every FetchPinned call counts one request and exactly one of
  /// {hit, fault}, so `requests == hits + faults` holds per shard.
  struct ShardCounters {
    Counter* requests = nullptr;
    Counter* hits = nullptr;
    Counter* faults = nullptr;           // software page faults (misses)
    Counter* coalesced_fills = nullptr;  // waited on another thread's fill
    Counter* evictions = nullptr;
    Counter* writebacks = nullptr;
  };

  /// One pool shard: a slice of the frame array plus its residency index.
  struct alignas(64) Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<PhysPageId, Frame*> by_ppn;
    size_t frame_begin = 0;
    size_t frame_count = 0;
    size_t clock_hand = 0;  // offset within [frame_begin, +frame_count)
    ShardCounters metrics;
  };

  size_t ShardOf(PhysPageId ppn) const {
    // Multiplicative hash so consecutive physical pages spread over shards.
    return (static_cast<uint64_t>(ppn) * 2654435761ull >> 16) &
           (shard_count_ - 1);
  }

  void* DerefSlow(Xptr addr);

  /// Looks up / faults `target_ppn` and returns the frame with one pin
  /// already taken on behalf of the caller.
  StatusOr<Frame*> FetchPinned(Xptr page_base, const ResolveContext& ctx,
                               bool for_write, bool install_shared,
                               PhysPageId target_ppn, PhysPageId copied_from);

  /// Fills a claimed (kFrameLoading) frame: disk read, or copy-on-write
  /// seed from the resident source frame / disk. Runs with no locks held.
  Status FillFrame(Frame* f, PhysPageId target_ppn, PhysPageId copied_from);

  void InstallShared(Frame* f);   // shard lock held; takes table_mu_
  void RemoveShared(Frame* f);    // shard lock held; takes table_mu_
  void RecordTxnFrame(uint64_t txn_id, Frame* f);
  Status WriteBackLocked(Shard& sh, Frame* f);
  void Unpin(Frame* f);
  void MarkDirty(Frame* f);

  FileManager* file_;
  PageResolver* resolver_;

  size_t frame_count_ = 0;
  std::unique_ptr<Frame[]> frames_;
  std::unique_ptr<uint8_t[]> pool_;

  size_t shard_count_ = 1;
  std::unique_ptr<Shard[]> shards_;

  // Shared-view fast mapping: page -> frame. Loads are lock-free; every
  // store serializes on table_mu_.
  PageTable<Frame*> fast_map_;
  std::mutex table_mu_;

  // Per-transaction frame lists (satellite of PublishTxnFrames/FlushTxn):
  // appended on fault of a transaction-owned version, validated against the
  // frame's current identity when consumed, dropped on publish/forget.
  std::mutex txn_mu_;
  std::unordered_map<uint64_t, std::vector<Frame*>> txn_frames_;

  // Fault (fill I/O) latency, recorded into the process-wide registry.
  Histogram* fault_latency_ns_ = nullptr;
};

}  // namespace sedna

#endif  // SEDNA_SAS_BUFFER_MANAGER_H_
