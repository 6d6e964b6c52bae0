#include "sas/buffer_manager.h"

#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"

namespace sedna {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    frame_ = other.frame_;
    other.bm_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  SEDNA_DCHECK(frame_ != nullptr);
  bm_->MarkDirty(frame_);
}

void PageGuard::Release() {
  if (frame_ != nullptr) {
    bm_->Unpin(frame_);
    frame_ = nullptr;
    bm_ = nullptr;
  }
}

BufferManager::BufferManager(FileManager* file, PageResolver* resolver,
                             size_t frame_count, BufferPoolOptions pool_options)
    : file_(file), resolver_(resolver), frame_count_(frame_count) {
  SEDNA_CHECK(frame_count >= 4) << "buffer pool too small";
  // Not zero-filled: every frame is filled from disk or from its
  // copy-on-write source before anything reads it, so the pool only
  // becomes resident as pages are faulted in.
  pool_ = std::make_unique_for_overwrite<uint8_t[]>(frame_count * kPageSize);
  frames_ = std::make_unique<Frame[]>(frame_count);

  if (pool_options.shard_count != 0) {
    shard_count_ = pool_options.shard_count;
    SEDNA_CHECK((shard_count_ & (shard_count_ - 1)) == 0)
        << "shard_count must be a power of two";
    SEDNA_CHECK(shard_count_ <= frame_count)
        << "more shards than buffer frames";
  } else {
    // Auto: largest power of two with >= 16 frames per shard, capped at 16,
    // so tiny pools (unit tests) collapse to a single shard and keep the
    // classic whole-pool eviction semantics.
    shard_count_ = 1;
    while (shard_count_ < 16 && (shard_count_ * 2) * 16 <= frame_count) {
      shard_count_ *= 2;
    }
  }

  shards_ = std::make_unique<Shard[]>(shard_count_);
  const size_t base = frame_count / shard_count_;
  const size_t rem = frame_count % shard_count_;
  size_t next = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& sh = shards_[s];
    sh.frame_begin = next;
    sh.frame_count = base + (s < rem ? 1 : 0);
    next += sh.frame_count;
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  fault_latency_ns_ = reg.histogram("buffer.fault_ns");
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& sh = shards_[s];
    for (size_t i = 0; i < sh.frame_count; ++i) {
      Frame& f = frames_[sh.frame_begin + i];
      f.data = pool_.get() + (sh.frame_begin + i) * kPageSize;
      f.home_shard = static_cast<uint32_t>(s);
    }
    // Registry counters are resolved once here; instances with the same
    // shard index share names and accumulate process-wide.
    std::string prefix = "buffer.shard" + std::to_string(s) + ".";
    sh.metrics.requests = reg.counter(prefix + "requests");
    sh.metrics.hits = reg.counter(prefix + "hits");
    sh.metrics.faults = reg.counter(prefix + "faults");
    sh.metrics.coalesced_fills = reg.counter(prefix + "coalesced_fills");
    sh.metrics.evictions = reg.counter(prefix + "evictions");
    sh.metrics.writebacks = reg.counter(prefix + "writebacks");
  }
}

BufferManager::~BufferManager() {
  Status st = FlushAll();
  if (!st.ok()) {
    SEDNA_LOG(kError) << "FlushAll on shutdown failed: " << st.ToString();
  }
}

StatusOr<PageGuard> BufferManager::Pin(Xptr addr, const ResolveContext& ctx,
                                       bool for_write) {
  Xptr base = addr.PageBase();
  bool shared_ctx = !for_write && ctx.txn_id == 0 && ctx.snapshot_ts == 0;
  // Resolve OUTSIDE any pool lock: the resolver (version manager) takes its
  // own lock and may call back into the buffer manager on other paths.
  PhysPageId target_ppn;
  PhysPageId copied_from = kInvalidPhysPage;
  if (for_write) {
    SEDNA_ASSIGN_OR_RETURN(PageResolver::WriteTarget wt,
                           resolver_->ResolveForWrite(base.raw, ctx));
    target_ppn = wt.ppn;
    copied_from = wt.copied_from;
  } else {
    SEDNA_ASSIGN_OR_RETURN(target_ppn, resolver_->Resolve(base.raw, ctx));
  }
  SEDNA_ASSIGN_OR_RETURN(Frame * f,
                         FetchPinned(base, ctx, for_write, shared_ctx,
                                     target_ppn, copied_from));
  return PageGuard(this, f);
}

StatusOr<void*> BufferManager::Deref(Xptr addr) {
  Xptr base = addr.PageBase();
  SEDNA_ASSIGN_OR_RETURN(PhysPageId ppn,
                         resolver_->Resolve(base.raw, ResolveContext{}));
  SEDNA_ASSIGN_OR_RETURN(
      Frame * f, FetchPinned(base, ResolveContext{}, /*for_write=*/false,
                             /*install_shared=*/true, ppn, kInvalidPhysPage));
  // CHECKP discipline: the borrowed pointer is only stable while no other
  // thread can trigger an eviction (see the header comment).
  void* p = static_cast<void*>(f->data + addr.PageOffset());
  Unpin(f);
  return p;
}

void* BufferManager::DerefSlow(Xptr addr) {
  StatusOr<void*> p = Deref(addr);
  SEDNA_CHECK(p.ok()) << "deref of " << addr.ToString()
                      << " failed: " << p.status().ToString();
  return *p;
}

StatusOr<Frame*> BufferManager::FetchPinned(Xptr page_base,
                                            const ResolveContext& ctx,
                                            bool for_write,
                                            bool install_shared,
                                            PhysPageId target_ppn,
                                            PhysPageId copied_from) {
  Shard& sh = shards_[ShardOf(target_ppn)];
  bool counted_fault = false;
  bool counted_coalesce = false;
  sh.metrics.requests->Add();
  std::unique_lock<std::mutex> lock(sh.mu);
  for (;;) {
    auto it = sh.by_ppn.find(target_ppn);
    if (it != sh.by_ppn.end()) {
      Frame* f = it->second;
      uint32_t st = f->state.load(std::memory_order_relaxed);
      if (st == kFrameLoading || st == kFrameEvicting) {
        // Someone else's fill or writeback is in flight; wait and re-check
        // (the fill may fail, in which case the mapping disappears).
        if (st == kFrameLoading && !counted_coalesce) {
          // Our fetch piggybacks on another thread's fill of this page:
          // the coalescing the state-word protocol exists to provide.
          counted_coalesce = true;
          sh.metrics.coalesced_fills->Add();
        }
        sh.cv.wait(lock);
        continue;
      }
      if (!counted_fault) sh.metrics.hits->Add();
      f->referenced.store(true, std::memory_order_relaxed);
      f->pin_count.fetch_add(1, std::memory_order_relaxed);
      if (install_shared && f->owner_txn == 0) InstallShared(f);
      return f;
    }

    if (!counted_fault) {
      counted_fault = true;
      sh.metrics.faults->Add();
    }

    // Clock replacement over this shard's slice: second chance on the
    // referenced bit; pinned and in-transition frames are skipped. Two
    // sweeps guarantee progress if any frame is claimable.
    Frame* victim = nullptr;
    bool any_in_flight = false;
    const size_t n = sh.frame_count;
    for (size_t step = 0; step < 2 * n && victim == nullptr; ++step) {
      Frame* f = &frames_[sh.frame_begin + sh.clock_hand];
      sh.clock_hand = (sh.clock_hand + 1) % n;
      uint32_t st = f->state.load(std::memory_order_relaxed);
      if (st == kFrameLoading || st == kFrameEvicting) {
        any_in_flight = true;
        continue;
      }
      // Acquire pairs with the release decrement in Unpin: once we observe
      // pin_count == 0 here (under the shard lock that gates new pins), the
      // unpinning thread's page writes are visible to us.
      if (f->pin_count.load(std::memory_order_acquire) > 0) continue;
      if (f->referenced.load(std::memory_order_relaxed)) {
        f->referenced.store(false, std::memory_order_relaxed);
        continue;
      }
      victim = f;
    }
    if (victim == nullptr) {
      if (any_in_flight) {
        // A fill or writeback will complete and notify; retry then.
        sh.cv.wait(lock);
        continue;
      }
      return Status::ResourceExhausted("all buffer frames pinned");
    }

    if (victim->state.load(std::memory_order_relaxed) == kFrameResident &&
        victim->dirty.load(std::memory_order_acquire)) {
      // Dirty victim: write it back with the shard UNLOCKED so other hits
      // and faults in this shard proceed. kFrameEvicting keeps the by_ppn
      // mapping alive, so a concurrent fetch of the evicting page waits on
      // the condvar instead of re-reading stale bytes from disk.
      sh.metrics.writebacks->Add();
      victim->state.store(kFrameEvicting, std::memory_order_relaxed);
      PhysPageId wb_ppn = victim->ppn;
      lock.unlock();
      Status wst = file_->WritePage(wb_ppn, victim->data);
      lock.lock();
      victim->state.store(kFrameResident, std::memory_order_relaxed);
      if (!wst.ok()) {
        sh.cv.notify_all();
        return wst;
      }
      victim->dirty.store(false, std::memory_order_relaxed);
      sh.cv.notify_all();
      continue;  // page may have been faulted in meanwhile: re-check
    }

    // Claim the victim and fill it with the shard unlocked.
    if (victim->state.load(std::memory_order_relaxed) == kFrameResident) {
      sh.metrics.evictions->Add();
      RemoveShared(victim);
      sh.by_ppn.erase(victim->ppn);
    }
    victim->lpid = page_base.raw;
    victim->ppn = target_ppn;
    // A page reached through a write target stays bound to its transaction
    // even on re-fetch after eviction: the resolver hands private versions
    // only to their owner, so a write fetch with a txn implies ownership.
    victim->owner_txn = (for_write && ctx.txn_id != 0) ? ctx.txn_id : 0;
    victim->dirty.store(copied_from != kInvalidPhysPage,
                        std::memory_order_relaxed);
    victim->referenced.store(true, std::memory_order_relaxed);
    victim->pin_count.store(1, std::memory_order_relaxed);
    victim->state.store(kFrameLoading, std::memory_order_relaxed);
    sh.by_ppn[target_ppn] = victim;
    lock.unlock();
    Status fst;
    {
      LatencyTimer timer(fault_latency_ns_);
      fst = FillFrame(victim, target_ppn, copied_from);
    }
    lock.lock();
    if (!fst.ok()) {
      // Roll the claim back so waiters see the page gone and re-fault.
      sh.by_ppn.erase(target_ppn);
      victim->lpid = 0;
      victim->ppn = kInvalidPhysPage;
      victim->owner_txn = 0;
      victim->dirty.store(false, std::memory_order_relaxed);
      victim->referenced.store(false, std::memory_order_relaxed);
      victim->pin_count.store(0, std::memory_order_relaxed);
      victim->state.store(kFrameEmpty, std::memory_order_relaxed);
      sh.cv.notify_all();
      return fst;
    }
    victim->state.store(kFrameResident, std::memory_order_release);
    if (install_shared && victim->owner_txn == 0) InstallShared(victim);
    uint64_t owner = victim->owner_txn;
    sh.cv.notify_all();
    lock.unlock();
    // Outside the shard lock: txn_mu_ is a leaf and PublishTxnFrames /
    // FlushTxn never hold it while taking a shard lock, but keeping the
    // two strictly un-nested makes the ordering trivially sound.
    if (owner != 0) RecordTxnFrame(owner, victim);
    return victim;
  }
}

Status BufferManager::FillFrame(Frame* f, PhysPageId target_ppn,
                                PhysPageId copied_from) {
  if (copied_from == kInvalidPhysPage) {
    return file_->ReadPage(target_ppn, f->data);
  }
  // Fresh copy-on-write version: prefer the resident source frame — it may
  // be dirty, i.e. newer than its on-disk image. The version DAG is acyclic
  // (a version is never seeded from a version seeded from it), so taking the
  // source's shard lock here cannot deadlock with another fill.
  Shard& src_sh = shards_[ShardOf(copied_from)];
  {
    std::unique_lock<std::mutex> lock(src_sh.mu);
    for (;;) {
      auto it = src_sh.by_ppn.find(copied_from);
      if (it == src_sh.by_ppn.end()) break;
      Frame* src = it->second;
      if (src->state.load(std::memory_order_relaxed) == kFrameLoading) {
        src_sh.cv.wait(lock);
        continue;
      }
      // Resident or evicting: contents are valid either way.
      std::memcpy(f->data, src->data, kPageSize);
      return Status::OK();
    }
  }
  return file_->ReadPage(copied_from, f->data);
}

Status BufferManager::WriteBackLocked(Shard& sh, Frame* f) {
  sh.metrics.writebacks->Add();
  SEDNA_RETURN_IF_ERROR(file_->WritePage(f->ppn, f->data));
  f->dirty.store(false, std::memory_order_relaxed);
  return Status::OK();
}

void BufferManager::InstallShared(Frame* f) {
  std::lock_guard<std::mutex> lk(table_mu_);
  fast_map_.Store(Xptr(f->lpid), f);
}

void BufferManager::RemoveShared(Frame* f) {
  if (f->lpid == 0) return;
  Xptr base(f->lpid);
  std::lock_guard<std::mutex> lk(table_mu_);
  if (fast_map_.Load(base) == f) fast_map_.Store(base, nullptr);
}

void BufferManager::InvalidateShared(LogicalPageId lpid) {
  std::lock_guard<std::mutex> lk(table_mu_);
  fast_map_.Store(Xptr(lpid), nullptr);
}

void BufferManager::RecordTxnFrame(uint64_t txn_id, Frame* f) {
  std::lock_guard<std::mutex> lk(txn_mu_);
  txn_frames_[txn_id].push_back(f);
}

void BufferManager::PublishTxnFrames(uint64_t txn_id) {
  std::vector<Frame*> list;
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    auto it = txn_frames_.find(txn_id);
    if (it == txn_frames_.end()) return;
    list = std::move(it->second);
    txn_frames_.erase(it);
  }
  for (Frame* f : list) {
    Shard& sh = shards_[f->home_shard];
    std::lock_guard<std::mutex> lock(sh.mu);
    // Validate: the frame may have been evicted and re-claimed for another
    // page since it was recorded. Identity fields are shard-lock-stable.
    if (f->lpid != 0 && f->owner_txn == txn_id) {
      f->owner_txn = 0;
    }
  }
}

void BufferManager::ForgetTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lk(txn_mu_);
  txn_frames_.erase(txn_id);
}

void BufferManager::DiscardPhysical(PhysPageId ppn) {
  Shard& sh = shards_[ShardOf(ppn)];
  std::unique_lock<std::mutex> lock(sh.mu);
  for (;;) {
    auto it = sh.by_ppn.find(ppn);
    if (it == sh.by_ppn.end()) return;
    Frame* f = it->second;
    uint32_t st = f->state.load(std::memory_order_relaxed);
    if (st == kFrameLoading || st == kFrameEvicting) {
      sh.cv.wait(lock);
      continue;
    }
    SEDNA_CHECK(f->pin_count.load(std::memory_order_acquire) == 0)
        << "discarding pinned page";
    RemoveShared(f);
    sh.by_ppn.erase(it);
    f->lpid = 0;
    f->ppn = kInvalidPhysPage;
    f->owner_txn = 0;
    f->dirty.store(false, std::memory_order_relaxed);
    f->referenced.store(false, std::memory_order_relaxed);
    f->state.store(kFrameEmpty, std::memory_order_relaxed);
    sh.cv.notify_all();
    return;
  }
}

Status BufferManager::FlushAll(bool skip_pinned) {
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& sh = shards_[s];
    std::unique_lock<std::mutex> lock(sh.mu);
    for (size_t i = 0; i < sh.frame_count; ++i) {
      Frame* f = &frames_[sh.frame_begin + i];
      while (true) {
        uint32_t st = f->state.load(std::memory_order_relaxed);
        if (st != kFrameLoading && st != kFrameEvicting) break;
        sh.cv.wait(lock);
      }
      // A pinned frame may be mutated by the pin holder mid-write; only the
      // fuzzy pre-flush can encounter that (writers quiesced otherwise), and
      // it skips such frames. New pins are gated by the shard lock held
      // here, so an unpinned frame stays unmutated through the write.
      if (skip_pinned &&
          f->pin_count.load(std::memory_order_acquire) > 0) {
        continue;
      }
      if (f->lpid != 0 && f->dirty.load(std::memory_order_acquire)) {
        SEDNA_RETURN_IF_ERROR(WriteBackLocked(sh, f));
      }
    }
  }
  return file_->Sync();
}

Status BufferManager::FlushTxn(uint64_t txn_id) {
  std::vector<Frame*> list;
  {
    std::lock_guard<std::mutex> lk(txn_mu_);
    auto it = txn_frames_.find(txn_id);
    if (it == txn_frames_.end()) return Status::OK();
    list = it->second;  // copy: the list survives for PublishTxnFrames
  }
  for (Frame* f : list) {
    Shard& sh = shards_[f->home_shard];
    std::unique_lock<std::mutex> lock(sh.mu);
    for (;;) {
      if (f->lpid == 0 || f->owner_txn != txn_id) break;  // stale entry
      uint32_t st = f->state.load(std::memory_order_relaxed);
      if (st == kFrameLoading || st == kFrameEvicting) {
        sh.cv.wait(lock);
        continue;
      }
      if (f->dirty.load(std::memory_order_acquire)) {
        SEDNA_RETURN_IF_ERROR(WriteBackLocked(sh, f));
      }
      break;
    }
  }
  return Status::OK();
}

size_t BufferManager::PinnedFrameCount() const {
  size_t pinned = 0;
  for (size_t i = 0; i < frame_count_; ++i) {
    if (frames_[i].pin_count.load(std::memory_order_acquire) > 0) pinned++;
  }
  return pinned;
}

void BufferManager::Unpin(Frame* f) {
  // Lock-free: release pairs with the evictor's acquire load (see
  // FetchPinned) so our page writes are visible before the frame is reused.
  SEDNA_DCHECK(f->pin_count.load(std::memory_order_relaxed) > 0);
  f->pin_count.fetch_sub(1, std::memory_order_release);
}

void BufferManager::MarkDirty(Frame* f) {
  f->dirty.store(true, std::memory_order_release);
}

}  // namespace sedna
