#include "txn/lock_manager.h"

#include <algorithm>
#include <cstdint>

namespace sedna {

namespace {

// splitmix64 finalizer: cheap, well-mixed 64-bit hash for jitter derivation.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

LockManager::LockManager(std::chrono::milliseconds default_timeout)
    : default_timeout_(default_timeout) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  m_acquired_ = reg.counter("lock.acquired");
  m_waits_ = reg.counter("lock.waits");
  m_deadlock_aborts_ = reg.counter("lock.deadlock_aborts");
  m_governance_aborts_ = reg.counter("lock.governance_aborts");
  m_wait_ns_ = reg.histogram("lock.wait_ns");
}

std::chrono::milliseconds LockManager::JitteredTimeout(
    uint64_t txn_id, std::chrono::milliseconds timeout) const {
  if (jitter_fraction_ <= 0.0 || timeout.count() <= 0) return timeout;
  double unit = static_cast<double>(Mix64(txn_id)) /
                static_cast<double>(UINT64_MAX);  // in [0, 1]
  double extra = static_cast<double>(timeout.count()) * jitter_fraction_ * unit;
  return timeout + std::chrono::milliseconds(static_cast<int64_t>(extra));
}

bool LockManager::CanGrantLocked(const LockState& state, uint64_t txn_id,
                                 LockMode mode) const {
  for (const auto& [holder, held] : state.holders) {
    if (holder == txn_id) continue;  // own lock never conflicts
    if (mode == LockMode::kExclusive || held == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status LockManager::Acquire(uint64_t txn_id, const std::string& resource,
                            LockMode mode, QueryContext* query,
                            uint64_t* stamp) {
  return Acquire(txn_id, resource, mode, default_timeout_, query, stamp);
}

Status LockManager::Acquire(uint64_t txn_id, const std::string& resource,
                            LockMode mode, std::chrono::milliseconds timeout,
                            QueryContext* query, uint64_t* stamp) {
  std::unique_lock<std::mutex> lock(mu_);
  LockState& state = locks_[resource];

  auto held = state.holders.find(txn_id);
  if (held != state.holders.end()) {
    if (held->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // already strong enough
    }
    // Upgrade S -> X below (falls through to the wait loop).
  }

  if (!CanGrantLocked(state, txn_id, mode)) {
    // A statement already cancelled or past its deadline fails the wait's
    // first check without blocking, so it is not counted as a wait.
    const bool blocks = query == nullptr || query->Check().ok();
    if (blocks) m_waits_->Add();
    state.waiters++;
    auto wait_start = std::chrono::steady_clock::now();
    Status st = GovernedWait(
        query, cv_, lock, [&] { return CanGrantLocked(state, txn_id, mode); },
        wait_start + JitteredTimeout(txn_id, timeout));
    if (blocks) {
      m_wait_ns_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count()));
    }
    state.waiters--;
    if (st.code() == StatusCode::kTimedOut) {
      m_deadlock_aborts_->Add();
      return Status::TimedOut("lock wait on '" + resource +
                              "' timed out (possible deadlock); abort the "
                              "transaction and retry");
    }
    if (!st.ok()) {
      m_governance_aborts_->Add();
      return st;
    }
  }
  state.holders[txn_id] = mode;
  m_acquired_->Add();
  if (stamp != nullptr) {
    auto stamped = stamps_.find(resource);
    if (stamped != stamps_.end()) *stamp = std::max(*stamp, stamped->second);
  }
  return Status::OK();
}

void LockManager::ReleaseAll(uint64_t txn_id, uint64_t commit_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  bool released = false;
  for (auto it = locks_.begin(); it != locks_.end();) {
    auto held = it->second.holders.find(txn_id);
    if (held != it->second.holders.end()) {
      // Exclusive holders of one resource commit in lock order, so a
      // stamp only ever grows.
      if (commit_lsn != 0 && held->second == LockMode::kExclusive) {
        stamps_[it->first] = commit_lsn;
      }
      it->second.holders.erase(held);
      released = true;
    }
    if (it->second.holders.empty() && it->second.waiters == 0) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
  if (released) cv_.notify_all();
}

void LockManager::ClearStampsUpTo(uint64_t durable_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(stamps_, [&](const auto& stamp) {
    return stamp.second <= durable_lsn;
  });
}

size_t LockManager::StampCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stamps_.size();
}

bool LockManager::Holds(uint64_t txn_id, const std::string& resource,
                        LockMode* mode) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = locks_.find(resource);
  if (it == locks_.end()) return false;
  auto held = it->second.holders.find(txn_id);
  if (held == it->second.holders.end()) return false;
  if (mode != nullptr) *mode = held->second;
  return true;
}

size_t LockManager::TotalHeldLocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t held = 0;
  for (const auto& [resource, state] : locks_) held += state.holders.size();
  return held;
}

}  // namespace sedna
