// Vfs wrapper whose files can hold every fsync, or every append, at a gate.
// Tests use it to park a thread deterministically inside a WAL sync (a
// group-commit leader) or a WAL append (a statement logging its first
// record), act while it is parked, then let it go. It wraps Vfs::Default()
// or any other Vfs, e.g. a FaultInjectingVfs that fails the released op.

#ifndef SEDNA_TESTS_COMMON_SYNC_GATE_VFS_H_
#define SEDNA_TESTS_COMMON_SYNC_GATE_VFS_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/vfs.h"

namespace sedna {

class SyncGateVfs : public Vfs {
 public:
  explicit SyncGateVfs(Vfs* base = Vfs::Default()) : base_(base) {}

  StatusOr<std::unique_ptr<File>> Open(const std::string& path,
                                       OpenMode mode) override {
    auto file = base_->Open(path, mode);
    if (!file.ok()) return file.status();
    return StatusOr<std::unique_ptr<File>>(std::unique_ptr<File>(
        new GateFile(this, std::move(file).value())));
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  StatusOr<std::vector<std::string>> ListFiles(
      const std::string& prefix) override {
    return base_->ListFiles(prefix);
  }

  void BlockSyncs() { Block(&syncs_); }
  void UnblockSyncs() { Unblock(&syncs_); }
  /// Returns once a sync is parked at the gate, before it reaches the base.
  void WaitUntilSyncParked() { WaitUntilParked(&syncs_); }

  void BlockAppends() { Block(&appends_); }
  void UnblockAppends() { Unblock(&appends_); }
  void WaitUntilAppendParked() { WaitUntilParked(&appends_); }

 private:
  struct Gate {
    bool blocked = false;
    int parked = 0;
  };

  class GateFile : public File {
   public:
    GateFile(SyncGateVfs* vfs, std::unique_ptr<File> base)
        : vfs_(vfs), base_(std::move(base)) {}
    Status Read(uint64_t offset, size_t n, void* buf) override {
      return base_->Read(offset, n, buf);
    }
    Status Write(uint64_t offset, const void* data, size_t n) override {
      return base_->Write(offset, data, n);
    }
    Status Append(const void* data, size_t n) override {
      vfs_->ParkIfBlocked(&vfs_->appends_);
      return base_->Append(data, n);
    }
    Status Sync() override {
      vfs_->ParkIfBlocked(&vfs_->syncs_);
      return base_->Sync();
    }
    StatusOr<uint64_t> Size() override { return base_->Size(); }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    Status Close() override { return base_->Close(); }

   private:
    SyncGateVfs* vfs_;
    std::unique_ptr<File> base_;
  };

  void Block(Gate* gate) {
    std::lock_guard<std::mutex> lock(mu_);
    gate->blocked = true;
  }
  void Unblock(Gate* gate) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate->blocked = false;
    }
    cv_.notify_all();
  }
  void WaitUntilParked(Gate* gate) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return gate->parked > 0; });
  }
  void ParkIfBlocked(Gate* gate) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!gate->blocked) return;
    gate->parked++;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !gate->blocked; });
    gate->parked--;
  }

  Vfs* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  Gate syncs_;
  Gate appends_;
};

}  // namespace sedna

#endif  // SEDNA_TESTS_COMMON_SYNC_GATE_VFS_H_
