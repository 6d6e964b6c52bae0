// Write-ahead log (paper Section 6.4: "All the main operations ... are
// logged using the WAL protocol").
//
// This reproduction logs updates at the statement level: each committed
// update transaction's statements are replayed in commit order on top of
// the persistent snapshot during the two-step recovery. Statement replay is
// deterministic for the supported language (see DESIGN.md §2 and §10).
//
// The log is a sequence of numbered segment files:
//
//   <base>.seg-<start_lsn, 20 decimal digits>
//
// Each segment starts with a 16-byte header [magic u32][version u32]
// [start_lsn u64]; record bytes follow. LSNs are logical byte offsets over
// the concatenated record bytes of all segments — headers are excluded, so
// a record at file offset `off` in a segment starting at S has
// lsn = S + off - 16. Record format: [len][crc][type][txn][payload].
//
// Rotation seals the active segment with an fsync BEFORE the next segment
// is created (tmp file + atomic rename), which yields the recovery
// invariant: a torn tail can exist only in the newest segment; any parse
// failure in an older segment is real corruption and recovery refuses it.
// A checkpoint starts a new segment at its checkpoint LSN and then unlinks
// every segment wholly below that LSN, so the log it leaves holds nothing
// the persistent snapshot already covers.
//
// Commit durability uses group commit: a committer appends its commit
// record (AppendCommit), releases its locks, and then waits until the log is
// durable up to that record (WaitDurable). The first waiter to find no sync
// in flight leads: it issues ONE fsync covering every record appended so
// far, while the others wait for its verdict — so commit throughput scales
// with writer count instead of flat-lining at the device's fsync rate.
//
// All I/O goes through the Vfs seam (common/vfs.h); Sync is a real fsync.
// After the first I/O error the writer latches a sticky failed state (the
// PostgreSQL fsyncgate lesson: a failed fsync may have dropped dirty pages,
// so a later fsync returning OK proves nothing) — only a fresh Open()
// after recovery clears it.

#ifndef SEDNA_TXN_WAL_H_
#define SEDNA_TXN_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/vfs.h"

namespace sedna {

enum class WalRecordType : uint8_t {
  kBegin = 1,
  kUpdateStatement = 2,  // payload: statement text
  kCommit = 3,
  kAbort = 4,
  kCheckpoint = 5,       // payload: empty; marks a persistent snapshot
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  uint64_t txn_id = 0;
  uint64_t lsn = 0;  // logical byte offset of the record in the log
  std::string payload;
};

/// Size of the per-segment header; record bytes start at this file offset.
inline constexpr uint64_t kWalSegmentHeaderSize = 16;

/// Path of the segment whose first record has `start_lsn`:
/// "<base>.seg-<20-digit zero-padded start_lsn>".
std::string WalSegmentFileName(const std::string& base, uint64_t start_lsn);

/// A live segment file, reported for backup.
struct WalSegment {
  std::string file_path;
  uint64_t start_lsn = 0;
  uint64_t end_lsn = 0;  // start_lsn + record bytes in the file
};

struct WalWriterOptions {
  /// Rotation threshold: once the active segment holds at least this many
  /// record bytes, the next append seals it and starts a new segment.
  uint64_t segment_bytes = 8ull * 1024 * 1024;
};

class WalWriter {
 public:
  /// Invoked (under the log mutex) when an append or sync fails with an
  /// I/O error — the signal for read-only degradation: a WAL that cannot
  /// persist commit records must stop accepting updates.
  using IoFailureHandler = std::function<void(const Status&)>;

  explicit WalWriter(Vfs* vfs = nullptr);
  ~WalWriter();

  void set_io_failure_handler(IoFailureHandler handler);

  /// Opens the log rooted at `base` for appending: scans existing segments,
  /// removes a stray rotation temp file, opens the newest segment (creating
  /// segment 0 for a fresh log). Clears any sticky failure from a previous
  /// incarnation — Open is the recovery path.
  Status Open(const std::string& base, const WalWriterOptions& options = {});
  Status Close();

  /// Appends one record; returns its LSN. Thread-safe. May rotate to a new
  /// segment first (sealing the old one with an fsync).
  StatusOr<uint64_t> Append(WalRecordType type, uint64_t txn_id,
                            std::string_view payload);

  /// Appends a kCommit record for `txn_id` without syncing it; returns the
  /// LSN just past the record (the target to pass to WaitDurable).
  StatusOr<uint64_t> AppendCommit(uint64_t txn_id);

  /// Group commit: returns once the log is durable up to `lsn`. Returns at
  /// once, without taking the log mutex, when it already is. Otherwise the
  /// caller waits while another thread syncs, or leads the next sync: after
  /// a group of more than one the leader gathers briefly, then ONE fsync
  /// covers every record appended so far. Not governed — one fsync bounds
  /// the wait. Once a sync or append has failed, every caller whose `lsn`
  /// is not durable gets that sticky failure.
  Status WaitDurable(uint64_t lsn);

  /// Next LSN to be written (== logical log size).
  uint64_t end_lsn() const;

  /// Highest LSN known durable (advanced by Sync, group commit and
  /// rotation seals). A lock-free load.
  uint64_t durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Durably flushes the log (commit durability point: fsync). Once a sync
  /// or append has failed with an I/O error, every later call returns that
  /// sticky failure without touching the file.
  Status Sync();

  /// Seals the active segment (fsync) and starts a new one at end_lsn(),
  /// unless the active segment holds no record yet. A checkpoint calls it
  /// while no transaction can append, so the sealed segment ends at the
  /// checkpoint LSN and RemoveSegmentsBelow unlinks it.
  Status StartSegment();

  /// Unlinks every sealed segment wholly below `lsn` (i.e. whose records
  /// all have lsn < `lsn`), lowest first. Never touches the active segment
  /// or any segment containing records at or above `lsn`. Called after a
  /// checkpoint makes the data below `lsn` recoverable from the snapshot.
  Status RemoveSegmentsBelow(uint64_t lsn);

  /// Snapshot of the current segment files, ordered by start LSN. The last
  /// entry is the active segment. For backup.
  StatusOr<std::vector<WalSegment>> LiveSegments() const;

  /// Base path the log was opened with (segment files derive from it).
  const std::string& path() const { return path_; }

 private:
  StatusOr<uint64_t> AppendLocked(WalRecordType type, uint64_t txn_id,
                                  std::string_view payload);
  Status RotateLocked();
  /// Creates the segment starting at `start_lsn` via tmp + rename and opens
  /// it as the active file.
  Status CreateSegmentLocked(uint64_t start_lsn);
  /// Records an I/O failure: latches the sticky state and fires the
  /// degradation handler.
  void NoteIoFailureLocked(const Status& st);
  /// Raises durable_lsn_ to `lsn` (never lowers it).
  void AdvanceDurableLocked(uint64_t lsn);
  Status SyncLocked(std::unique_lock<std::mutex>& lk);

  mutable std::mutex mu_;
  Vfs* vfs_;
  std::shared_ptr<File> file_;  // active segment; shared so a group leader
                                // can fsync outside mu_ across a rotation
  std::string path_;            // base path
  WalWriterOptions options_;
  uint64_t segment_start_ = 0;  // start LSN of the active segment
  uint64_t end_lsn_ = 0;
  // Written under mu_; read without it by the WaitDurable fast path.
  std::atomic<uint64_t> durable_lsn_{0};
  Status sticky_;  // first I/O error; poisons all later appends/syncs
  IoFailureHandler io_failure_handler_;

  // Group-commit state, protected by mu_.
  std::condition_variable durable_cv_;  // waiters: the leader's sync ended
  std::condition_variable gather_cv_;   // leader: a commit record arrived
  bool sync_active_ = false;            // a leader's fsync is in flight
  bool gathering_ = false;
  size_t pending_commits_ = 0;  // commit records no started sync covers
  size_t last_group_size_ = 0;
  uint64_t last_fsync_ns_ = 0;
};

/// Reads all valid records with lsn >= `from_lsn`, scanning segments in
/// order. A parse failure in the NEWEST segment is a torn tail: the scan
/// stops cleanly and, if `valid_end` is non-null, it receives the LSN one
/// past the last valid record (the size the log should be truncated to). A
/// parse failure in any older segment — or a gap/overlap between segments —
/// is returned as kCorruption: sealed segments were fsynced before a newer
/// one was created, so damage there is not a crash artifact. `from_lsn`
/// below the first retained segment is kCorruption (the log was truncated
/// past the caller's replay point). Uses `vfs` or Vfs::Default().
StatusOr<std::vector<WalRecord>> ReadWal(const std::string& base,
                                         uint64_t from_lsn = 0,
                                         Vfs* vfs = nullptr,
                                         uint64_t* valid_end = nullptr);

/// Truncates the newest segment so the log ends at LSN `valid_end`, if it
/// currently extends past it. Called during recovery so a torn tail cannot
/// corrupt records appended later. Missing log is a no-op.
Status TruncateWalTail(const std::string& base, uint64_t valid_end,
                       Vfs* vfs = nullptr);

/// Removes every segment file (and rotation temp) of the log rooted at
/// `base`. Used when (re)creating a database.
Status RemoveWalLog(const std::string& base, Vfs* vfs = nullptr);

}  // namespace sedna

#endif  // SEDNA_TXN_WAL_H_
