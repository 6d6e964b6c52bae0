#include "txn/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/coding.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace sedna {

namespace {

constexpr uint32_t kWalSegmentMagic = 0x5357414c;  // "WALS"
constexpr uint32_t kWalSegmentVersion = 1;

/// Upper bound on the group-commit gather window. When the previous group
/// held more than one commit (writers are arriving concurrently), a fresh
/// leader waits before its fsync so the committers acknowledged by the last
/// group can catch the next one — otherwise groups alternate between a
/// batch of one (the leader that found an empty queue) and the pile-up
/// behind it. The actual wait adapts to the device: half the last measured
/// fsync, capped here, so a fast device never waits longer than its own
/// sync.
constexpr std::chrono::microseconds kGroupCommitGather{200};

// WAL instruments are shared by every WalWriter (and the free recovery
// functions below), so they live in one lazily-built bundle.
struct WalMetrics {
  Counter* records;
  Counter* bytes;
  Counter* syncs;
  Counter* io_errors;
  Counter* truncations;
  Counter* rotations;
  Counter* segments_removed;
  Counter* group_commits;
  Histogram* fsync_ns;
  Histogram* sync_batch_size;

  static const WalMetrics& Get() {
    static const WalMetrics m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return WalMetrics{reg.counter("wal.records"),
                        reg.counter("wal.bytes"),
                        reg.counter("wal.syncs"),
                        reg.counter("wal.io_errors"),
                        reg.counter("wal.truncations"),
                        reg.counter("wal.rotations"),
                        reg.counter("wal.segments_removed"),
                        reg.counter("wal.group_commits"),
                        reg.histogram("wal.fsync_ns"),
                        reg.histogram("wal.sync_batch_size")};
    }();
    return m;
  }
};

struct SegmentFile {
  std::string path;
  uint64_t start = 0;
};

/// Existing segment files of the log rooted at `base`, sorted by start LSN.
/// Ignores the rotation temp file and anything else that is not
/// ".seg-" + 20 decimal digits.
StatusOr<std::vector<SegmentFile>> ListSegmentFiles(const std::string& base,
                                                    Vfs* vfs) {
  const std::string prefix = base + ".seg-";
  SEDNA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         vfs->ListFiles(prefix));
  std::vector<SegmentFile> out;
  for (const std::string& name : names) {
    std::string suffix = name.substr(prefix.size());
    if (suffix.size() != 20) continue;
    uint64_t start = 0;
    bool digits = true;
    for (char c : suffix) {
      if (c < '0' || c > '9') {
        digits = false;
        break;
      }
      start = start * 10 + static_cast<uint64_t>(c - '0');
    }
    if (!digits) continue;
    out.push_back({name, start});
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.start < b.start;
            });
  return out;
}

/// Reads and validates a segment header; the start LSN must match the one
/// encoded in the file name.
Status CheckSegmentHeader(File* file, const SegmentFile& seg) {
  char hdr[kWalSegmentHeaderSize];
  SEDNA_RETURN_IF_ERROR(file->Read(0, sizeof(hdr), hdr));
  uint32_t magic = DecodeFixed32(hdr);
  uint32_t version = DecodeFixed32(hdr + 4);
  uint64_t start = DecodeFixed64(hdr + 8);
  if (magic != kWalSegmentMagic) {
    return Status::Corruption("bad magic in WAL segment " + seg.path);
  }
  if (version != kWalSegmentVersion) {
    return Status::Corruption("unsupported WAL segment version in " +
                              seg.path);
  }
  if (start != seg.start) {
    return Status::Corruption("WAL segment " + seg.path +
                              " header start LSN does not match its name");
  }
  return Status::OK();
}

}  // namespace

std::string WalSegmentFileName(const std::string& base, uint64_t start_lsn) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".seg-%020llu",
                static_cast<unsigned long long>(start_lsn));
  return base + suffix;
}

WalWriter::WalWriter(Vfs* vfs) : vfs_(vfs != nullptr ? vfs : Vfs::Default()) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    Status st = Close();
    if (!st.ok()) {
      SEDNA_LOG(kError) << "WAL close failed: " << st.ToString();
    }
  }
}

void WalWriter::set_io_failure_handler(IoFailureHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  io_failure_handler_ = std::move(handler);
}

Status WalWriter::Open(const std::string& base,
                       const WalWriterOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) return Status::FailedPrecondition("WAL already open");
  path_ = base;
  options_ = options;
  if (options_.segment_bytes == 0) options_.segment_bytes = 1;
  sticky_ = Status::OK();
  // A crash during rotation can leave the temp file behind; it was never
  // renamed into the segment sequence, so its contents are irrelevant.
  SEDNA_RETURN_IF_ERROR(vfs_->Remove(base + ".seg-tmp"));
  SEDNA_ASSIGN_OR_RETURN(std::vector<SegmentFile> segs,
                         ListSegmentFiles(base, vfs_));
  if (segs.empty()) {
    end_lsn_ = 0;
    durable_lsn_ = 0;
    return CreateSegmentLocked(0);
  }
  const SegmentFile& last = segs.back();
  auto opened = vfs_->Open(last.path, OpenMode::kAppend);
  if (!opened.ok()) return opened.status();
  std::shared_ptr<File> file(std::move(opened).value());
  SEDNA_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < kWalSegmentHeaderSize) {
    // Headers are fsynced before the rename that publishes a segment, so a
    // short segment is damage, not a crash artifact.
    return Status::Corruption("WAL segment " + last.path +
                              " is shorter than its header");
  }
  SEDNA_RETURN_IF_ERROR(CheckSegmentHeader(file.get(), last));
  file_ = std::move(file);
  segment_start_ = last.start;
  end_lsn_ = last.start + (size - kWalSegmentHeaderSize);
  // Recovery truncated the torn tail and synced before reopening; what is
  // on disk now is the durable baseline.
  durable_lsn_ = end_lsn_;
  return Status::OK();
}

Status WalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::OK();
  Status st = file_->Close();
  file_.reset();
  return st;
}

Status WalWriter::CreateSegmentLocked(uint64_t start_lsn) {
  // Build the new segment under a temp name and publish it with an atomic
  // rename: a crash can leave a stray temp file (removed at Open) but never
  // a half-written segment under a real segment name.
  const std::string tmp = path_ + ".seg-tmp";
  const std::string final_path = WalSegmentFileName(path_, start_lsn);
  auto created = vfs_->Open(tmp, OpenMode::kCreate);
  if (!created.ok()) return created.status();
  std::unique_ptr<File> tmp_file = std::move(created).value();
  std::string header;
  PutFixed32(&header, kWalSegmentMagic);
  PutFixed32(&header, kWalSegmentVersion);
  PutFixed64(&header, start_lsn);
  SEDNA_RETURN_IF_ERROR(tmp_file->Write(0, header.data(), header.size()));
  SEDNA_RETURN_IF_ERROR(tmp_file->Sync());
  SEDNA_RETURN_IF_ERROR(tmp_file->Close());
  SEDNA_RETURN_IF_ERROR(vfs_->Rename(tmp, final_path));
  auto opened = vfs_->Open(final_path, OpenMode::kAppend);
  if (!opened.ok()) return opened.status();
  file_ = std::shared_ptr<File>(std::move(opened).value());
  segment_start_ = start_lsn;
  return Status::OK();
}

void WalWriter::NoteIoFailureLocked(const Status& st) {
  WalMetrics::Get().io_errors->Add();
  if (sticky_.ok()) sticky_ = st;
  if (io_failure_handler_) io_failure_handler_(st);
}

Status WalWriter::RotateLocked() {
  // Seal the active segment with an fsync BEFORE a newer segment exists:
  // this is the invariant that confines torn tails to the newest segment.
  Status st;
  {
    LatencyTimer timer(WalMetrics::Get().fsync_ns);
    st = file_->Sync();
  }
  WalMetrics::Get().syncs->Add();
  if (!st.ok()) {
    if (st.code() == StatusCode::kIOError) NoteIoFailureLocked(st);
    return st;
  }
  if (end_lsn_ > durable_lsn_) durable_lsn_ = end_lsn_;
  Status created = CreateSegmentLocked(end_lsn_);
  if (!created.ok()) {
    if (created.code() == StatusCode::kIOError) NoteIoFailureLocked(created);
    return created;
  }
  WalMetrics::Get().rotations->Add();
  return Status::OK();
}

StatusOr<uint64_t> WalWriter::AppendLocked(WalRecordType type,
                                           uint64_t txn_id,
                                           std::string_view payload) {
  if (!sticky_.ok()) return sticky_;
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (end_lsn_ > segment_start_ &&
      end_lsn_ - segment_start_ >= options_.segment_bytes) {
    SEDNA_RETURN_IF_ERROR(RotateLocked());
  }
  std::string body;
  body.push_back(static_cast<char>(type));
  PutFixed64(&body, txn_id);
  body.append(payload.data(), payload.size());

  std::string record;
  PutFixed32(&record, static_cast<uint32_t>(body.size()));
  PutFixed32(&record, Crc32(body.data(), body.size()));
  record += body;

  uint64_t lsn = end_lsn_;
  Status st = file_->Append(record.data(), record.size());
  if (!st.ok()) {
    if (st.code() == StatusCode::kIOError) NoteIoFailureLocked(st);
    return st;
  }
  end_lsn_ += record.size();
  WalMetrics::Get().records->Add();
  WalMetrics::Get().bytes->Add(record.size());
  return lsn;
}

StatusOr<uint64_t> WalWriter::Append(WalRecordType type, uint64_t txn_id,
                                     std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(type, txn_id, payload);
}

uint64_t WalWriter::end_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_lsn_;
}

uint64_t WalWriter::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

Status WalWriter::SyncLocked(std::unique_lock<std::mutex>& lk) {
  if (!sticky_.ok()) return sticky_;
  if (file_ == nullptr) return Status::OK();
  // fsync outside the log mutex: statements of other transactions keep
  // appending (and followers keep enqueuing commit records for the next
  // group) while the device flushes. The shared_ptr keeps the segment file
  // alive across a concurrent rotation.
  std::shared_ptr<File> file = file_;
  uint64_t target = end_lsn_;
  lk.unlock();
  Status st;
  auto fsync_begin = std::chrono::steady_clock::now();
  {
    LatencyTimer timer(WalMetrics::Get().fsync_ns);
    st = file->Sync();
  }
  auto fsync_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - fsync_begin)
                      .count();
  lk.lock();
  last_fsync_ns_ = static_cast<uint64_t>(fsync_ns);
  WalMetrics::Get().syncs->Add();
  if (st.ok()) {
    if (target > durable_lsn_) durable_lsn_ = target;
  } else if (st.code() == StatusCode::kIOError) {
    NoteIoFailureLocked(st);
  }
  return st;
}

Status WalWriter::Sync() {
  std::unique_lock<std::mutex> lk(mu_);
  return SyncLocked(lk);
}

StatusOr<uint64_t> WalWriter::AppendCommitAndSync(uint64_t txn_id,
                                                  QueryContext* query) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!sticky_.ok()) return sticky_;
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");

  CommitWaiter me;
  me.txn_id = txn_id;
  commit_queue_.push_back(&me);
  if (gathering_) commit_cv_.notify_all();

  // Follower: wait until a leader finishes our group, picks our record, or
  // leaves us to lead. Until a leader picks the record the wait is governed.
  Status st = GovernedWait(query, commit_cv_, lk, [&] {
    return me.done || !leader_active_ || me.picked;
  });
  if (!st.ok()) {
    // Withdraw: no leader has picked this record yet, so it was never
    // written — the commit is guaranteed absent after recovery.
    commit_queue_.erase(
        std::find(commit_queue_.begin(), commit_queue_.end(), &me));
    return st;
  }
  // A picked record's fate belongs to its leader: wait for the outcome.
  (void)GovernedWait(nullptr, commit_cv_, lk,
                     [&] { return me.done || !leader_active_; });
  if (me.done) {
    if (!me.status.ok()) return me.status;
    return me.lsn;
  }

  // Leader: drain the queue (everyone queued so far, ourselves included),
  // append all their commit records, and issue ONE fsync for the batch.
  leader_active_ = true;

  // Gather window: the committers the previous group just acknowledged are
  // busy producing their next transactions right now; without a pause the
  // groups alternate between a batch of one and the pile-up behind it.
  // Only gather when the last group proved writers are concurrent, and
  // never longer than half the device's own fsync — a lone committer or a
  // fast device pays (almost) nothing.
  if (last_group_size_ > 1) {
    auto gather = std::min<std::chrono::nanoseconds>(
        kGroupCommitGather, std::chrono::nanoseconds(last_fsync_ns_ / 2));
    if (gather.count() > 0) {
      auto deadline = std::chrono::steady_clock::now() + gather;
      gathering_ = true;
      // Stop early once the cohort the last group proved exists has shown
      // up; enqueuers notify while gathering_ is set.
      while (commit_queue_.size() < last_group_size_ &&
             std::chrono::steady_clock::now() < deadline) {
        commit_cv_.wait_until(lk, deadline);
      }
      gathering_ = false;
    }
  }

  std::vector<CommitWaiter*> batch;
  batch.reserve(commit_queue_.size());
  for (CommitWaiter* w : commit_queue_) {
    w->picked = true;
    batch.push_back(w);
  }
  commit_queue_.clear();

  bool any_appended = false;
  for (CommitWaiter* w : batch) {
    auto lsn_or = AppendLocked(WalRecordType::kCommit, w->txn_id, {});
    if (lsn_or.ok()) {
      w->lsn = *lsn_or;
      any_appended = true;
    } else {
      w->status = lsn_or.status();
    }
  }

  // SyncLocked drops the mutex during the fsync; committers arriving in
  // that window enqueue behind leader_active_ and form the next group —
  // that pile-up is where sync_batch_size > 1 comes from.
  Status sync_st;
  if (any_appended) sync_st = SyncLocked(lk);

  WalMetrics::Get().group_commits->Add();
  WalMetrics::Get().sync_batch_size->Record(batch.size());
  last_group_size_ = batch.size();
  for (CommitWaiter* w : batch) {
    if (w->status.ok() && !sync_st.ok()) w->status = sync_st;
    w->done = true;
  }
  leader_active_ = false;
  lk.unlock();
  commit_cv_.notify_all();
  if (!me.status.ok()) return me.status;
  return me.lsn;
}

Status WalWriter::RemoveSegmentsBelow(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  SEDNA_ASSIGN_OR_RETURN(std::vector<SegmentFile> segs,
                         ListSegmentFiles(path_, vfs_));
  // A sealed segment covers [start, next.start); it may go once its whole
  // range is below `lsn`. Lowest first, so a crash mid-unlink leaves the
  // remaining segments contiguous. The newest segment never qualifies.
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    if (segs[i + 1].start > lsn) break;
    if (segs[i].start == segment_start_) break;  // never the active segment
    SEDNA_RETURN_IF_ERROR(vfs_->Remove(segs[i].path));
    WalMetrics::Get().segments_removed->Add();
  }
  return Status::OK();
}

StatusOr<std::vector<WalSegment>> WalWriter::LiveSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  SEDNA_ASSIGN_OR_RETURN(std::vector<SegmentFile> segs,
                         ListSegmentFiles(path_, vfs_));
  std::vector<WalSegment> out;
  out.reserve(segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    WalSegment s;
    s.file_path = segs[i].path;
    s.start_lsn = segs[i].start;
    s.end_lsn = i + 1 < segs.size() ? segs[i + 1].start : end_lsn_;
    out.push_back(std::move(s));
  }
  return out;
}

StatusOr<std::vector<WalRecord>> ReadWal(const std::string& base,
                                         uint64_t from_lsn, Vfs* vfs,
                                         uint64_t* valid_end) {
  if (vfs == nullptr) vfs = Vfs::Default();
  std::vector<WalRecord> out;
  if (valid_end != nullptr) *valid_end = from_lsn;
  SEDNA_ASSIGN_OR_RETURN(std::vector<SegmentFile> segs,
                         ListSegmentFiles(base, vfs));
  if (segs.empty()) {
    if (valid_end != nullptr) *valid_end = 0;
    return out;  // no log = nothing to replay
  }
  if (from_lsn < segs.front().start) {
    return Status::Corruption(
        "WAL for " + base + " no longer contains LSN " +
        std::to_string(from_lsn) + ": segments below " +
        std::to_string(segs.front().start) + " were truncated");
  }
  for (size_t i = 0; i < segs.size(); ++i) {
    const bool is_last = i + 1 == segs.size();
    auto opened = vfs->Open(segs[i].path, OpenMode::kReadOnly);
    if (!opened.ok()) return opened.status();
    std::unique_ptr<File> file = std::move(opened).value();
    SEDNA_ASSIGN_OR_RETURN(uint64_t size, file->Size());
    if (size < kWalSegmentHeaderSize) {
      return Status::Corruption("WAL segment " + segs[i].path +
                                " is shorter than its header");
    }
    SEDNA_RETURN_IF_ERROR(CheckSegmentHeader(file.get(), segs[i]));
    uint64_t seg_end = segs[i].start + (size - kWalSegmentHeaderSize);
    if (!is_last && seg_end != segs[i + 1].start) {
      // Rotation seals a segment exactly where the next one starts; any
      // mismatch means a sealed segment lost or grew bytes.
      return Status::Corruption(
          "WAL segment " + segs[i].path + " ends at LSN " +
          std::to_string(seg_end) + " but the next segment starts at " +
          std::to_string(segs[i + 1].start));
    }
    if (seg_end <= from_lsn) continue;  // wholly below the replay point

    uint64_t pos = std::max(from_lsn, segs[i].start);
    while (pos + 8 <= seg_end) {
      uint64_t off = kWalSegmentHeaderSize + (pos - segs[i].start);
      char header[8];
      SEDNA_RETURN_IF_ERROR(file->Read(off, 8, header));
      uint32_t len = DecodeFixed32(header);
      uint32_t crc = DecodeFixed32(header + 4);
      bool parsed = false;
      if (len > 0 && pos + 8 + len <= seg_end) {
        std::string body(len, '\0');
        SEDNA_RETURN_IF_ERROR(file->Read(off + 8, len, body.data()));
        if (Crc32(body.data(), body.size()) == crc) {
          WalRecord record;
          record.type = static_cast<WalRecordType>(body[0]);
          record.txn_id = DecodeFixed64(body.data() + 1);
          record.lsn = pos;
          record.payload = body.substr(9);
          out.push_back(std::move(record));
          parsed = true;
        }
      }
      if (!parsed) break;
      pos += 8 + len;
      if (valid_end != nullptr) *valid_end = pos;
    }
    if (pos != seg_end) {
      if (!is_last) {
        return Status::Corruption(
            "corrupt record at LSN " + std::to_string(pos) +
            " in sealed WAL segment " + segs[i].path +
            " (only the newest segment may have a torn tail)");
      }
      break;  // torn tail in the newest segment: cut here
    }
  }
  return out;
}

Status TruncateWalTail(const std::string& base, uint64_t valid_end,
                       Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  SEDNA_ASSIGN_OR_RETURN(std::vector<SegmentFile> segs,
                         ListSegmentFiles(base, vfs));
  if (segs.empty()) return Status::OK();  // no log, nothing to cut
  const SegmentFile& last = segs.back();
  uint64_t target = valid_end > last.start
                        ? kWalSegmentHeaderSize + (valid_end - last.start)
                        : kWalSegmentHeaderSize;
  auto opened = vfs->Open(last.path, OpenMode::kReadWrite);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<File> file = std::move(opened).value();
  SEDNA_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size <= target) return Status::OK();
  WalMetrics::Get().truncations->Add();
  SEDNA_LOG(kWarning) << "truncating WAL segment " << last.path << " from "
                      << size << " to " << target << " bytes (torn tail)";
  SEDNA_RETURN_IF_ERROR(file->Truncate(target));
  SEDNA_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status RemoveWalLog(const std::string& base, Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  // The prefix also matches the rotation temp file ".seg-tmp".
  SEDNA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         vfs->ListFiles(base + ".seg-"));
  for (const std::string& name : names) {
    SEDNA_RETURN_IF_ERROR(vfs->Remove(name));
  }
  // Pre-segment logs lived in a single file at the base path.
  return vfs->Remove(base);
}

}  // namespace sedna
