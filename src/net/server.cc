#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"

namespace sedna::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Parses a non-negative integer option value ("123"); full-string match.
bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  *out = v;
  return true;
}

}  // namespace

struct Server::NetMetrics {
  Counter* accepted;
  Counter* refused;
  Counter* closed;
  Counter* bytes_read;
  Counter* bytes_written;
  Counter* statements;
  Counter* statement_errors;
  Counter* drain_rejected;
  Counter* protocol_errors;
  Counter* cancels;
  Counter* options_set;
  Counter* result_chunks;
  Counter* txn_begins;
  Counter* txn_commits;
  Counter* txn_aborts;            // client-requested AbortTxn
  Counter* txn_idle_aborts;       // aborted by the txn idle timer
  Counter* txn_disconnect_aborts; // aborted because the connection died
  Counter* txn_drain_aborts;      // aborted by Shutdown
  Counter* idle_closed;           // connections reaped by the idle timer
  Gauge* active_connections;
  Gauge* active_statements;
  Gauge* queued_statements;
  Histogram* request_ns;

  static const NetMetrics* Get() {
    static const NetMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return new NetMetrics{reg.counter("net.connections_accepted"),
                            reg.counter("net.connections_refused"),
                            reg.counter("net.connections_closed"),
                            reg.counter("net.bytes_read"),
                            reg.counter("net.bytes_written"),
                            reg.counter("net.statements"),
                            reg.counter("net.statement_errors"),
                            reg.counter("net.drain_rejected"),
                            reg.counter("net.protocol_errors"),
                            reg.counter("net.cancels"),
                            reg.counter("net.options_set"),
                            reg.counter("net.result_chunks"),
                            reg.counter("net.txn_begins"),
                            reg.counter("net.txn_commits"),
                            reg.counter("net.txn_aborts"),
                            reg.counter("net.txn_idle_aborts"),
                            reg.counter("net.txn_disconnect_aborts"),
                            reg.counter("net.txn_drain_aborts"),
                            reg.counter("net.idle_closed"),
                            reg.gauge("net.active_connections"),
                            reg.gauge("net.active_statements"),
                            reg.gauge("net.queued_statements"),
                            reg.histogram("net.request_ns")};
    }();
    return m;
  }
};

StatusOr<std::unique_ptr<Server>> Server::Start(Database* db,
                                                const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(db, options));
  SEDNA_RETURN_IF_ERROR(server->Init());
  return server;
}

Status Server::Init() {
  metrics_ = NetMetrics::Get();
  transport_ =
      options_.transport != nullptr ? options_.transport : Transport::Default();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Errno("bind " + options_.host + ":" +
                      std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 512) < 0) {
    Status st = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  if (!SetNonBlocking(listen_fd_)) {
    Status st = Errno("fcntl(listener, O_NONBLOCK)");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) < 0) {
    Status st = Errno("pipe2");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  loop_thread_ = std::thread([this] { EventLoop(); });
  uint32_t n = options_.worker_threads == 0 ? 1 : options_.worker_threads;
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  return Status::OK();
}

Server::~Server() {
  if (!shutdown_started_.load(std::memory_order_acquire)) {
    Status st = Shutdown(options_.drain_grace);
    if (!st.ok()) {
      SEDNA_LOG(kError) << "server shutdown failed: " << st.ToString();
    }
  }
}

void Server::WakeLoop() {
  char b = 'w';
  // EAGAIN means a wake-up is already pending — exactly what we want.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void Server::EventLoop() {
  std::vector<pollfd> fds;
  std::vector<ConnPtr> polled;
  auto last_sweep = std::chrono::steady_clock::now();
  while (!loop_stop_.load(std::memory_order_acquire)) {
    ReapDoomed();

    const auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= std::chrono::milliseconds(50)) {
      SweepIdle(now);
      last_sweep = now;
    }

    const bool accepting = accepting_.load(std::memory_order_acquire);
    fds.clear();
    polled.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [id, c] : conns_) {
        short events = 0;
        if (!c->reading_disabled) events |= POLLIN;
        {
          std::lock_guard<std::mutex> cl(c->mu);
          if (!c->out.empty()) events |= POLLOUT;
        }
        fds.push_back({c->sock->fd(), events, 0});
        polled.push_back(c);
      }
    }

    int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (rc < 0) {
      if (errno == EINTR) continue;
      SEDNA_LOG(kError) << "poll failed: " << std::strerror(errno);
      break;
    }

    size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    ++idx;
    if (accepting) {
      if (fds[idx].revents & POLLIN) AcceptNew();
      ++idx;
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const ConnPtr& c = polled[i];
      short re = fds[idx + i].revents;
      {
        std::lock_guard<std::mutex> cl(c->mu);
        if (c->closed) continue;  // reaped this round already
      }
      if (re & (POLLERR | POLLNVAL)) {
        CloseConn(c);
        continue;
      }
      if (re & POLLOUT) FlushWrites(c);
      if (re & (POLLIN | POLLHUP)) {
        // FlushWrites may have closed the connection (send error or
        // close_after_flush); recv()ing then would touch a freed fd number
        // that another thread may already have reused.
        bool closed;
        {
          std::lock_guard<std::mutex> cl(c->mu);
          closed = c->closed;
        }
        if (!closed) HandleReadable(c);
      }
    }
  }

  // Loop exit: close everything still open.
  std::vector<ConnPtr> leftover;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, c] : conns_) leftover.push_back(c);
  }
  for (const ConnPtr& c : leftover) CloseConn(c);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient
    bool refuse = draining_.load(std::memory_order_acquire);
    if (!refuse) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      refuse = conns_.size() >= options_.max_connections;
    }
    if (refuse) {
      ::close(fd);
      metrics_->refused->Add();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      int sz = options_.so_sndbuf;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
    }
    auto c = std::make_shared<Conn>();
    c->sock = transport_->Adopt(fd);
    c->session = db_->Connect();
    c->last_activity = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      c->id = next_conn_id_++;
      conns_[c->id] = c;
      metrics_->active_connections->Set(static_cast<int64_t>(conns_.size()));
    }
    metrics_->accepted->Add();
  }
}

void Server::HandleReadable(const ConnPtr& c) {
  char buf[64 * 1024];
  int err = 0;
  ssize_t n = c->sock->Read(buf, sizeof(buf), &err);
  if (n == 0) {
    CloseConn(c);
    return;
  }
  if (n < 0) {
    if (err == EAGAIN || err == EWOULDBLOCK || err == EINTR) return;
    CloseConn(c);
    return;
  }
  metrics_->bytes_read->Add(static_cast<uint64_t>(n));
  c->inbuf.append(buf, static_cast<size_t>(n));
  {
    std::lock_guard<std::mutex> cl(c->mu);
    c->last_activity = std::chrono::steady_clock::now();
  }

  while (!c->reading_disabled) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    DecodeResult r = DecodeFrame(c->inbuf, &frame, &consumed, &error);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kBad) {
      ProtocolErrorClose(c, error);
      return;
    }
    c->inbuf.erase(0, consumed);
    HandleFrame(c, std::move(frame));
    bool dead;
    {
      std::lock_guard<std::mutex> cl(c->mu);
      dead = c->closed;
    }
    if (dead) return;
  }
}

void Server::HandleFrame(const ConnPtr& c, Frame frame) {
  if (!IsClientMessageType(static_cast<uint8_t>(frame.type))) {
    ProtocolErrorClose(
        c, Status::ProtocolError(
               "unknown client message type " +
               std::to_string(static_cast<unsigned>(frame.type))));
    return;
  }
  if (!c->hello_done) {
    if (frame.type != MessageType::kHello) {
      ProtocolErrorClose(
          c, Status::ProtocolError("expected Hello as the first frame"));
      return;
    }
    Status st = DecodeHello(frame.payload);
    if (!st.ok()) {
      ProtocolErrorClose(c, st);
      return;
    }
    c->hello_done = true;
    EnqueueFromLoop(c, MessageType::kHelloOk,
                    EncodeHelloOk(c->session->session_id(),
                                  "sedna-repro/net 1 (pid " +
                                      std::to_string(::getpid()) + ")"));
    return;
  }

  switch (frame.type) {
    case MessageType::kHello:
      ProtocolErrorClose(c, Status::ProtocolError("duplicate Hello"));
      return;
    case MessageType::kCancel:
      // Out of band: never queued, never answered. Trips the token of the
      // statement executing right now; the statement's own reply carries
      // kCancelled.
      metrics_->cancels->Add();
      c->session->Cancel();
      return;
    case MessageType::kExecute:
    case MessageType::kExplain:
    case MessageType::kSetOption:
    case MessageType::kClose:
    case MessageType::kBegin:
    case MessageType::kCommitTxn:
    case MessageType::kAbortTxn: {
      WorkItem item;
      item.type = frame.type;
      item.enqueued = std::chrono::steady_clock::now();
      item.drain_reject = draining_.load(std::memory_order_acquire);
      if (frame.type == MessageType::kSetOption) {
        Status st = DecodeSetOption(frame.payload, &item.text, &item.value);
        if (!st.ok()) {
          ProtocolErrorClose(c, st);
          return;
        }
      } else if (frame.type == MessageType::kBegin) {
        Status st = DecodeBegin(frame.payload, &item.begin_read_only);
        if (!st.ok()) {
          ProtocolErrorClose(c, st);
          return;
        }
      } else if (frame.type == MessageType::kCommitTxn ||
                 frame.type == MessageType::kAbortTxn) {
        if (!frame.payload.empty()) {
          ProtocolErrorClose(c, Status::ProtocolError(
                                    "transaction-control frame carries an "
                                    "unexpected payload"));
          return;
        }
      } else {
        item.text = std::move(frame.payload);
      }
      if (item.counts_inflight()) {
        inflight_statements_.fetch_add(1, std::memory_order_acq_rel);
        if (item.is_statement()) metrics_->queued_statements->Add(1);
      }
      bool overflow = false;
      {
        std::lock_guard<std::mutex> cl(c->mu);
        c->pending.push_back(std::move(item));
        overflow = c->pending.size() > options_.max_pipelined_statements;
      }
      if (overflow) {
        ProtocolErrorClose(
            c, Status::ProtocolError(
                   "more than " +
                   std::to_string(options_.max_pipelined_statements) +
                   " pipelined requests"));
        return;
      }
      ScheduleConn(c);
      return;
    }
    default:
      return;  // unreachable; IsClientMessageType filtered
  }
}

void Server::ScheduleConn(const ConnPtr& c) {
  {
    std::lock_guard<std::mutex> cl(c->mu);
    if (c->closed || c->scheduled || c->running || c->pending.empty()) return;
    c->scheduled = true;
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    ready_.push_back(c);
  }
  work_cv_.notify_one();
}

void Server::EnqueueFromLoop(const ConnPtr& c, MessageType type,
                             std::string_view payload) {
  std::string frame;
  AppendFrame(&frame, type, payload);
  std::lock_guard<std::mutex> cl(c->mu);
  if (c->closed) return;
  c->out_bytes += frame.size();
  c->out.push_back(std::move(frame));
  // The loop polls POLLOUT next round; no wake needed from the loop itself.
}

void Server::ProtocolErrorClose(const ConnPtr& c, const Status& error) {
  metrics_->protocol_errors->Add();
  EnqueueFromLoop(c, MessageType::kError, EncodeError(error));
  c->reading_disabled = true;
  bool flush_pending;
  {
    std::lock_guard<std::mutex> cl(c->mu);
    c->close_after_flush = true;
    flush_pending = !c->out.empty();
  }
  // Try to push the error out now; otherwise POLLOUT finishes the job.
  if (flush_pending) FlushWrites(c);
}

Server::WriteOutcome Server::WriteQueuedLocked(Conn& c) {
  WriteOutcome outcome = WriteOutcome::kDrained;
  while (!c.out.empty()) {
    const std::string& front = c.out.front();
    // Non-blocking (accepted with SOCK_NONBLOCK): a full socket buffer
    // surfaces as EAGAIN and POLLOUT finishes the job next round.
    int err = 0;
    ssize_t n = c.sock->Write(front.data() + c.out_offset,
                              front.size() - c.out_offset, &err);
    if (n < 0) {
      outcome = (err == EAGAIN || err == EWOULDBLOCK || err == EINTR)
                    ? WriteOutcome::kBlocked
                    : WriteOutcome::kFailed;
      break;
    }
    metrics_->bytes_written->Add(static_cast<uint64_t>(n));
    c.out_offset += static_cast<size_t>(n);
    c.out_bytes -= static_cast<size_t>(n);
    if (c.out_offset == front.size()) {
      c.out.pop_front();
      c.out_offset = 0;
    }
  }
  if (c.out_bytes < options_.write_buffer_soft_cap) {
    c.write_cv.notify_all();
  }
  return outcome;
}

void Server::FlushWrites(const ConnPtr& c) {
  std::unique_lock<std::mutex> cl(c->mu);
  if (c->closed) return;
  WriteOutcome w = WriteQueuedLocked(*c);
  bool close_now = w == WriteOutcome::kFailed ||
                   (w == WriteOutcome::kDrained && c->close_after_flush);
  cl.unlock();
  if (close_now) CloseConn(c);
}

void Server::CloseConn(const ConnPtr& c) {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (conns_.erase(c->id) == 0) return;  // already closed
    metrics_->active_connections->Set(static_cast<int64_t>(conns_.size()));
  }
  size_t dropped_statements = 0;
  size_t dropped_inflight = 0;
  bool abort_txn = false;
  {
    std::lock_guard<std::mutex> cl(c->mu);
    c->closed = true;
    c->out.clear();
    c->out_bytes = 0;
    c->out_offset = 0;
    for (const WorkItem& item : c->pending) {
      if (item.is_statement()) ++dropped_statements;
      if (item.counts_inflight()) ++dropped_inflight;
    }
    c->pending.clear();
    c->write_cv.notify_all();
    // Crash-honest lifecycle: a dead connection's open transaction must
    // abort. If a worker is mid-item it observes `closed` in its epilogue
    // (under this mutex) and aborts the orphan itself; otherwise no worker
    // can start again (ProcessOne re-checks `closed` before setting
    // `running`), so this thread owns the abort. Exactly one side fires.
    abort_txn = !c->running;
  }
  if (dropped_inflight > 0) {
    inflight_statements_.fetch_sub(dropped_inflight,
                                   std::memory_order_acq_rel);
  }
  if (dropped_statements > 0) {
    metrics_->queued_statements->Add(
        -static_cast<int64_t>(dropped_statements));
  }
  // Abort whatever the connection's session is executing; the worker's
  // pending reply lands in the cleared (closed) queue and is dropped.
  c->session->Cancel();
  if (abort_txn) AbortAbandonedTxn(c);
  c->sock->Close();
  metrics_->closed->Add();
}

void Server::AbortAbandonedTxn(const ConnPtr& c) {
  if (!c->session->in_transaction()) return;
  Status st = c->session->Abort();
  if (!st.ok()) {
    SEDNA_LOG(kError) << "abandoned-transaction abort failed: "
                      << st.ToString();
  }
  if (draining_.load(std::memory_order_acquire)) {
    metrics_->txn_drain_aborts->Add();
  } else {
    metrics_->txn_disconnect_aborts->Add();
  }
}

void Server::SweepIdle(std::chrono::steady_clock::time_point now) {
  const bool reap = options_.idle_timeout.count() > 0;
  const bool txn_sweep = options_.txn_idle_timeout.count() > 0;
  if (!reap && !txn_sweep) return;
  std::vector<ConnPtr> snapshot;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    snapshot.reserve(conns_.size());
    for (auto& [id, c] : conns_) snapshot.push_back(c);
  }
  for (const ConnPtr& c : snapshot) {
    bool close_it = false;
    bool abort_txn = false;
    {
      std::lock_guard<std::mutex> cl(c->mu);
      // Only truly idle connections qualify: nothing queued, nothing
      // running. A long statement never counts as idleness.
      if (c->closed || c->running || !c->pending.empty()) continue;
      const auto idle = now - c->last_activity;
      if (reap && idle >= options_.idle_timeout) {
        close_it = true;
      } else if (txn_sweep && idle >= options_.txn_idle_timeout &&
                 c->session->in_transaction()) {
        // The loop is the only frame source and no worker is active, so
        // the session is quiescent and may be aborted from this thread.
        // The flag makes later statements fail kAborted (never silent
        // autocommit); resetting the clock makes the abort fire once.
        c->txn_idle_aborted = true;
        c->last_activity = now;
        abort_txn = true;
      }
    }
    if (close_it) {
      metrics_->idle_closed->Add();
      CloseConn(c);
    } else if (abort_txn) {
      // Counted first: a watcher that sees the transaction gone must also
      // see it counted.
      metrics_->txn_idle_aborts->Add();
      Status st = c->session->Abort();
      if (!st.ok()) {
        SEDNA_LOG(kError) << "idle-transaction abort failed: "
                          << st.ToString();
      }
    }
  }
}

void Server::ReapDoomed() {
  std::vector<ConnPtr> doomed;
  {
    std::lock_guard<std::mutex> lock(doomed_mu_);
    doomed.swap(doomed_);
  }
  for (const ConnPtr& c : doomed) CloseConn(c);
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void Server::WorkerMain() {
  for (;;) {
    ConnPtr c;
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      work_cv_.wait(lock, [&] { return workers_stop_ || !ready_.empty(); });
      if (ready_.empty()) {
        if (workers_stop_) return;
        continue;
      }
      c = std::move(ready_.front());
      ready_.pop_front();
    }
    ProcessOne(c);
  }
}

void Server::ProcessOne(const ConnPtr& c) {
  WorkItem item;
  {
    std::lock_guard<std::mutex> cl(c->mu);
    c->scheduled = false;
    if (c->closed || c->running || c->pending.empty()) return;
    item = std::move(c->pending.front());
    c->pending.pop_front();
    c->running = true;
  }

  switch (item.type) {
    case MessageType::kExecute:
    case MessageType::kExplain:
      ExecuteStatement(c, item);
      break;
    case MessageType::kSetOption:
      ApplyOption(c, item);
      break;
    case MessageType::kBegin:
    case MessageType::kCommitTxn:
    case MessageType::kAbortTxn:
      HandleTxnControl(c, item);
      break;
    case MessageType::kClose: {
      std::string frame;
      AppendFrame(&frame, MessageType::kGoodbye, "");
      std::unique_lock<std::mutex> cl(c->mu);
      if (!c->closed) {
        c->out_bytes += frame.size();
        c->out.push_back(std::move(frame));
        c->close_after_flush = true;
        SendFromWorker(c, std::move(cl));
      }
      break;
    }
    default:
      break;
  }

  bool requeue = false;
  bool abort_orphan = false;
  {
    std::lock_guard<std::mutex> cl(c->mu);
    c->running = false;
    c->last_activity = std::chrono::steady_clock::now();
    if (c->closed) {
      // CloseConn ran while this item executed and left the orphaned
      // transaction to us (see the handoff comment there).
      abort_orphan = true;
    } else if (!c->pending.empty() && !c->scheduled) {
      c->scheduled = true;
      requeue = true;
    }
  }
  if (abort_orphan) AbortAbandonedTxn(c);
  if (requeue) {
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      ready_.push_back(c);
    }
    work_cv_.notify_one();
  }
}

Status Server::BlockingEnqueue(const ConnPtr& c, std::string frames) {
  std::unique_lock<std::mutex> cl(c->mu);
  auto writable = [&] {
    return c->closed || c->doomed ||
           draining_hard_.load(std::memory_order_acquire) ||
           c->out_bytes < options_.write_buffer_soft_cap;
  };
  if (!writable()) {
    // Flow control: wait for the client to read, governed by the statement
    // this worker is running (none between statements).
    Status st = GovernedWait(
        c->session->current_query(), c->write_cv, cl, writable,
        std::chrono::steady_clock::now() + options_.write_stall_timeout);
    if (st.code() == StatusCode::kTimedOut) {
      // The client stopped reading; free the worker and drop the client.
      DoomLocked(c, std::move(cl));
      return Status::Unavailable("client stalled (write buffer full for " +
                                 std::to_string(
                                     options_.write_stall_timeout.count()) +
                                 " ms)");
    }
    SEDNA_RETURN_IF_ERROR(st);
  }
  if (c->closed || c->doomed) {
    return Status::Unavailable("connection closed");
  }
  if (c->out_bytes >= options_.write_buffer_soft_cap) {
    // Ready only because the drain went hard.
    return Status::Unavailable("server shutting down");
  }
  c->out_bytes += frames.size();
  c->out.push_back(std::move(frames));
  SendFromWorker(c, std::move(cl));
  return Status::OK();
}

void Server::SendFromWorker(const ConnPtr& c,
                            std::unique_lock<std::mutex> cl) {
  WriteOutcome w = WriteQueuedLocked(*c);
  if (w == WriteOutcome::kFailed ||
      (w == WriteOutcome::kDrained && c->close_after_flush)) {
    // Socket errors and closes belong to the loop.
    DoomLocked(c, std::move(cl));
    return;
  }
  cl.unlock();
  // Leftover bytes wait for POLLOUT, which the loop's poll set only asks
  // for once it is rebuilt.
  if (w == WriteOutcome::kBlocked) WakeLoop();
}

void Server::DoomLocked(const ConnPtr& c, std::unique_lock<std::mutex> cl) {
  c->doomed = true;
  cl.unlock();
  {
    std::lock_guard<std::mutex> lock(doomed_mu_);
    doomed_.push_back(c);
  }
  WakeLoop();
}

void Server::ExecuteStatement(const ConnPtr& c, const WorkItem& item) {
  metrics_->queued_statements->Add(-1);
  auto finish = [&](bool error) {
    auto elapsed = std::chrono::steady_clock::now() - item.enqueued;
    metrics_->request_ns->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    if (error) {
      metrics_->statement_errors->Add();
    } else {
      metrics_->statements->Add();
    }
    inflight_statements_.fetch_sub(1, std::memory_order_acq_rel);
  };

  if (item.drain_reject || draining_hard_.load(std::memory_order_acquire)) {
    metrics_->drain_rejected->Add();
    std::string frame;
    AppendFrame(&frame, MessageType::kError,
                EncodeError(Status::Unavailable(
                    "server is draining; retry against a live server")));
    (void)BlockingEnqueue(c, std::move(frame));
    finish(/*error=*/true);
    return;
  }

  bool idle_aborted;
  {
    std::lock_guard<std::mutex> cl(c->mu);
    idle_aborted = c->txn_idle_aborted;
  }
  if (idle_aborted) {
    // The server aborted this connection's transaction (idle timeout).
    // Refuse statements until the client acknowledges with Begin/AbortTxn:
    // executing them as autocommit would silently split the transaction.
    std::string frame;
    AppendFrame(&frame, MessageType::kError,
                EncodeError(Status::Aborted(
                    "transaction aborted by the server (idle past "
                    "txn_idle_timeout); acknowledge with Begin or "
                    "AbortTxn")));
    (void)BlockingEnqueue(c, std::move(frame));
    finish(/*error=*/true);
    return;
  }

  metrics_->active_statements->Add(1);
  Session* session = c->session.get();

  // Streaming result sink: serialized bytes are sliced into ResultChunk
  // frames of result_chunk_bytes and flow-controlled per connection, so
  // the result never materializes server-side.
  std::string chunk_buf;
  size_t queued_chunks = 0;
  Status sink_status;  // first enqueue failure, kept for classification
  auto flush_chunks = [&]() -> Status {
    size_t chunk = options_.result_chunk_bytes == 0
                       ? 32 * 1024
                       : options_.result_chunk_bytes;
    while (chunk_buf.size() >= chunk) {
      std::string frame;
      AppendFrame(&frame, MessageType::kResultChunk,
                  std::string_view(chunk_buf.data(), chunk));
      Status st = BlockingEnqueue(c, std::move(frame));
      if (!st.ok()) {
        if (sink_status.ok()) sink_status = st;
        return st;
      }
      metrics_->result_chunks->Add();
      ++queued_chunks;
      chunk_buf.erase(0, chunk);
    }
    return Status::OK();
  };
  session->set_result_sink([&](std::string_view piece) -> Status {
    chunk_buf.append(piece.data(), piece.size());
    return flush_chunks();
  });

  std::string text = item.type == MessageType::kExplain
                         ? "explain " + item.text
                         : item.text;
  StatusOr<QueryResult> result = session->Execute(text);
  session->set_result_sink(nullptr);

  metrics_->active_statements->Add(-1);

  if (result.ok()) {
    // The sink left less than one chunk behind: send it and ResultDone in
    // one enqueue, so a short result costs one write.
    const bool last_chunk = !chunk_buf.empty();
    std::string frames;
    if (last_chunk) AppendFrame(&frames, MessageType::kResultChunk, chunk_buf);
    AppendFrame(&frames, MessageType::kResultDone,
                EncodeResultDone(result->kind, result->affected,
                                 result->peak_memory_bytes));
    Status st = BlockingEnqueue(c, std::move(frames));
    if (st.ok() && last_chunk) metrics_->result_chunks->Add();
    finish(/*error=*/!st.ok());
    return;
  }

  // Prefer the first sink failure for classification: an operator may have
  // wrapped the enqueue error on the way out of the pipeline.
  Status st = !sink_status.ok() ? sink_status : result.status();
  std::string frame;
  AppendFrame(&frame, MessageType::kError, EncodeError(st));
  {
    // The client discards a failed statement's partial result, so its
    // unsent chunks are dropped and the Error frame fits under the soft cap
    // even when the statement was cut while the client was not reading.
    // They are the tail of the queue (earlier replies went out first); a
    // partly written front frame stays, and a frame the loop appended since
    // (a protocol error) ends the scan.
    std::lock_guard<std::mutex> cl(c->mu);
    const size_t keep = c->out_offset > 0 ? 1 : 0;
    for (; queued_chunks > 0 && c->out.size() > keep; --queued_chunks) {
      const std::string& tail = c->out.back();
      if (static_cast<MessageType>(tail[kFrameHeaderBytes - 1]) !=
          MessageType::kResultChunk) {
        break;
      }
      c->out_bytes -= tail.size();
      c->out.pop_back();
    }
  }
  (void)BlockingEnqueue(c, std::move(frame));
  finish(/*error=*/true);
}

void Server::ApplyOption(const ConnPtr& c, const WorkItem& item) {
  Session* session = c->session.get();
  const std::string& key = item.text;
  uint64_t v = 0;
  Status st;
  if (!ParseUint(item.value, &v)) {
    st = Status::InvalidArgument("option '" + key +
                                 "' needs a non-negative integer, got '" +
                                 item.value + "'");
  } else if (key == "timeout_ms") {
    session->set_statement_timeout(std::chrono::milliseconds(v));
  } else if (key == "memory_budget") {
    session->set_statement_memory_budget(v);
  } else if (key == "check_interval") {
    session->set_check_interval(static_cast<uint32_t>(v));
  } else if (key == "parallel_workers") {
    session->set_parallel_workers(static_cast<uint32_t>(v));
  } else if (key == "batch_size") {
    session->set_batch_size(static_cast<size_t>(v));
  } else if (key == "cancel_at_tick") {
    // Deterministic kill hook for torture tests: the session trips its own
    // cancellation at the N-th governance tick of each statement.
    session->set_cancel_at_tick(v);
  } else {
    st = Status::InvalidArgument("unknown option '" + key + "'");
  }

  std::string frame;
  if (st.ok()) {
    metrics_->options_set->Add();
    AppendFrame(&frame, MessageType::kOptionOk, "");
  } else {
    AppendFrame(&frame, MessageType::kError, EncodeError(st));
  }
  (void)BlockingEnqueue(c, std::move(frame));
}

void Server::HandleTxnControl(const ConnPtr& c, const WorkItem& item) {
  auto finish = [&] {
    auto elapsed = std::chrono::steady_clock::now() - item.enqueued;
    metrics_->request_ns->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    inflight_statements_.fetch_sub(1, std::memory_order_acq_rel);
  };

  if (item.drain_reject || draining_hard_.load(std::memory_order_acquire)) {
    // The drain epilogue aborts whatever is still open; accepting a Begin
    // (or worse, a Commit) past this point would race it.
    metrics_->drain_rejected->Add();
    std::string frame;
    AppendFrame(&frame, MessageType::kError,
                EncodeError(Status::Unavailable(
                    "server is draining; retry against a live server")));
    (void)BlockingEnqueue(c, std::move(frame));
    finish();
    return;
  }

  Session* session = c->session.get();
  bool idle_aborted;
  {
    std::lock_guard<std::mutex> cl(c->mu);
    idle_aborted = c->txn_idle_aborted;
    // Any transaction-control frame acknowledges the server-side abort:
    // the client now learns the old transaction is gone.
    c->txn_idle_aborted = false;
  }

  Status st;
  switch (item.type) {
    case MessageType::kBegin:
      st = session->Begin(item.begin_read_only);
      if (st.ok()) metrics_->txn_begins->Add();
      break;
    case MessageType::kCommitTxn:
      if (idle_aborted) {
        // Never pretend the vanished transaction's effects survived.
        st = Status::Aborted(
            "transaction aborted by the server (idle past "
            "txn_idle_timeout); nothing to commit");
      } else {
        st = session->Commit();
        if (st.ok()) metrics_->txn_commits->Add();
      }
      break;
    default:  // kAbortTxn
      if (idle_aborted) {
        st = Status::OK();  // already aborted server-side; idempotent ack
      } else {
        st = session->Abort();
        if (st.ok()) metrics_->txn_aborts->Add();
      }
      break;
  }

  std::string frame;
  if (st.ok()) {
    AppendFrame(&frame, MessageType::kTxnOk,
                EncodeTxnOk(session->in_transaction()));
  } else {
    AppendFrame(&frame, MessageType::kError, EncodeError(st));
  }
  (void)BlockingEnqueue(c, std::move(frame));
  finish();
}

// ---------------------------------------------------------------------------
// Drain / shutdown
// ---------------------------------------------------------------------------

Status Server::Shutdown(std::chrono::milliseconds grace) {
  bool expected = false;
  if (!shutdown_started_.compare_exchange_strong(expected, true)) {
    return Status::FailedPrecondition("server already shut down");
  }

  // Phase 1: stop taking new work. The accept gate flips atomically; any
  // statement parsed after this instant carries drain_reject and is
  // answered with kUnavailable by the worker that reaches it (keeping the
  // per-connection reply order intact).
  draining_.store(true, std::memory_order_release);
  accepting_.store(false, std::memory_order_release);
  WakeLoop();

  // Phase 2: let in-flight statements finish under the grace deadline.
  const auto deadline = std::chrono::steady_clock::now() + grace;
  while (inflight_statements_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Phase 3: hard abort the stragglers through governance. Every running
  // statement observes its cancellation token at the next tick (pipeline
  // pulls, lock waits, group-commit waits and result-sink flow control are
  // all governed), and queued-but-unstarted statements are answered with
  // kUnavailable by the workers.
  if (inflight_statements_.load(std::memory_order_acquire) > 0) {
    draining_hard_.store(true, std::memory_order_release);
    // Re-issue the cancels every round: a statement that was dispatched but
    // had not yet reached BeginGoverned when a previous round fired has no
    // token registered at that instant and would otherwise lose the cancel,
    // blocking this drain forever on an unbounded statement.
    while (inflight_statements_.load(std::memory_order_acquire) > 0) {
      std::vector<ConnPtr> live;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto& [id, c] : conns_) live.push_back(c);
      }
      for (const ConnPtr& c : live) c->session->Cancel();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Phase 4: stop the workers (all statement work is done).
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // Phase 5: say Goodbye everywhere, give the loop a moment to flush, then
  // stop it; its exit path closes every remaining connection.
  std::vector<ConnPtr> live;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, c] : conns_) live.push_back(c);
  }
  for (const ConnPtr& c : live) {
    std::lock_guard<std::mutex> cl(c->mu);
    if (c->closed) continue;
    std::string frame;
    AppendFrame(&frame, MessageType::kGoodbye, "");
    c->out_bytes += frame.size();
    c->out.push_back(std::move(frame));
    c->close_after_flush = true;
  }
  WakeLoop();
  const auto flush_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (active_connections() > 0 &&
         std::chrono::steady_clock::now() < flush_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  loop_stop_.store(true, std::memory_order_release);
  WakeLoop();
  // When Init() failed before spawning the loop (bad address, bind/listen
  // or pipe2 error) the destructor still runs Shutdown(); joining a
  // non-joinable thread would throw out of a noexcept destructor.
  if (loop_thread_.joinable()) loop_thread_.join();

  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  return Status::OK();
}

}  // namespace sedna::net
