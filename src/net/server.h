// TCP front end: the paper's Figure 1 governor process, for real — many
// client connections multiplexed onto a bounded worker pool.
//
// Architecture (DESIGN.md §13):
//
//   * one EVENT-LOOP thread owns every socket: non-blocking accept, reads,
//     frame parsing and writes via poll(2). It never executes statements,
//     so thousands of idle connections cost one pollfd each.
//   * a bounded WORKER POOL executes statements. The scheduler is a FIFO
//     of runnable connections; each dispatch runs exactly ONE queued item
//     (statement / SetOption / Close) and then requeues the connection if
//     more are pending — round-robin fairness across any number of
//     connections on a handful of threads.
//   * per-connection Session state carries the governance knobs (timeout,
//     memory budget, parallel workers, ...) set via SetOption; every
//     statement passes the process-wide Governor's admission gate. Its
//     caps (reject or bounded-FIFO queue) are off unless the embedding
//     program sets them; the server never does.
//   * results STREAM: the session's result sink slices the serialized
//     result into ResultChunk frames and queues them on the connection,
//     blocking when the connection's write buffer is full. The wait is
//     governed by the statement, so its deadline and a Cancel end it —
//     a large result never materializes server-side and a stalled client
//     throttles only its own statement. A failed statement's unsent
//     chunks are dropped before its Error frame is queued.
//   * the worker that produced a reply SENDS it: after queueing, it
//     writes the queued bytes itself (under the connection mutex, as the
//     loop does), and the last chunk travels with ResultDone in one
//     write. It wakes the event loop only when bytes remain (EAGAIN; the
//     loop finishes on POLLOUT), when a write fails, or when the
//     connection must close after the flush — socket errors and closes
//     stay with the loop.
//   * Cancel frames are handled out of band by the event loop: they trip
//     the CancellationToken of the statement the connection is executing.
//   * explicit transactions: Begin/CommitTxn/AbortTxn frames ride the same
//     per-connection FIFO (so they order correctly against statements) and
//     map onto Session::Begin/Commit/Abort. The lifecycle is crash-honest:
//     a disconnect aborts the open transaction, a transaction idle past
//     txn_idle_timeout is aborted server-side (subsequent statements fail
//     with kAborted until the client acknowledges via Begin/AbortTxn), and
//     drain/shutdown aborts — never silently commits — open transactions.
//   * connection reaping: a poll-loop timer closes connections idle past
//     idle_timeout (half-open peers that never RST would otherwise hold a
//     Session forever), counting net.idle_closed.
//   * graceful drain (Shutdown): stop accepting, answer new statements
//     with kUnavailable, give in-flight statements a grace period, then
//     hard-abort the stragglers through governance (Session::Cancel), say
//     Goodbye on every connection and tear down.
//   * all socket I/O flows through the Transport seam (net/transport.h);
//     tests inject a FaultInjectingTransport to drive short reads/writes,
//     delays and mid-frame resets through every path above.
//
// Thread-safety map: sockets are read, polled and closed only by the
// event loop, and written by the loop or by a worker, always under the
// connection's mutex (which also guards the outbound queue and its
// partial-write offset) — so writes never interleave, and a write never
// follows the close, which sets `closed` under that mutex first. Read
// buffers are loop-only; per-connection pending work is mutex-guarded;
// Session objects execute at most one item at a time (enforced by the
// `running` flag) with only the thread-safe Cancel() called concurrently.

#ifndef SEDNA_NET_SERVER_H_
#define SEDNA_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "net/protocol.h"
#include "net/transport.h"

namespace sedna::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; the bound port is Server::port()
  uint32_t worker_threads = 4;
  uint32_t max_connections = 8192;  // beyond: accept + immediately close
  // Statements a connection may pipeline before the server treats it as
  // misbehaving (protocol error, connection dropped).
  size_t max_pipelined_statements = 64;
  // Result-chunk frame payload size; also the granularity of streaming.
  size_t result_chunk_bytes = 32 * 1024;
  // Outbound soft cap per connection: above it the producing statement
  // blocks (flow control) instead of buffering the result server-side.
  size_t write_buffer_soft_cap = 1 << 20;
  // A statement blocked on a client that stops reading for this long is
  // aborted and its connection dropped (worker-starvation guard).
  std::chrono::milliseconds write_stall_timeout{10000};
  // SO_SNDBUF for accepted sockets (0 = kernel default with autotuning).
  // Setting it pins the kernel-side buffer, making back-pressure — and the
  // write-stall guard above — deterministic instead of racing autotune.
  int so_sndbuf = 0;
  // Default grace for Shutdown(): how long in-flight statements may run
  // before the drain hard-aborts them through governance.
  std::chrono::milliseconds drain_grace{2000};
  // An explicit transaction idle (no frame received, nothing queued or
  // running) for this long is aborted server-side; the connection stays
  // up but statements fail with kAborted until the client acknowledges
  // with Begin or AbortTxn. Zero disables.
  std::chrono::milliseconds txn_idle_timeout{30000};
  // A connection idle for this long is closed outright (aborting any open
  // transaction) — reaps half-open peers that never RST. Zero disables.
  std::chrono::milliseconds idle_timeout{0};
  // Socket factory; null = Transport::Default(). Tests inject a
  // FaultInjectingTransport here (accepted sockets only — the listener
  // itself stays raw).
  Transport* transport = nullptr;
};

class Server {
 public:
  /// Binds, listens and spawns the event loop + worker threads. `db` is
  /// not owned and must outlive the server.
  static StatusOr<std::unique_ptr<Server>> Start(Database* db,
                                                 const ServerOptions& options);

  /// Drains and joins everything (with the options' default grace) if
  /// Shutdown was not already called.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port.
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, reject statements arriving from now
  /// on with kUnavailable, let in-flight statements finish for `grace`,
  /// then hard-abort the rest via their cancellation tokens, send Goodbye
  /// everywhere and join all threads. Idempotent; only the first call
  /// drains.
  Status Shutdown(std::chrono::milliseconds grace);
  Status Shutdown() { return Shutdown(options_.drain_grace); }

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Live connections (post-accept, pre-close). For tests and monitoring.
  size_t active_connections() const;

  /// Statements accepted but not yet answered (queued + executing).
  uint64_t inflight_statements() const {
    return inflight_statements_.load(std::memory_order_acquire);
  }

 private:
  struct WorkItem {
    MessageType type = MessageType::kExecute;
    std::string text;   // statement text / option key
    std::string value;  // option value
    bool begin_read_only = false;   // decoded Begin payload
    bool drain_reject = false;  // arrived after the drain began
    std::chrono::steady_clock::time_point enqueued;
    bool is_statement() const {
      return type == MessageType::kExecute || type == MessageType::kExplain;
    }
    bool is_txn_control() const {
      return type == MessageType::kBegin ||
             type == MessageType::kCommitTxn ||
             type == MessageType::kAbortTxn;
    }
    // Items the drain must wait for (or hard-abort) before workers join.
    bool counts_inflight() const { return is_statement() || is_txn_control(); }
  };

  struct Conn {
    // Immutable after accept.
    std::unique_ptr<TransportSocket> sock;
    uint64_t id = 0;
    std::unique_ptr<Session> session;

    // Event-loop-only state.
    bool hello_done = false;
    bool reading_disabled = false;  // after a protocol error
    std::string inbuf;

    // Shared state (guarded by mu).
    std::mutex mu;
    std::condition_variable write_cv;
    std::deque<std::string> out;  // encoded frames awaiting the socket
    size_t out_offset = 0;  // partial-write offset into out.front()
    size_t out_bytes = 0;
    bool close_after_flush = false;
    bool closed = false;  // logically dead; loop reaps it
    bool doomed = false;  // a worker asked the loop to close it
    std::deque<WorkItem> pending;
    bool running = false;    // a worker is executing an item right now
    bool scheduled = false;  // sitting in the ready queue
    // Last inbound byte or completed work item; drives the idle sweeps.
    std::chrono::steady_clock::time_point last_activity;
    // The server aborted this connection's transaction (idle timeout).
    // Statements fail with kAborted until Begin/AbortTxn clears it, so a
    // client that thinks it is still in the transaction can never fall
    // through to silent autocommit.
    bool txn_idle_aborted = false;
  };
  using ConnPtr = std::shared_ptr<Conn>;

  Server(Database* db, const ServerOptions& options)
      : db_(db), options_(options) {}
  Status Init();

  // --- event loop (loop thread only unless noted) ---------------------------
  void EventLoop();
  void AcceptNew();
  void HandleReadable(const ConnPtr& c);
  void HandleFrame(const ConnPtr& c, Frame frame);
  /// Writes queued bytes; closes the connection on a write error or once
  /// a close_after_flush queue drains.
  void FlushWrites(const ConnPtr& c);
  void CloseConn(const ConnPtr& c);
  void ReapDoomed();
  /// Aborts connections' transactions idle past txn_idle_timeout and
  /// closes connections idle past idle_timeout (loop thread).
  void SweepIdle(std::chrono::steady_clock::time_point now);
  /// Loop-thread reply (HelloOk / protocol Error): no flow control.
  void EnqueueFromLoop(const ConnPtr& c, MessageType type,
                       std::string_view payload);
  void ProtocolErrorClose(const ConnPtr& c, const Status& error);
  void ScheduleConn(const ConnPtr& c);

  // --- worker pool ----------------------------------------------------------
  void WorkerMain();
  void ProcessOne(const ConnPtr& c);
  void ExecuteStatement(const ConnPtr& c, const WorkItem& item);
  void ApplyOption(const ConnPtr& c, const WorkItem& item);
  /// Begin/CommitTxn/AbortTxn mapped onto the connection's Session.
  void HandleTxnControl(const ConnPtr& c, const WorkItem& item);
  /// Aborts the open transaction of a connection that died or is being
  /// drained (counted under the matching metric). Caller must hold the
  /// running/closed handoff: the session must be quiescent.
  void AbortAbandonedTxn(const ConnPtr& c);
  /// Flow-controlled enqueue from a worker, which then sends the queued
  /// bytes itself (SendFromWorker); aborts when the connection dies, the
  /// running statement is cancelled or past its deadline, the drain goes
  /// hard, or the client stalls past write_stall_timeout.
  Status BlockingEnqueue(const ConnPtr& c, std::string frames);
  /// Worker side of a send: writes what the socket takes now and hands
  /// the rest (leftover bytes, a failed write, a pending close) to the
  /// loop. Takes `c->mu` held and releases it.
  void SendFromWorker(const ConnPtr& c, std::unique_lock<std::mutex> cl);
  /// Asks the loop to close the connection. Takes `c->mu` held and
  /// releases it.
  void DoomLocked(const ConnPtr& c, std::unique_lock<std::mutex> cl);

  enum class WriteOutcome {
    kDrained,  // the outbound queue is empty
    kBlocked,  // the socket would block; bytes remain
    kFailed,   // a write failed; the connection is dead
  };
  /// Writes queued bytes until the queue drains, the socket would block or
  /// a write fails, and wakes flow-controlled producers. `c.mu` held.
  WriteOutcome WriteQueuedLocked(Conn& c);

  void WakeLoop();

  Database* db_;
  ServerOptions options_;
  Transport* transport_ = nullptr;  // options_.transport or the default
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  // Scheduler: FIFO of connections with runnable work.
  std::mutex sched_mu_;
  std::condition_variable work_cv_;
  std::deque<ConnPtr> ready_;
  bool workers_stop_ = false;

  // Connection table: mutated by the loop, read by Shutdown/monitoring.
  mutable std::mutex conns_mu_;
  std::map<uint64_t, ConnPtr> conns_;
  uint64_t next_conn_id_ = 1;

  // Workers hand connections the loop must close to this list.
  std::mutex doomed_mu_;
  std::vector<ConnPtr> doomed_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> draining_{false};
  std::atomic<bool> draining_hard_{false};
  std::atomic<bool> loop_stop_{false};
  std::atomic<bool> shutdown_started_{false};
  std::atomic<uint64_t> inflight_statements_{0};

  struct NetMetrics;
  const NetMetrics* metrics_ = nullptr;  // cached registry pointers
};

}  // namespace sedna::net

#endif  // SEDNA_NET_SERVER_H_
