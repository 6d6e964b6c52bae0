// Resilient blocking client for the wire protocol in net/protocol.h. One
// socket, one outstanding request at a time (no pipelining) — the shape
// embedded users already know: Execute returns when the final
// ResultDone/Error arrives, with the streamed chunks reassembled.
//
// Failure model. Every transport-level failure (connect refused, send or
// recv error, read timeout, EOF mid-frame, malformed frame) POISONS the
// connection: the socket is dropped on the spot and the reply stream can
// never desynchronize — the next request repairs the connection (fresh
// socket, Hello handshake, replay of the session options this client set)
// instead of reading some earlier request's leftover bytes. A clean Error
// frame from the server never poisons; it is a well-framed reply.
//
// Retries. With max_retries > 0 the client automatically re-sends
// IDEMPOTENT requests after a transport failure, reconnecting first with
// exponential backoff + jitter: Explain, SetOption, BeginTxn (an unacked
// Begin's transaction died with the connection) and ExecuteRead — the
// caller's declaration that the statement is read-only. Execute is never
// auto-retried (it may have committed), nothing is retried while a
// transaction is open (the disconnect aborted it server-side; re-running a
// fragment silently would split the transaction), and a CommitTxn whose
// acknowledgement was lost reports "outcome unknown" rather than guessing.
//
// Thread-safety: a NetClient is single-threaded EXCEPT Cancel() and
// Abort(), which may be called from any thread while another thread is
// blocked inside Execute/Explain.

#ifndef SEDNA_NET_CLIENT_H_
#define SEDNA_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/transport.h"

namespace sedna::net {

struct ClientOptions {
  // Bounds the TCP connect + Hello handshake of each (re)connect.
  std::chrono::milliseconds connect_timeout{5000};
  // Bounds every socket read inside a request (raise it for deliberately
  // slow statements). A timeout poisons the connection.
  std::chrono::milliseconds read_timeout{30000};
  // Automatic retries of idempotent requests after a transport failure
  // (0 = fail fast, never re-send). Each retry reconnects first.
  uint32_t max_retries = 0;
  // Reconnect backoff: base * 2^attempt, capped, then jittered into
  // [0.5, 1.0) of the computed delay.
  std::chrono::milliseconds backoff_base{50};
  std::chrono::milliseconds backoff_cap{2000};
  uint64_t backoff_seed = 1;  // deterministic jitter for tests
  // Socket factory; null = Transport::Default(). Tests inject a
  // FaultInjectingTransport here.
  Transport* transport = nullptr;
};

/// Counters for observing the resilience machinery (tests assert these).
struct ClientStats {
  uint64_t reconnects = 0;   // successful repair handshakes after the first
  uint64_t retries = 0;      // requests re-sent after a transport failure
  uint64_t backoff_ms = 0;   // total milliseconds slept in backoff
  uint64_t poisonings = 0;   // transport failures that dropped the socket
};

struct ClientResult {
  StatementKind kind = StatementKind::kQuery;
  std::string serialized;          // reassembled ResultChunk payloads
  uint64_t affected = 0;           // update/DDL counts
  uint64_t peak_memory_bytes = 0;  // server-side budget high-water mark
  size_t chunks = 0;               // ResultChunk frames received
};

class NetClient {
 public:
  /// Connects and completes the Hello handshake.
  static StatusOr<std::unique_ptr<NetClient>> Connect(
      const std::string& host, uint16_t port, const ClientOptions& options);
  /// Legacy shape: `timeout` bounds the connect + handshake; no retries.
  static StatusOr<std::unique_ptr<NetClient>> Connect(
      const std::string& host, uint16_t port,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));

  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  uint64_t session_id() const { return session_id_; }
  const std::string& banner() const { return banner_; }

  /// Executes one statement, reassembling the chunked reply. Never
  /// auto-retried: the statement may write.
  StatusOr<ClientResult> Execute(const std::string& statement);
  /// Execute for a statement the CALLER declares read-only/idempotent;
  /// auto-retried after transport failures when no transaction is open.
  StatusOr<ClientResult> ExecuteRead(const std::string& statement);
  /// Like Execute but the server runs the statement in profile mode; the
  /// serialized result is the profile text. Idempotent, auto-retried.
  StatusOr<ClientResult> Explain(const std::string& statement);

  /// Sets a session option on the server (timeout_ms, memory_budget,
  /// check_interval, parallel_workers, batch_size, cancel_at_tick).
  /// Idempotent, auto-retried; accepted values are cached and replayed
  /// onto the fresh session after every reconnect.
  Status SetOption(const std::string& key, const std::string& value);

  /// Opens an explicit transaction (auto-retried: an unacknowledged
  /// Begin's transaction was aborted when its connection died).
  Status BeginTxn(bool read_only = false);
  /// Commits the open transaction. NEVER auto-retried — if the connection
  /// fails before the acknowledgement the outcome is unknown and the
  /// returned status says so; reconnect and query to find out.
  Status CommitTxn();
  /// Aborts the open transaction. Not retried: a transport failure already
  /// aborted it server-side (abort-on-disconnect).
  Status AbortTxn();
  /// This client's view of the transaction state (kept in sync with the
  /// TxnOk `in_txn` flag and cleared on every poisoning/reconnect).
  bool in_txn() const { return in_txn_; }

  /// Out of band, thread-safe: asks the server to cancel the statement this
  /// session is executing right now. The blocked Execute then returns the
  /// server's kCancelled error. Best-effort; never poisons.
  Status Cancel();

  /// Orderly shutdown: sends Close, waits for Goodbye, closes the socket.
  Status CloseGracefully();

  /// Drops the connection on the floor (what a crashing client does).
  /// Thread-safe; an in-flight request fails with a transport error.
  void Abort();

  /// Manual repair: fresh socket, handshake, option replay. Clears the
  /// poisoned state. (Requests do this themselves; exposed for tests and
  /// callers that want to pay the reconnect cost eagerly.)
  Status Reconnect();

  bool connected() const;
  /// True after a transport failure until the next successful reconnect.
  bool poisoned() const { return poisoned_; }
  const ClientStats& stats() const { return stats_; }

 private:
  NetClient() = default;

  /// Drops the socket and marks the connection unusable (transport-level
  /// failure). The open transaction, if any, died with the connection.
  void Poison();
  void DropSocket();
  /// Reconnects unless a healthy socket is already up.
  Status EnsureConnected();
  Status Handshake();
  std::chrono::milliseconds BackoffDelay(uint32_t attempt);
  void SleepBackoff(uint32_t attempt);

  /// Writes one frame, retrying short writes and injected EAGAIN. On
  /// `poison` (the default), a hard failure poisons the connection —
  /// Cancel passes false so a cross-thread cancel never mutates state.
  Status SendFrame(MessageType type, std::string_view payload,
                   bool poison = true);
  /// Blocks until one whole frame arrives or `timeout` elapses. Timeout,
  /// EOF and decode failures poison.
  Status ReadFrame(Frame* out, std::chrono::milliseconds timeout);

  /// One send + reply cycle on the current socket (no retry logic).
  StatusOr<ClientResult> DoStatement(MessageType type,
                                     const std::string& statement);
  Status DoSetOption(const std::string& key, const std::string& value);
  /// Shared retry loop for Execute/ExecuteRead/Explain.
  StatusOr<ClientResult> RunStatement(MessageType type,
                                      const std::string& statement,
                                      bool idempotent);
  Status TxnControl(MessageType type, std::string_view payload);

  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  Transport* transport_ = nullptr;

  // The socket is shared-ptr'd so a cross-thread Abort/Cancel can hold it
  // while the main thread swaps it; the pointer itself is guarded by
  // write_mu_, the bytes by the one-request-at-a-time discipline.
  std::shared_ptr<TransportSocket> sock_;
  uint64_t session_id_ = 0;
  std::string banner_;
  std::string inbuf_;
  bool poisoned_ = false;
  bool in_txn_ = false;
  std::map<std::string, std::string> option_cache_;  // replayed on reconnect
  ClientStats stats_;
  Random backoff_rng_{1};
  std::mutex write_mu_;  // serializes SendFrame vs cross-thread Cancel/Abort
};

}  // namespace sedna::net

#endif  // SEDNA_NET_CLIENT_H_
