// Shared fixture for the network front-end tests: a real Database in a
// temp directory with a real Server on an ephemeral loopback port, plus a
// raw-socket helper for tests that must speak malformed bytes the NetClient
// refuses to produce.

#ifndef SEDNA_TESTS_NET_NET_TEST_UTIL_H_
#define SEDNA_TESTS_NET_NET_TEST_UTIL_H_

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "db/database.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/common/test_paths.h"

namespace sedna::net {

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = TestTempPath(std::string("net_") + info->test_suite_name() +
                         "_" + info->name());
    db_options_.path = base_ + ".sedna";
    db_options_.wal_path = base_ + ".wal";
    std::remove(db_options_.path.c_str());
    std::remove(db_options_.wal_path.c_str());
    auto db = Database::Create(db_options_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void TearDown() override {
    server_.reset();
    db_.reset();
    // Admission knobs are process-wide; never leak them into other tests.
    Governor::Instance().set_max_concurrent_statements(0);
    Governor::Instance().set_max_queued_statements(0);
  }

  void StartServer(ServerOptions options = {}) {
    auto server = Server::Start(db_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::unique_ptr<NetClient> MustConnect() {
    auto client = NetClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::string MustExec(NetClient* client, const std::string& stmt) {
    auto r = client->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << "\n  -> " << r.status().ToString();
    return r.ok() ? r->serialized : std::string();
  }

  size_t PinnedFrames() {
    return db_->storage()->buffers()->PinnedFrameCount();
  }

  std::string base_;
  DatabaseOptions db_options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

/// Raw TCP connection that sends arbitrary bytes — the adversarial client.
class RawConn {
 public:
  /// `rcvbuf` > 0 clamps SO_RCVBUF before connect (shrinking the TCP
  /// window a non-reading peer advertises, so back-pressure tests stall
  /// on kilobytes instead of the kernel's autotuned megabytes).
  static RawConn Open(uint16_t port, int rcvbuf = 0) {
    RawConn c;
    c.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf > 0) {
      ::setsockopt(c.fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(c.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(c.fd_);
      c.fd_ = -1;
    }
    return c;
  }

  RawConn() = default;
  RawConn(RawConn&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  RawConn& operator=(RawConn&& o) noexcept {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
    return *this;
  }
  ~RawConn() { Close(); }

  bool ok() const { return fd_ >= 0; }

  /// Sends every byte (the server may close mid-send; that's fine here).
  void Send(std::string_view bytes) {
    size_t off = 0;
    while (fd_ >= 0 && off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
  }

  /// Reads until EOF or the timeout; returns the bytes received.
  std::string ReadUntilClosed(std::chrono::milliseconds timeout =
                                  std::chrono::milliseconds(2000)) {
    std::string got;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (fd_ >= 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      pollfd pfd{fd_, POLLIN, 0};
      int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (rc <= 0) continue;
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;  // EOF / reset: the server dropped us
      got.append(buf, static_cast<size_t>(n));
    }
    return got;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

/// Spin-waits (bounded) for a predicate — for counters the server updates
/// asynchronously after a socket event.
template <typename Pred>
bool WaitFor(Pred pred,
             std::chrono::milliseconds timeout = std::chrono::milliseconds(
                 5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

}  // namespace sedna::net

#endif  // SEDNA_TESTS_NET_NET_TEST_UTIL_H_
