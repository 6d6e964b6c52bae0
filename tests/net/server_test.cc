#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "net/client.h"
#include "tests/net/net_test_util.h"

namespace sedna::net {
namespace {

using namespace std::chrono_literals;

using ServerTest = ServerFixture;

TEST_F(ServerTest, HandshakeExecuteRoundTrip) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_GT(client->session_id(), 0u);
  EXPECT_FALSE(client->banner().empty());

  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  auto r = client->Execute("UPDATE insert <r><v>7</v></r> into doc('d')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, StatementKind::kUpdateInsert);
  EXPECT_EQ(MustExec(client.get(), "doc('d')/r/v/text()"), "7");
  EXPECT_TRUE(client->CloseGracefully().ok());
}

TEST_F(ServerTest, LargeResultStreamsInChunks) {
  ServerOptions options;
  options.result_chunk_bytes = 512;  // force many chunks
  StartServer(options);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  MustExec(client.get(), "CREATE DOCUMENT 'big'");
  std::string tree = "<r>";
  for (int i = 0; i < 400; ++i) {
    tree += "<item><v>" + std::to_string(i) + "</v></item>";
  }
  tree += "</r>";
  MustExec(client.get(), "UPDATE insert " + tree + " into doc('big')");

  auto r = client->Execute("doc('big')/r/item/v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->chunks, 3u) << "result should arrive in multiple frames";

  // The wire bytes must equal the embedded result, byte for byte.
  auto embedded = db_->Connect();
  auto e = embedded->Execute("doc('big')/r/item/v");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(r->serialized, e->serialized);
  EXPECT_EQ(PinnedFrames(), 0u);
}

TEST_F(ServerTest, ExplainRunsInProfileMode) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  MustExec(client.get(), "UPDATE insert <r><v>1</v></r> into doc('d')");
  auto r = client->Explain("doc('d')/r/v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->serialized.find("governed pulls"), std::string::npos)
      << r->serialized;
}

TEST_F(ServerTest, QueryErrorsComeBackWithTheirStatusCode) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  auto r = client->Execute("doc('missing')/r");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
      << r.status().ToString();
  // The session survives its statement's error.
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
}

TEST_F(ServerTest, SetOptionTimeoutIsEnforcedServerSide) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  std::string tree = "<r>";
  for (int i = 0; i < 300; ++i) {
    tree += "<item><v>" + std::to_string((i * 37) % 100) + "</v></item>";
  }
  tree += "</r>";
  MustExec(client.get(), "UPDATE insert " + tree + " into doc('d')");

  ASSERT_TRUE(client->SetOption("check_interval", "1").ok());
  ASSERT_TRUE(client->SetOption("timeout_ms", "1").ok());
  // A cross join heavy enough that 1 ms cannot finish it.
  auto r = client->Execute(
      "for $a in doc('d')/r/item, $b in doc('d')/r/item "
      "where $a/v/text() = $b/v/text() return $a/v/text()");
  if (r.ok()) {
    GTEST_SKIP() << "machine fast enough to beat a 1 ms deadline";
  }
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();

  // Clearing the timeout restores service.
  ASSERT_TRUE(client->SetOption("timeout_ms", "0").ok());
  MustExec(client.get(), "doc('d')/r/item[1]/v/text()");
  EXPECT_EQ(PinnedFrames(), 0u);
}

TEST_F(ServerTest, SetOptionRejectsUnknownKeyAndBadValue) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->SetOption("no_such_knob", "1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->SetOption("timeout_ms", "fast").code(),
            StatusCode::kInvalidArgument);
  // The connection is still healthy after option errors.
  EXPECT_TRUE(client->SetOption("timeout_ms", "0").ok());
}

TEST_F(ServerTest, OutOfBandCancelAbortsARunningStatement) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  std::string tree = "<r>";
  for (int i = 0; i < 200; ++i) {
    tree += "<item><v>" + std::to_string(i % 50) + "</v></item>";
  }
  tree += "</r>";
  MustExec(client.get(), "UPDATE insert " + tree + " into doc('d')");
  ASSERT_TRUE(client->SetOption("check_interval", "1").ok());

  std::atomic<bool> done{false};
  std::thread canceller([&] {
    // Fire cancels until the statement reports kCancelled; the first few
    // may land between statements and hit nothing.
    while (!done.load()) {
      ASSERT_TRUE(client->Cancel().ok());
      std::this_thread::sleep_for(1ms);
    }
  });
  StatusCode code = StatusCode::kOk;
  for (int attempt = 0; attempt < 50 && code != StatusCode::kCancelled;
       ++attempt) {
    auto r = client->Execute(
        "for $a in doc('d')/r/item, $b in doc('d')/r/item "
        "where $a/v/text() = $b/v/text() return count($b)");
    if (!r.ok()) code = r.status().code();
  }
  done.store(true);
  canceller.join();
  EXPECT_EQ(code, StatusCode::kCancelled);

  // The session shrugs the cancel off and keeps serving.
  MustExec(client.get(), "doc('d')/r/item[1]/v/text()");
  EXPECT_EQ(PinnedFrames(), 0u);
  EXPECT_EQ(Governor::Instance().active_statements(), 0u);
}

TEST_F(ServerTest, CancelAtTickHookKillsDeterministically) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  MustExec(client.get(),
           "UPDATE insert <r><a><v>1</v></a><a><v>2</v></a>"
           "<a><v>3</v></a></r> into doc('d')");
  ASSERT_TRUE(client->SetOption("check_interval", "1").ok());
  ASSERT_TRUE(client->SetOption("cancel_at_tick", "2").ok());
  auto r = client->Execute("for $x in doc('d')/r/a return $x/v/text()");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(client->SetOption("cancel_at_tick", "0").ok());
  EXPECT_EQ(MustExec(client.get(), "count(doc('d')/r/a)"), "3");
}

TEST_F(ServerTest, ManyConcurrentClientsOnATinyWorkerPool) {
  ServerOptions options;
  options.worker_threads = 2;
  StartServer(options);
  {
    auto seed = MustConnect();
    ASSERT_NE(seed, nullptr);
    MustExec(seed.get(), "CREATE DOCUMENT 'd'");
    MustExec(seed.get(), "UPDATE insert <r><v>9</v></r> into doc('d')");
  }

  constexpr int kClients = 16;
  constexpr int kStatementsEach = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = NetClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kStatementsEach; ++i) {
        auto r = (*client)->Execute("doc('d')/r/v/text()");
        if (!r.ok() || r->serialized != "9") ++failures;
      }
      (*client)->CloseGracefully();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(PinnedFrames(), 0u);
  EXPECT_EQ(Governor::Instance().active_statements(), 0u);
}

TEST_F(ServerTest, PipeliningPastTheCapIsAProtocolError) {
  ServerOptions options;
  options.max_pipelined_statements = 4;
  StartServer(options);

  RawConn raw = RawConn::Open(server_->port());
  ASSERT_TRUE(raw.ok());
  std::string wire;
  AppendFrame(&wire, MessageType::kHello, EncodeHello());
  // A WAL-committing statement up front pins the connection's one-at-a-time
  // executor while the burst lands, so the queue cannot drain under us.
  AppendFrame(&wire, MessageType::kExecute, "CREATE DOCUMENT 'pipelined'");
  for (int i = 0; i < 64; ++i) {
    AppendFrame(&wire, MessageType::kExecute, "doc('missing')/r");
  }
  raw.Send(wire);
  std::string reply = raw.ReadUntilClosed();
  // The server answered Hello, then dropped us with an Error frame.
  EXPECT_FALSE(reply.empty());
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return server_->inflight_statements() == 0; }));
  EXPECT_EQ(PinnedFrames(), 0u);
}

TEST_F(ServerTest, RefusesConnectionsOverTheCap) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options);
  auto c1 = MustConnect();
  auto c2 = MustConnect();
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  // The third connect lands, but the server closes it before HelloOk.
  auto c3 = NetClient::Connect("127.0.0.1", server_->port(),
                               std::chrono::milliseconds(2000));
  EXPECT_FALSE(c3.ok());
}

TEST_F(ServerTest, GracefulShutdownSaysGoodbyeToIdleClients) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  ASSERT_TRUE(server_->Shutdown(500ms).ok());
  EXPECT_EQ(server_->active_connections(), 0u);
  EXPECT_EQ(server_->inflight_statements(), 0u);
  // A second Shutdown is a failed precondition, not a hang.
  EXPECT_EQ(server_->Shutdown(0ms).code(), StatusCode::kFailedPrecondition);
  // The statement's effect survives in the database.
  auto embedded = db_->Connect();
  EXPECT_TRUE(embedded->Execute("doc('d')").ok());
}

TEST_F(ServerTest, DrainRejectsNewStatementsWithUnavailable) {
  ServerOptions options;
  options.worker_threads = 1;
  StartServer(options);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  std::string tree = "<r>";
  for (int i = 0; i < 200; ++i) {
    tree += "<item><v>" + std::to_string(i % 40) + "</v></item>";
  }
  tree += "</r>";
  MustExec(client.get(), "UPDATE insert " + tree + " into doc('d')");
  ASSERT_TRUE(client->SetOption("check_interval", "1").ok());

  // Park a slow statement on the single worker, start the drain, and only
  // then send a statement on a second (pre-drain) connection: it must be
  // parsed during the drain, tagged, and answered kUnavailable in order —
  // after the hard-aborted slow statement frees the worker.
  auto late_client = MustConnect();
  ASSERT_NE(late_client, nullptr);
  std::thread slow([&] {
    auto r = client->Execute(
        "for $a in doc('d')/r/item, $b in doc('d')/r/item, "
        "$c in doc('d')/r/item "
        "where $a/v/text() = $b/v/text() and $b/v/text() = $c/v/text() "
        "return count($c)");
    EXPECT_FALSE(r.ok());
  });
  ASSERT_TRUE(WaitFor([&] { return server_->inflight_statements() > 0; }));
  std::thread shutdown_thread(
      [&] { EXPECT_TRUE(server_->Shutdown(200ms).ok()); });
  ASSERT_TRUE(WaitFor([&] { return server_->draining(); }));

  auto late = late_client->Execute("doc('d')/r/item[1]/v/text()");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable)
      << late.status().ToString();

  slow.join();
  shutdown_thread.join();
  EXPECT_EQ(PinnedFrames(), 0u);
  EXPECT_EQ(Governor::Instance().active_statements(), 0u);

  // And new connections are refused outright.
  auto refused = NetClient::Connect("127.0.0.1", server_->port(),
                                    std::chrono::milliseconds(500));
  EXPECT_FALSE(refused.ok());
}

TEST_F(ServerTest, AdmissionQueueSmoothsABurstOverTheWire) {
  Governor::Instance().set_max_concurrent_statements(1);
  Governor::Instance().set_max_queued_statements(32);
  ServerOptions options;
  options.worker_threads = 4;
  StartServer(options);
  {
    auto seed = MustConnect();
    ASSERT_NE(seed, nullptr);
    MustExec(seed.get(), "CREATE DOCUMENT 'd'");
    MustExec(seed.get(), "UPDATE insert <r><v>3</v></r> into doc('d')");
  }

  // With a queue, a burst wider than the cap completes without rejections.
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = NetClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 5; ++i) {
        auto r = (*client)->Execute("doc('d')/r/v/text()");
        if (!r.ok() || r->serialized != "3") ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(Governor::Instance().active_statements(), 0u);
  EXPECT_EQ(Governor::Instance().queued_statements(), 0u);
}

TEST_F(ServerTest, WriteStallTimeoutDoomsANonReadingClient) {
  ServerOptions options;
  options.result_chunk_bytes = 512;
  options.write_buffer_soft_cap = 2048;
  options.write_stall_timeout = 300ms;
  options.so_sndbuf = 4096;  // pin the kernel buffer: no autotune escape
  StartServer(options);

  // A result far larger than the soft cap plus the (pinned) kernel
  // buffers, so the producing statement must block on flow control.
  auto seeder = db_->Connect();
  ASSERT_TRUE(seeder->Execute("CREATE DOCUMENT 'big'").ok());
  std::string tree = "<r>";
  for (int i = 0; i < 30000; ++i) {
    tree += "<item><v>" + std::to_string(i) + "</v></item>";
  }
  tree += "</r>";
  ASSERT_TRUE(
      seeder->Execute("UPDATE insert " + tree + " into doc('big')").ok());

  RawConn raw = RawConn::Open(server_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(raw.ok());
  std::string wire;
  AppendFrame(&wire, MessageType::kHello, EncodeHello());
  AppendFrame(&wire, MessageType::kExecute, "doc('big')/r/item");
  raw.Send(wire);

  // Never read a byte. The statement fills the cap, stalls past the
  // timeout, and the server dooms it: statement aborted, connection
  // dropped, worker freed — no permanently wedged worker thread.
  EXPECT_TRUE(
      WaitFor([&] { return server_->active_connections() == 0; }, 15000ms));
  EXPECT_TRUE(WaitFor([&] { return server_->inflight_statements() == 0; }));
  EXPECT_EQ(PinnedFrames(), 0u);

  // The freed worker serves the next client normally.
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(MustExec(client.get(), "count(doc('big')/r/item)"), "30000");
}

TEST_F(ServerTest, DeadlineCutsAStatementBlockedOnFlowControl) {
  ServerOptions options;
  options.result_chunk_bytes = 512;
  options.write_buffer_soft_cap = 2048;
  options.write_stall_timeout = 4000ms;
  options.so_sndbuf = 4096;  // pin the kernel buffer: no autotune escape
  StartServer(options);

  auto seeder = db_->Connect();
  ASSERT_TRUE(seeder->Execute("CREATE DOCUMENT 'big'").ok());
  std::string tree = "<r>";
  for (int i = 0; i < 30000; ++i) {
    tree += "<item><v>" + std::to_string(i) + "</v></item>";
  }
  tree += "</r>";
  ASSERT_TRUE(
      seeder->Execute("UPDATE insert " + tree + " into doc('big')").ok());

  RawConn raw = RawConn::Open(server_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(raw.ok());
  std::string wire;
  AppendFrame(&wire, MessageType::kHello, EncodeHello());
  AppendFrame(&wire, MessageType::kSetOption,
              EncodeSetOption("timeout_ms", "200"));
  AppendFrame(&wire, MessageType::kExecute, "doc('big')/r/item");
  raw.Send(wire);

  // Never read while the statement runs. It fills the soft cap and blocks
  // on flow control; its 200 ms deadline, not the 4 s stall guard, ends it.
  ASSERT_TRUE(
      WaitFor([&] { return server_->inflight_statements() == 1; }));
  EXPECT_TRUE(WaitFor([&] { return server_->inflight_statements() == 0; },
                      1500ms));
  // The connection survives: the statement failed, the client did not.
  EXPECT_EQ(server_->active_connections(), 1u);

  // Once read, the reply is a (truncated) result stream that ends in the
  // statement's own deadline error.
  std::string got = raw.ReadUntilClosed(1000ms);
  std::vector<Frame> frames;
  for (std::string_view rest = got;;) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    if (DecodeFrame(rest, &frame, &consumed, &error) != DecodeResult::kFrame) {
      break;
    }
    frames.push_back(std::move(frame));
    rest.remove_prefix(consumed);
  }
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, MessageType::kHelloOk);
  EXPECT_EQ(frames[1].type, MessageType::kOptionOk);
  EXPECT_EQ(frames[2].type, MessageType::kResultChunk);
  ASSERT_EQ(frames.back().type, MessageType::kError);
  EXPECT_EQ(DecodeError(frames.back().payload).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(PinnedFrames(), 0u);
}

TEST_F(ServerTest, ExactPayloadCapIsAcceptedCleanly) {
  StartServer();
  auto seeder = db_->Connect();
  ASSERT_TRUE(seeder->Execute("CREATE DOCUMENT 'cap'").ok());
  ASSERT_TRUE(
      seeder->Execute("UPDATE insert <r><v>5</v></r> into doc('cap')").ok());

  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  // A statement padded to exactly kMaxPayloadBytes: the largest legal
  // frame must go through the normal path, not the oversize rejection.
  std::string stmt = "doc('cap')/r/v/text()";
  stmt.resize(kMaxPayloadBytes, ' ');
  auto r = client->Execute(stmt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->serialized, "5");
  EXPECT_TRUE(client->CloseGracefully().ok());
}

TEST_F(ServerTest, PayloadCapPlusOneGetsOneErrorFrameThenClose) {
  StartServer();
  RawConn raw = RawConn::Open(server_->port());
  ASSERT_TRUE(raw.ok());
  std::string wire;
  AppendFrame(&wire, MessageType::kHello, EncodeHello());
  // A header claiming cap+1 bytes; the server must reject on the header
  // alone instead of waiting for a payload that will never arrive.
  PutFixed32(&wire, kMaxPayloadBytes + 1);
  wire.push_back(static_cast<char>(MessageType::kExecute));
  raw.Send(wire);

  std::string reply = raw.ReadUntilClosed();
  std::string_view rest = reply;
  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(DecodeFrame(rest, &frame, &consumed, &error), DecodeResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kHelloOk);
  rest.remove_prefix(consumed);
  ASSERT_EQ(DecodeFrame(rest, &frame, &consumed, &error), DecodeResult::kFrame);
  EXPECT_EQ(frame.type, MessageType::kError);
  EXPECT_EQ(DecodeError(frame.payload).code(), StatusCode::kProtocolError);
  rest.remove_prefix(consumed);
  EXPECT_TRUE(rest.empty()) << "exactly one Error frame, then the close";
  EXPECT_TRUE(WaitFor([&] { return server_->active_connections() == 0; }));
}

TEST_F(ServerTest, FailedStartDestructsCleanly) {
  // Init fails before any thread is spawned; destroying the half-built
  // server must not join the never-started loop thread (std::terminate).
  ServerOptions bad_addr;
  bad_addr.host = "not-an-address";
  auto server = Server::Start(db_.get(), bad_addr);
  EXPECT_FALSE(server.ok());

  // Bind conflict: fails after the listener socket exists.
  StartServer();
  ServerOptions clash;
  clash.port = server_->port();
  auto second = Server::Start(db_.get(), clash);
  EXPECT_FALSE(second.ok());
}

TEST_F(ServerTest, ServerDestructorDrainsWithoutExplicitShutdown) {
  StartServer();
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  MustExec(client.get(), "CREATE DOCUMENT 'd'");
  server_.reset();  // destructor path
  auto embedded = db_->Connect();
  EXPECT_TRUE(embedded->Execute("doc('d')").ok());
}

}  // namespace
}  // namespace sedna::net
