// Tests for serialization, framing and the GSI-authenticated RPC layer.
#include <gtest/gtest.h>

#include "common/wire.h"
#include "net/topology.h"
#include "rpc/message.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"

namespace gdmp::rpc {
namespace {

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;

TEST(Serialize, RoundTripPrimitives) {
  wire::Writer w;
  w.u8(7);
  w.u16(1000);
  w.u32(70000);
  w.u64(1ULL << 40);
  w.i64(-12345);
  w.f64(3.25);
  w.boolean(true);
  w.str("hello");
  w.bytes({9, 8, 7});
  const auto buffer = w.take();
  wire::Reader r(buffer);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 1000);
  EXPECT_EQ(r.u32(), 70000u);
  EXPECT_EQ(r.u64(), 1ULL << 40);
  EXPECT_EQ(r.i64(), -12345);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, UnderflowSetsFailureFlag) {
  wire::Writer w;
  w.u16(5);
  const auto buffer = w.take();
  wire::Reader r(buffer);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.str(), "");  // still safe after failure
}

TEST(Framing, EncodeDecodeRoundTrip) {
  RpcMessage message;
  message.kind = MessageKind::kRequest;
  message.request_id = 42;
  message.method = "rc.lookup";
  message.payload = {1, 2, 3, 4};
  const auto frame = encode_frame(message);

  FrameDecoder decoder;
  std::vector<RpcMessage> out;
  ASSERT_TRUE(decoder.feed(frame, [&](RpcMessage m) {
    out.push_back(std::move(m));
  }).is_ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].method, "rc.lookup");
  EXPECT_EQ(out[0].request_id, 42u);
  EXPECT_EQ(out[0].payload, message.payload);
}

TEST(Framing, HandlesFragmentedAndCoalescedInput) {
  RpcMessage a;
  a.method = "one";
  RpcMessage b;
  b.method = "two";
  auto frame_a = encode_frame(a);
  auto frame_b = encode_frame(b);
  std::vector<std::uint8_t> all(frame_a);
  all.insert(all.end(), frame_b.begin(), frame_b.end());

  FrameDecoder decoder;
  std::vector<std::string> methods;
  // Feed one byte at a time across both frames.
  for (const std::uint8_t byte : all) {
    ASSERT_TRUE(decoder
                    .feed(std::span(&byte, 1),
                          [&](RpcMessage m) { methods.push_back(m.method); })
                    .is_ok());
  }
  EXPECT_EQ(methods, (std::vector<std::string>{"one", "two"}));
}

TEST(Framing, OversizedFrameRejected) {
  std::vector<std::uint8_t> bogus(8, 0xff);  // length = 0xffffffff
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.feed(bogus, [](RpcMessage) {}).is_ok());
}

struct RpcFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a;
  std::unique_ptr<net::TcpStack> stack_b;
  security::CertificateAuthority ca{"TestCA"};

  RpcFixture() {
    path = net::make_wan_path(network, "client", "server");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
  }

  security::Certificate cert(const std::string& cn) {
    return ca.issue("/CN=" + cn, kYear);
  }
};

TEST(Rpc, CallRoundTripWithAuthentication) {
  RpcFixture f;
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  server.register_method(
      "echo", [](const security::GsiContext& peer, std::uint64_t,
                 std::span<const std::uint8_t> params,
                 RpcServer::Respond respond) {
        EXPECT_EQ(peer.peer, "/CN=client");
        respond(Status::ok(),
                std::vector<std::uint8_t>(params.begin(), params.end()));
      });
  ASSERT_TRUE(server.start().is_ok());

  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));
  std::vector<std::uint8_t> reply;
  Status status = make_error(ErrorCode::kInternal, "not called");
  client.call("echo", {5, 6, 7}, [&](Status s, std::vector<std::uint8_t> r) {
    status = s;
    reply = std::move(r);
  });
  f.simulator.run_until(30 * kSecond);
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(reply, (std::vector<std::uint8_t>{5, 6, 7}));
  EXPECT_EQ(client.server_subject(), "/CN=server");
  EXPECT_EQ(server.requests_served(), 1);
}

TEST(Rpc, UnknownMethodReturnsNotFound) {
  RpcFixture f;
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));
  Status status = Status::ok();
  client.call("nope", {}, [&](Status s, std::vector<std::uint8_t>) {
    status = s;
  });
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST(Rpc, BadCredentialRejected) {
  RpcFixture f;
  security::CertificateAuthority rogue("RogueCA", 999);
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   rogue.issue("/CN=mallory", kYear));
  Status status = Status::ok();
  client.call("echo", {}, [&](Status s, std::vector<std::uint8_t>) {
    status = s;
  });
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.auth_failures(), 1);
}

TEST(Rpc, PipelinedCallsAllComplete) {
  RpcFixture f;
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  server.register_method(
      "inc", [](const security::GsiContext&, std::uint64_t,
                std::span<const std::uint8_t> params,
                RpcServer::Respond respond) {
        wire::Reader r(params);
        wire::Writer w;
        w.u32(r.u32() + 1);
        respond(Status::ok(), w.take());
      });
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));
  int completed = 0;
  for (std::uint32_t i = 0; i < 20; ++i) {
    wire::Writer w;
    w.u32(i);
    client.call("inc", w.take(),
                [&completed, i](Status s, std::vector<std::uint8_t> reply) {
                  ASSERT_TRUE(s.is_ok());
                  wire::Reader r(reply);
                  EXPECT_EQ(r.u32(), i + 1);
                  ++completed;
                });
  }
  f.simulator.run_until(60 * kSecond);
  EXPECT_EQ(completed, 20);
}

TEST(Rpc, CloseFailsPendingCallsInRequestIdOrder) {
  // Regression: pending_ was an unordered_map, so the order in which
  // fail_all() delivered failure callbacks depended on hash order. It is a
  // std::map now; close() must complete calls in ascending request id.
  RpcFixture f;
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));
  std::vector<int> completed;
  for (int i = 0; i < 32; ++i) {
    client.call("noop", {},
                [&completed, i](Status s, std::vector<std::uint8_t>) {
                  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
                  completed.push_back(i);
                });
  }
  client.close();
  std::vector<int> want(32);
  for (int i = 0; i < 32; ++i) want[i] = i;
  EXPECT_EQ(completed, want);
}

TEST(Rpc, ServerDownYieldsUnavailable) {
  RpcFixture f;
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));
  Status status = Status::ok();
  client.call("x", {}, [&](Status s, std::vector<std::uint8_t>) {
    status = s;
  });
  f.simulator.run_until(120 * kSecond);
  EXPECT_FALSE(status.is_ok());
}

TEST(Rpc, AsyncHandlerRespondsLater) {
  RpcFixture f;
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  server.register_method(
      "slow", [&f](const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t>, RpcServer::Respond respond) {
        f.simulator.schedule(5 * kSecond, [respond = std::move(respond)] {
          respond(Status::ok(), {42});
        });
      });
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));
  SimTime replied_at = 0;
  client.call("slow", {}, [&](Status s, std::vector<std::uint8_t>) {
    ASSERT_TRUE(s.is_ok());
    replied_at = f.simulator.now();
  });
  f.simulator.run_until(60 * kSecond);
  EXPECT_GT(replied_at, 5 * kSecond);
}

TEST(Rpc, CallTimeoutFires) {
  RpcFixture f;
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  server.register_method("never",
                         [](const security::GsiContext&, std::uint64_t,
                            std::span<const std::uint8_t>,
                            RpcServer::Respond) { /* never responds */ });
  ASSERT_TRUE(server.start().is_ok());
  RpcClientConfig config;
  config.call_timeout = 10 * kSecond;
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"), config);
  Status status = Status::ok();
  client.call("never", {}, [&](Status s, std::vector<std::uint8_t>) {
    status = s;
  });
  f.simulator.run_until(60 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kTimedOut);
}

/// A service that binds one method through the guarded registration.
struct CountingService {
  int calls = 0;
  std::shared_ptr<bool> alive = std::make_shared<bool>(true);

  void handle(const security::GsiContext&, std::uint64_t,
              std::span<const std::uint8_t>, RpcServer::Respond respond) {
    ++calls;
    respond(Status::ok(), {});
  }
};

TEST(Rpc, BoundMethodAnswersUnavailableOnceItsOwnerIsGone) {
  RpcFixture f;
  RpcServer server(*f.stack_b, 7000, f.ca, f.cert("server"));
  CountingService service;
  server.register_method("count", service, service.alive,
                         &CountingService::handle);
  ASSERT_TRUE(server.start().is_ok());
  RpcClient client(*f.stack_a, f.path.host_b->id(), 7000, f.ca,
                   f.cert("client"));

  std::vector<Status> replies;
  const auto record = [&](Status s, std::vector<std::uint8_t>) {
    replies.push_back(std::move(s));
  };
  client.call("count", {}, record);
  f.simulator.run_until(f.simulator.now() + 30 * kSecond);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].is_ok());
  EXPECT_EQ(service.calls, 1);

  // The owner's sentinel dies (the object itself stays readable, so a
  // stray dispatch would show up as a second call).
  service.alive.reset();
  client.call("count", {}, record);
  f.simulator.run_until(f.simulator.now() + 30 * kSecond);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].code(), ErrorCode::kUnavailable);
  EXPECT_EQ(service.calls, 1);
}

}  // namespace
}  // namespace gdmp::rpc
