// Destruction-mid-flight tests: every completion callback parked inside a
// subsystem must fire exactly once — on success, on error, on cancel, and
// when the owner is torn down with the work still pending. These pin the
// fail-all drains that gdmp_lint --obligations demands (and several bugs
// the pass found: dropped completions in FtpClient teardown, RpcClient's
// destructor never draining pending_, DataMover dropping its queue).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog_rig.h"
#include "counting_callback.h"
#include "flow/flow_engine.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/topology.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"
#include "storage/disk_pool.h"
#include "storage/hrm.h"
#include "storage/mss.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp {
namespace {

using testing::CountingCallback;

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;

// ---------------------------------------------------------------- storage

struct StorageRig {
  sim::Simulator simulator;
  storage::Disk disk{simulator, {}};
  storage::DiskPool pool{100 * kGiB, disk};
  std::optional<storage::MassStorageSystem> mss;

  StorageRig() { mss.emplace(simulator, storage::MssConfig{}); }

  storage::FileInfo file(const std::string& path, Bytes size) {
    return storage::FileInfo{path, size, 0x5eed, simulator.now(), false};
  }

  void archive_now(const std::string& path, Bytes size) {
    CountingCallback archived;
    mss->archive(file(path, size), archived.wrap<Status>());
    simulator.run_until(simulator.now() + 3600 * kSecond);
    ASSERT_TRUE(archived.exactly_once());
    ASSERT_TRUE(archived.last_status().is_ok());
  }
};

TEST(Teardown, HrmBackendFailsParkedStageAndArchiveOnce) {
  StorageRig rig;
  rig.archive_now("/pool/a", 4 * kMiB);
  CountingCallback stage, archive;
  {
    storage::StorageBackend hrm(rig.simulator, *rig.mss, storage::kHrmPlugin);
    hrm.stage_to_disk("/pool/a", rig.pool,
                      stage.wrap<Result<storage::FileInfo>>());
    hrm.archive_file(rig.file("/pool/b", 1 * kMiB), archive.wrap<Status>());
    // Both jobs are parked behind the RPC-overhead timer; the backend dies
    // before it fires.
  }
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_EQ(stage.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(archive.exactly_once());
  EXPECT_EQ(archive.last_code(), ErrorCode::kUnavailable);
  // The armed timers must have been silenced: nothing fires twice later.
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_TRUE(archive.exactly_once());
}

TEST(Teardown, ScriptStagerFailsParkedStageAndArchiveOnce) {
  StorageRig rig;
  rig.archive_now("/pool/a", 4 * kMiB);
  CountingCallback stage, archive;
  {
    storage::StorageBackend stager(rig.simulator, *rig.mss,
                                   storage::kScriptStagerPlugin);
    stager.stage_to_disk("/pool/a", rig.pool,
                         stage.wrap<Result<storage::FileInfo>>());
    stager.archive_file(rig.file("/pool/b", 1 * kMiB),
                        archive.wrap<Status>());
  }
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_EQ(stage.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(archive.exactly_once());
  EXPECT_EQ(archive.last_code(), ErrorCode::kUnavailable);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_TRUE(archive.exactly_once());
}

TEST(Teardown, HrmBackendSuccessAndErrorPathsFireOnce) {
  StorageRig rig;
  rig.archive_now("/pool/a", 4 * kMiB);
  storage::StorageBackend hrm(rig.simulator, *rig.mss, storage::kHrmPlugin);
  CountingCallback hit, miss;
  hrm.stage_to_disk("/pool/a", rig.pool,
                    hit.wrap<Result<storage::FileInfo>>());
  hrm.stage_to_disk("/pool/never-archived", rig.pool,
                    miss.wrap<Result<storage::FileInfo>>());
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(hit.exactly_once());
  EXPECT_TRUE(hit.last_status().is_ok());
  EXPECT_TRUE(rig.pool.contains("/pool/a"));
  EXPECT_TRUE(miss.exactly_once());
  EXPECT_EQ(miss.last_code(), ErrorCode::kNotFound);
}

TEST(Teardown, MssDestroyedMidMountFailsStageAndArchiveOnce) {
  StorageRig rig;
  rig.archive_now("/pool/a", 64 * kMiB);
  CountingCallback stage, archive;
  rig.mss->stage("/pool/a", rig.pool,
                 stage.wrap<Result<storage::FileInfo>>());
  rig.mss->archive(rig.file("/pool/b", 64 * kMiB), archive.wrap<Status>());
  // Let the mounts begin but not finish (mount latency alone is 30s).
  rig.simulator.run_until(rig.simulator.now() + 1 * kSecond);
  EXPECT_EQ(stage.count(), 0);
  rig.mss.reset();
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_EQ(stage.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(archive.exactly_once());
  EXPECT_EQ(archive.last_code(), ErrorCode::kUnavailable);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(stage.exactly_once());
  EXPECT_TRUE(archive.exactly_once());
}

TEST(Teardown, MssStageErrorFiresOnce) {
  StorageRig rig;
  CountingCallback miss;
  rig.mss->stage("/pool/never-archived", rig.pool,
                 miss.wrap<Result<storage::FileInfo>>());
  EXPECT_TRUE(miss.exactly_once());
  EXPECT_EQ(miss.last_code(), ErrorCode::kNotFound);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  rig.mss.reset();
  EXPECT_TRUE(miss.exactly_once());
}

// ---------------------------------------------------------------- network

TEST(Teardown, NetworkDestroyedWithPacketsQueuedAndInFlight) {
  sim::Simulator simulator;
  bool unrelated_fired = false;
  simulator.schedule_at(kSecond, [&] { unrelated_fired = true; });
  const std::size_t pending_before = simulator.pending();

  int delivered = 0;
  auto network = std::make_unique<net::Network>(simulator);
  const net::WanPath path = net::make_wan_path(*network, "a", "b");
  for (net::Node* host : {path.host_a, path.host_b}) {
    host->set_protocol_handler(net::Protocol::kDatagram,
                               [&delivered](const net::Packet&) {
                                 ++delivered;
                               });
  }
  // Each directed link of the dumbbell: three toward b, then three back.
  const std::pair<net::Node*, net::Node*> hops[] = {
      {path.host_a, path.router_a},   {path.router_a, path.router_b},
      {path.router_b, path.host_b},   {path.host_b, path.router_b},
      {path.router_b, path.router_a}, {path.router_a, path.host_a}};
  std::vector<net::Link*> links;
  for (const auto& [from, to] : hops) {
    net::Link* link = network->link_between(*from, *to);
    ASSERT_NE(link, nullptr);
    links.push_back(link);
    const bool toward_b = links.size() <= 3;
    net::Packet packet;
    packet.protocol = net::Protocol::kDatagram;
    packet.src = (toward_b ? path.host_a : path.host_b)->id();
    packet.dst = (toward_b ? path.host_b : path.host_a)->id();
    packet.payload_len = 1460;
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(link->enqueue(packet));
  }
  // 300 us in: a LAN link (12 us per packet, 50 us away) has delivered some
  // packets, has some in flight and still queues the rest; a WAN link
  // (267 us per packet, 62.5 ms away) has one in flight and queues 63.
  simulator.run_until(300 * kMicrosecond);
  for (net::Link* link : links) {
    const net::LinkStats& stats = link->stats();
    const Bytes undelivered =
        (stats.packets_sent - stats.packets_delivered) * 1500;
    EXPECT_GT(link->backlog(), 0);            // queued
    EXPECT_GT(undelivered, link->backlog());  // in flight
  }
  // One kernel event per link: the delivery of its head packet.
  EXPECT_EQ(simulator.pending(), pending_before + links.size());
  const int delivered_before = delivered;

  network.reset();
  EXPECT_EQ(simulator.pending(), pending_before);
  EXPECT_EQ(simulator.run(), pending_before);
  EXPECT_TRUE(unrelated_fired);
  EXPECT_EQ(delivered, delivered_before);
}

// ---------------------------------------------------------------- gridftp

struct FtpRig {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a, stack_b;
  std::unique_ptr<flow::FlowEngine> engine;  // null: packet model
  security::CertificateAuthority ca{"TestCA"};
  storage::Disk disk_a{simulator, {}}, disk_b{simulator, {}};
  storage::DiskPool pool_a{100 * kGiB, disk_a}, pool_b{100 * kGiB, disk_b};
  std::unique_ptr<gridftp::FtpServer> server;
  std::unique_ptr<gridftp::FtpClient> client;

  explicit FtpRig(bool fluid = false) {
    path = net::make_wan_path(network, "src", "dst");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    if (fluid) engine = std::make_unique<flow::FlowEngine>(simulator, network);
    server = std::make_unique<gridftp::FtpServer>(
        *stack_a, pool_a, ca, ca.issue("/CN=src", kYear));
    client = std::make_unique<gridftp::FtpClient>(*stack_b, ca,
                                                  ca.issue("/CN=dst", kYear));
    EXPECT_TRUE(server->start().is_ok());
  }
};

TEST(Teardown, FtpClientDestroyedMidTransferAbortsOnce) {
  // Regression for a bug the obligation pass surfaced: in-flight Transfer
  // objects were reachable only through simulator closures whose alive_
  // guards silently dropped them once the client died — the caller's done
  // callback never fired. Run on both data planes: TCP streams, and flows
  // on a FlowEngine.
  for (const bool fluid : {false, true}) {
    SCOPED_TRACE(fluid ? "fluid" : "packet");
    FtpRig rig(fluid);
    (void)rig.pool_a.add_file("/pool/f", 32 * kMiB, 0x1234, 0);
    gridftp::TransferOptions options;
    options.flow_engine = rig.engine.get();
    CountingCallback done;
    rig.client->get(rig.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                    "/pool/f", &rig.pool_b, options,
                    done.wrap<Result<gridftp::TransferResult>>());
    rig.simulator.run_until(rig.simulator.now() + 2 * kSecond);
    EXPECT_EQ(done.count(), 0);  // 32 MiB over a WAN: still streaming
    if (fluid) {
      EXPECT_GT(rig.engine->active_flows(), 0u);
    }
    rig.client.reset();
    EXPECT_TRUE(done.exactly_once());
    EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
    if (fluid) {
      EXPECT_EQ(rig.engine->active_flows(), 0u);
    }
    rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
    EXPECT_TRUE(done.exactly_once());
  }
}

TEST(Teardown, FtpClientThirdPartyDestroyedAbortsOnce) {
  // Regression: the third-party size-lookup continuation returned without
  // invoking `done` when the client was already gone.
  FtpRig rig;
  (void)rig.pool_a.add_file("/pool/f", 4 * kMiB, 0x1234, 0);
  CountingCallback done;
  rig.client->third_party(rig.path.host_a->id(), gridftp::kControlPort,
                          "/pool/f", rig.path.host_a->id(),
                          gridftp::kControlPort, "/pool/copy", {},
                          done.wrap<Result<gridftp::TransferResult>>());
  rig.simulator.run_until(rig.simulator.now() + 10 * kMillisecond);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, FtpClientSuccessAndErrorFireOnceEvenAfterDestroy) {
  FtpRig rig;
  (void)rig.pool_a.add_file("/pool/f", 2 * kMiB, 0x1234, 0);
  CountingCallback ok, missing;
  rig.client->get(rig.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                  "/pool/f", &rig.pool_b, {},
                  ok.wrap<Result<gridftp::TransferResult>>());
  rig.client->get(rig.path.host_a->id(), gridftp::kControlPort,
                  "/pool/none", "/x", &rig.pool_b, {},
                  missing.wrap<Result<gridftp::TransferResult>>());
  rig.simulator.run_until(rig.simulator.now() + 600 * kSecond);
  EXPECT_TRUE(ok.exactly_once());
  EXPECT_TRUE(ok.last_status().is_ok());
  EXPECT_TRUE(missing.exactly_once());
  EXPECT_FALSE(missing.last_status().is_ok());
  // Settled transfers must not be re-settled by the teardown drain.
  rig.client.reset();
  EXPECT_TRUE(ok.exactly_once());
  EXPECT_TRUE(missing.exactly_once());
}

// -------------------------------------------------------------------- rpc

struct RpcRig {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a, stack_b;
  security::CertificateAuthority ca{"TestCA"};
  std::unique_ptr<rpc::RpcServer> server;
  std::unique_ptr<rpc::RpcClient> client;

  RpcRig() {
    path = net::make_wan_path(network, "client", "server");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    server = std::make_unique<rpc::RpcServer>(*stack_b, 7000, ca,
                                              ca.issue("/CN=server", kYear));
    client = std::make_unique<rpc::RpcClient>(
        *stack_a, path.host_b->id(), 7000, ca, ca.issue("/CN=client", kYear));
  }
};

TEST(Teardown, RpcClientDestroyedMidCallAbortsOnce) {
  // Regression for a pass-found bug: ~RpcClient flipped the alive_ sentinel
  // (silencing the timeout closures that would have settled pending_) but
  // never drained pending_ itself — in-flight calls just vanished.
  RpcRig rig;
  rig.server->register_method(
      "black-hole", [](const security::GsiContext&, std::uint64_t,
                       std::span<const std::uint8_t>,
                       rpc::RpcServer::Respond) { /* never responds */ });
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("black-hole", {},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 1 * kSecond);
  EXPECT_EQ(done.count(), 0);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
  // The armed timeout closure must not settle the call a second time.
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, RpcClientTimeoutFiresOnceAndDestroyDoesNotDouble) {
  RpcRig rig;
  rig.server->register_method(
      "black-hole", [](const security::GsiContext&, std::uint64_t,
                       std::span<const std::uint8_t>,
                       rpc::RpcServer::Respond) {});
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("black-hole", {},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kTimedOut);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, RpcClientSuccessFiresOnceAndDestroyDoesNotDouble) {
  RpcRig rig;
  rig.server->register_method(
      "echo", [](const security::GsiContext&, std::uint64_t,
                 std::span<const std::uint8_t> params,
                 rpc::RpcServer::Respond respond) {
        respond(Status::ok(),
                std::vector<std::uint8_t>(params.begin(), params.end()));
      });
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("echo", {1, 2, 3},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 30 * kSecond);
  EXPECT_TRUE(done.exactly_once());
  EXPECT_TRUE(done.last_status().is_ok());
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
}

TEST(Teardown, RpcClientCloseFailsPendingOnce) {
  RpcRig rig;
  rig.server->register_method(
      "black-hole", [](const security::GsiContext&, std::uint64_t,
                       std::span<const std::uint8_t>,
                       rpc::RpcServer::Respond) {});
  ASSERT_TRUE(rig.server->start().is_ok());
  CountingCallback done;
  rig.client->call("black-hole", {},
                   done.wrap<Status, std::vector<std::uint8_t>>());
  rig.simulator.run_until(rig.simulator.now() + 1 * kSecond);
  rig.client->close();
  EXPECT_TRUE(done.exactly_once());
  EXPECT_EQ(done.last_code(), ErrorCode::kUnavailable);
  rig.simulator.run_until(rig.simulator.now() + 3600 * kSecond);
  rig.client.reset();
  EXPECT_TRUE(done.exactly_once());
}

// ---------------------------------------------------------------- catalog

TEST(Teardown, CatalogServerDestroyedWithReplyPendingIsSilent) {
  // The catalog answers after its LDAP latency, from a simulator event.
  // Destroy the server while that reply is pending: a publish reply must
  // not touch the dead catalog (its event once held a raw `this`), a
  // lookup reply must not be sent into the session ~RpcServer closed, and
  // the client's call still settles exactly once.
  for (const bool lookup : {false, true}) {
    SCOPED_TRACE(lookup ? "rc.lookup_batch" : "rc.publish");
    testing::CatalogRig rig;
    if (lookup) rig.publish_all(1);
    const std::int64_t served = rig.server->operations_served();
    CountingCallback done;
    if (lookup) {
      rig.client->lookup_batch(
          "cms", rig.lfns(1),
          done.wrap<Status, std::vector<Result<core::ReplicaInfo>>>());
    } else {
      rig.client->publish("cms", rig.file(0), "cern", "gsiftp://cern/px",
                          done.wrap<Status>());
    }
    for (int step = 0;
         step < 100000 && rig.server->operations_served() == served; ++step) {
      rig.simulator.run_until(rig.simulator.now() + kMillisecond / 10);
    }
    ASSERT_EQ(rig.server->operations_served(), served + 1);
    EXPECT_EQ(done.count(), 0);
    rig.server.reset();
    rig.simulator.run_until(rig.simulator.now() + 60 * kSecond);
    EXPECT_TRUE(done.exactly_once());
    EXPECT_FALSE(done.last_status().is_ok());
  }
}

// ----------------------------------------------------------- grid services

TEST(Teardown, DataMoverDestroyedSettlesQueuedAndInFlightOnce) {
  // Regression for two pass-era bugs: queued requests were dropped with
  // their completions, and the in-flight completion lambda touched members
  // already destroyed during ~DataMover (queue_/stats_ die before ftp_).
  testbed::GridConfig config = testbed::two_site_config();
  config.sites[1].site.gdmp.max_concurrent_transfers = 1;
  auto grid = std::make_unique<testbed::Grid>(config);
  ASSERT_TRUE(grid->start().is_ok());
  testbed::Site& producer = grid->site(0);
  testbed::Site& consumer = grid->site(1);
  const std::string remote = "/pool/teardown-src";
  (void)producer.pool().add_file(remote, 16 * kMiB, 0xBEEF, 0);

  auto& mover = consumer.gdmp_server().data_mover();
  std::vector<CountingCallback> pulls(3);
  for (std::size_t i = 0; i < pulls.size(); ++i) {
    mover.pull(producer.host().id(), gridftp::kControlPort, remote,
               "/pool/teardown-dst" + std::to_string(i), std::nullopt,
               pulls[i].wrap<Result<gridftp::TransferResult>>());
  }
  grid->run_until(grid->simulator().now() + 2 * kSecond);
  EXPECT_EQ(mover.in_flight(), 1);
  EXPECT_EQ(mover.queued(), 2u);
  grid.reset();
  for (const CountingCallback& pull : pulls) {
    EXPECT_TRUE(pull.exactly_once());
    EXPECT_EQ(pull.last_code(), ErrorCode::kAborted);
  }
}

TEST(Teardown, StorageManagerDestroyedFailsCoalescedWaitersOnce) {
  testbed::GridConfig config = testbed::two_site_config();
  config.sites[0].site.has_mss = true;
  auto grid = std::make_unique<testbed::Grid>(config);
  ASSERT_TRUE(grid->start().is_ok());
  testbed::Site& site = grid->site(0);
  (void)site.pool().add_file("/pool/f", 10 * kMiB, 3, 0);
  CountingCallback archived;
  site.gdmp_server().storage_manager().archive("/pool/f",
                                               archived.wrap<Status>());
  grid->run_until(grid->simulator().now() + 600 * kSecond);
  ASSERT_TRUE(archived.exactly_once());
  ASSERT_TRUE(archived.last_status().is_ok());
  (void)site.pool().remove("/pool/f");

  // Two coalesced waiters parked behind one 30s tape mount.
  auto& manager = site.gdmp_server().storage_manager();
  CountingCallback first, second;
  manager.ensure_on_disk("/pool/f",
                         first.wrap<Result<storage::FileInfo>>());
  manager.ensure_on_disk("/pool/f",
                         second.wrap<Result<storage::FileInfo>>());
  grid->run_until(grid->simulator().now() + 1 * kSecond);
  EXPECT_EQ(first.count(), 0);
  grid.reset();
  EXPECT_TRUE(first.exactly_once());
  EXPECT_EQ(first.last_code(), ErrorCode::kUnavailable);
  EXPECT_TRUE(second.exactly_once());
  EXPECT_EQ(second.last_code(), ErrorCode::kUnavailable);
}

TEST(Teardown, SchedulerDestroyedFailsQueuedAndInFlightOnce) {
  // The waiting requests sit in the queue behind one slot, or (three slots
  // on a source capped at one) park after bouncing off the cap.
  for (const bool parked : {false, true}) {
    SCOPED_TRACE(parked ? "parked" : "queued");
    testbed::GridConfig config = testbed::two_site_config();
    config.sites[1].site.sched.max_concurrent = parked ? 3 : 1;
    config.sites[1].site.sched.max_per_source = 1;
    auto grid = std::make_unique<testbed::Grid>(config);
    ASSERT_TRUE(grid->start().is_ok());

    // Publish three replicas the consumer can schedule.
    std::vector<LogicalFileName> lfns;
    std::vector<core::PublishedFile> files;
    for (int i = 0; i < 3; ++i) {
      const LogicalFileName lfn = "lfn://cms/teardown/" + std::to_string(i);
      (void)grid->site(0).pool().add_file(
          grid->site(0).gdmp_server().local_path_for(lfn), 32 * kMiB, 0xF00D,
          0);
      core::PublishedFile file;
      file.lfn = lfn;
      files.push_back(file);
      lfns.push_back(lfn);
    }
    bool published = false;
    grid->site(0).gdmp().publish(files, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      published = true;
    });
    grid->run_until(grid->simulator().now() + 120 * kSecond);
    ASSERT_TRUE(published);

    auto& scheduler = grid->site(1).scheduler();
    std::vector<CountingCallback> dones(3);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < lfns.size(); ++i) {
      ids.push_back(scheduler.submit(
          lfns[i], 0, dones[i].wrap<Result<gridftp::TransferResult>>()));
    }
    grid->run_until(grid->simulator().now() + 1 * kSecond);
    EXPECT_EQ(scheduler.active(), 1);
    EXPECT_EQ(scheduler.stats().busy_deferrals, parked ? 2 : 0);

    // Cancel one waiting request (exactly-once via the cancel path)...
    EXPECT_TRUE(scheduler.cancel(ids[2]));
    EXPECT_TRUE(dones[2].exactly_once());
    EXPECT_EQ(dones[2].last_code(), ErrorCode::kAborted);
    EXPECT_FALSE(scheduler.cancel(ids[2]));
    EXPECT_TRUE(dones[2].exactly_once());

    // ...then tear the grid down with one transfer in flight and one
    // waiting.
    EXPECT_EQ(dones[0].count(), 0);
    EXPECT_EQ(dones[1].count(), 0);
    grid.reset();
    for (const CountingCallback& done : dones) {
      EXPECT_TRUE(done.exactly_once());
      EXPECT_EQ(done.last_code(), ErrorCode::kAborted);
    }
  }
}

}  // namespace
}  // namespace gdmp
