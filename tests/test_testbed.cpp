// Tests for the testbed assembly layer and workload generators.
#include <gtest/gtest.h>

#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp::testbed {
namespace {

TEST(GridAssembly, TwoSiteConfigBuildsAndStarts) {
  Grid grid(two_site_config("cern", "anl"));
  ASSERT_TRUE(grid.start().is_ok());
  EXPECT_EQ(grid.site_count(), 2u);
  EXPECT_EQ(grid.site(0).name(), "cern");
  EXPECT_EQ(grid.site(1).name(), "anl");
  ASSERT_NE(grid.find_site("anl"), nullptr);
  EXPECT_EQ(grid.find_site("nosuch"), nullptr);
  ASSERT_NE(grid.uplink(0), nullptr);
  EXPECT_NE(grid.catalog_node(), net::kInvalidNode);
}

TEST(GridAssembly, EndToEndRttMatchesConfiguredDelays) {
  // Two legs of 31.25 ms plus LAN hops: a TCP handshake (SYN + SYN|ACK)
  // completes in one RTT ≈ 125 ms.
  Grid grid(two_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  net::TcpConfig config;
  bool established = false;
  SimTime established_at = 0;
  (void)grid.site(1).stack().listen(
      6000, config, [](net::TcpConnection::Ptr) {});
  const SimTime start = grid.simulator().now();
  auto client = grid.site(0).stack().connect(grid.site(1).host().id(), 6000,
                                             config);
  client->on_established = [&](const Status& s) {
    established = s.is_ok();
    established_at = grid.simulator().now();
  };
  grid.run_until(grid.simulator().now() + 10 * kSecond);
  ASSERT_TRUE(established);
  const double rtt_ms = to_seconds(established_at - start) * 1e3;
  EXPECT_NEAR(rtt_ms, 125.0, 5.0);
}

TEST(GridAssembly, SitesWithoutFederationOrMss) {
  GridConfig config = two_site_config();
  config.sites[0].site.has_federation = false;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  EXPECT_EQ(grid.site(0).federation(), nullptr);
  EXPECT_EQ(grid.site(0).persistency(), nullptr);
  EXPECT_EQ(grid.site(0).mss(), nullptr);
  EXPECT_NE(grid.site(1).federation(), nullptr);
}

TEST(GridAssembly, CrossTrafficOccupiesUplink) {
  GridConfig config = two_site_config("a", "b", 10 * kMbps);
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  grid.run_until(10 * kSecond);
  ASSERT_NE(grid.uplink(0), nullptr);
  // ~10 Mbit/s for 10 s ≈ 12.5 MB of wire bytes on the uplink.
  EXPECT_GT(grid.uplink(0)->stats().bytes_sent, 8 * kMiB);
}

TEST(Workload, ProduceRunCreatesClusteredFiles) {
  Grid grid(two_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  ProductionConfig production;
  production.tier = objstore::Tier::kEsd;  // 500 objects/file
  production.event_lo = 100;
  production.event_hi = 1600;
  auto files = produce_run(grid.site(0), production);
  ASSERT_EQ(files.size(), 3u);  // 1500 events / 500 per file
  Bytes total = 0;
  for (const auto& file : files) {
    EXPECT_TRUE(grid.site(0).pool().contains(file.local_path));
    EXPECT_TRUE(grid.site(0).federation()->is_attached(file.local_path));
    EXPECT_EQ(file.file_type, "objectivity");
    EXPECT_EQ(file.extra.at("layout"), "range");
    total += grid.site(0).pool().peek(file.local_path)->size;
  }
  EXPECT_EQ(total, 1500LL * 100 * kKiB);
  // Every produced object is locally readable.
  EXPECT_TRUE(grid.site(0).persistency()->available(
      objstore::make_object_id(objstore::Tier::kEsd, 100)));
  EXPECT_TRUE(grid.site(0).persistency()->available(
      objstore::make_object_id(objstore::Tier::kEsd, 1599)));
  EXPECT_FALSE(grid.site(0).persistency()->available(
      objstore::make_object_id(objstore::Tier::kEsd, 1600)));
}

TEST(Workload, ProduceRunStopsWhenPoolFull) {
  GridConfig config = two_site_config();
  config.sites[0].site.pool_capacity = 30 * kMiB;  // fits ~1.5 AOD files
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 10'000;  // would need 5 files = ~98 MiB
  auto files = produce_run(grid.site(0), production);
  EXPECT_GE(files.size(), 1u);
  // The pool honours its capacity by evicting LRU files, so older
  // production files may already be gone — but never over-commits.
  EXPECT_LE(grid.site(0).pool().used_bytes(),
            grid.site(0).pool().capacity());
  std::size_t still_on_disk = 0;
  for (const auto& file : files) {
    if (grid.site(0).pool().contains(file.local_path)) ++still_on_disk;
  }
  EXPECT_LT(still_on_disk, files.size());
}

TEST(Workload, AllTiersShareEventRange) {
  Grid grid(two_site_config());
  ASSERT_TRUE(grid.start().is_ok());
  auto files = produce_all_tiers(grid.site(0), 0, 1000, "full");
  int tiers_seen[4] = {0, 0, 0, 0};
  for (const auto& file : files) {
    tiers_seen[std::stoi(file.extra.at("tier"))]++;
  }
  EXPECT_EQ(tiers_seen[0], 1);   // tag: 100k/file -> 1
  EXPECT_EQ(tiers_seen[1], 1);   // aod: 2000/file -> 1
  EXPECT_EQ(tiers_seen[2], 2);   // esd: 500/file -> 2
  EXPECT_EQ(tiers_seen[3], 10);  // raw: 100/file -> 10
}

TEST(Observatory, FluidHeartbeatStreamIsDeterministic) {
  // Two same-seed fluid-model runs with a 30 s heartbeat must produce the
  // identical rollup stream, byte for byte — the in-process counterpart of
  // tools/determinism_check's GDMP_ROLLUP_FILE comparison.
  auto run = [] {
    GridConfig config = two_site_config("cern", "anl");
    config.transfer_model = flow::TransferModel::kFluid;
    config.heartbeat_period = 30 * kSecond;
    config.event_count = 4000;
    config.sites[1].site.gdmp.auto_replicate_on_notify = true;
    Grid grid(config);
    EXPECT_TRUE(grid.start().is_ok());
    std::string stream;
    grid.heartbeat()->set_sink([&stream](const std::string& line) {
      stream += line;
      stream += '\n';
    });
    Site& cern = grid.site(0);
    Site& anl = grid.site(1);
    anl.gdmp().subscribe(cern.host().id(), 2000, [](Status) {});
    grid.run_until(grid.simulator().now() + 30 * kSecond);
    ProductionConfig production;
    production.tier = objstore::Tier::kAod;
    production.event_hi = 4000;
    auto files = produce_run(cern, production);
    cern.gdmp().publish(files, [](Status) {});
    grid.run_until(grid.simulator().now() + 3600 * kSecond);
    EXPECT_TRUE(anl.scheduler().idle());
    grid.heartbeat()->finish();
    return stream;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"type\":\"campaign\""), std::string::npos);
  // The fluid uplink instruments made it into the stream: the payload
  // leaves through cern's uplink, so that is the bytes_moved counter that
  // shows deltas (anl's uplink only carries control traffic).
  EXPECT_NE(first.find("grid.uplink.anl.utilization"), std::string::npos);
  EXPECT_NE(first.find("grid.uplink.cern.bytes_moved"), std::string::npos);
}

TEST(Observatory, SaturatedUplinkFiresWatchdogOnce) {
  // Pinned cross traffic at ≈100% of the payload capacity of cern's 45
  // Mbit/s uplink holds its utilization above the 0.95 ceiling from tick
  // 1, so link_saturation fires exactly once, on the configured third
  // sustained tick — deterministically.
  GridConfig config = two_site_config("cern", "anl", 44 * kMbps);
  config.transfer_model = flow::TransferModel::kFluid;
  config.heartbeat_period = kSecond;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  std::vector<std::string> lines;
  grid.heartbeat()->set_sink(
      [&lines](const std::string& line) { lines.push_back(line); });
  grid.run_until(10 * kSecond);
  grid.heartbeat()->finish();

  EXPECT_EQ(grid.heartbeat()->ticks(), 10u);
  EXPECT_EQ(grid.heartbeat()->alerts_total(), 1);
  std::size_t alert_records = 0, alert_seq = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("\"rule\":\"link_saturation\"") == std::string::npos) {
      continue;
    }
    ++alert_records;
    alert_seq = i + 1;  // rollup seq is 1-based in emission order
  }
  EXPECT_EQ(alert_records, 1u);
  EXPECT_EQ(alert_seq, 3u);  // watch_saturation_ticks = 3
  // The alert also lands in the reporter's own counters on later ticks.
  EXPECT_NE(lines.back().find("\"alerts_total\":1"), std::string::npos);
  EXPECT_NE(lines[3].find("\"obs.alert.link_saturation\""),
            std::string::npos);
}

TEST(SiteAssembly, StorageBackendSelection) {
  GridConfig config = two_site_config();
  config.sites[0].site.has_mss = true;
  config.sites[0].site.use_script_stager = false;
  config.sites[1].site.has_mss = true;
  config.sites[1].site.use_script_stager = true;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  ASSERT_NE(grid.site(0).mss(), nullptr);
  ASSERT_NE(grid.site(1).mss(), nullptr);
  EXPECT_STREQ(grid.site(0).gdmp_server().site().storage_backend->name(),
               "hrm");
  EXPECT_STREQ(grid.site(1).gdmp_server().site().storage_backend->name(),
               "script");
}

}  // namespace
}  // namespace gdmp::testbed
