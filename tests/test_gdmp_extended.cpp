// Extended GDMP scenarios: associated files, file-type plug-ins,
// unsubscribe, deletion, transfer queueing, multi-source object plans.
#include <gtest/gtest.h>

#include "common/string_util.h"
#include "objrep/selection.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace gdmp::core {
namespace {

using testbed::Grid;
using testbed::GridConfig;
using testbed::Site;
using testbed::two_site_config;

GridConfig fast_two_site(std::int64_t events = 10'000) {
  GridConfig config = two_site_config();
  config.event_count = events;
  for (auto& spec : config.sites) {
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
  }
  return config;
}

TEST(GdmpAssociations, ProducerAnnotatesOverlappingTiers) {
  Grid grid(fast_two_site(4000));
  ASSERT_TRUE(grid.start().is_ok());
  auto files = testbed::produce_all_tiers(grid.site(0), 0, 2000, "runX");
  ASSERT_FALSE(files.empty());
  // Every file must reference at least one other tier's overlapping file.
  for (const auto& file : files) {
    EXPECT_TRUE(file.extra.contains("assoc")) << file.lfn;
  }
  // An AOD file (2000 events/file) overlaps 4 ESD files (500 events/file).
  for (const auto& file : files) {
    if (file.lfn.find("/aod/") == std::string::npos) continue;
    int esd_assocs = 0;
    for (const auto& assoc :
         split(file.extra.at("assoc"), ',')) {
      if (assoc.find("/esd/") != std::string::npos) ++esd_assocs;
    }
    EXPECT_EQ(esd_assocs, 4) << file.lfn;
  }
}

TEST(GdmpAssociations, GetWithAssociationsPreservesNavigation) {
  // Association navigation (§2.1), not TCP, is under test: move the
  // payload on the fluid model.
  GridConfig config = fast_two_site(4000);
  config.transfer_model = flow::TransferModel::kFluid;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  auto files = testbed::produce_all_tiers(grid.site(0), 0, 1000, "runN");
  grid.site(0).gdmp().publish(files, [](Status s) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
  });
  grid.run_until(grid.simulator().now() + 300 * kSecond);

  // Find the tag file and pull it with its associates.
  LogicalFileName tag_lfn;
  for (const auto& file : files) {
    if (file.lfn.find("/tag/") != std::string::npos) tag_lfn = file.lfn;
  }
  ASSERT_FALSE(tag_lfn.empty());
  Status status = make_error(ErrorCode::kInternal, "pending");
  grid.site(1).gdmp().get_with_associations(
      tag_lfn, [&](Status s, Bytes) { status = s; });
  grid.run_until(grid.simulator().now() + 8 * 3600 * kSecond);
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  // Navigation across every tier boundary now works locally (§2.1).
  auto* persistency = grid.site(1).persistency();
  for (const objstore::Tier target :
       {objstore::Tier::kAod, objstore::Tier::kEsd, objstore::Tier::kRaw}) {
    Bytes read = 0;
    persistency->navigate(
        objstore::make_object_id(objstore::Tier::kTag, 500), target,
        [&](Result<Bytes> r) { read = r.value_or(0); });
    grid.run_until(grid.simulator().now() + kSecond);
    EXPECT_GT(read, 0) << objstore::tier_name(target);
  }
  EXPECT_EQ(persistency->stats().navigation_failures, 0);
}

TEST(Gdmp, PublishRejectsNonCanonicalPath) {
  Grid grid(fast_two_site(1000));
  ASSERT_TRUE(grid.start().is_ok());
  (void)grid.site(0).pool().add_file("/elsewhere/file", 1000, 1, 0);
  PublishedFile file;
  file.lfn = "lfn://cms/q";
  file.local_path = "/elsewhere/file";
  Status status = Status::ok();
  grid.site(0).gdmp().publish({file}, [&](Status s) { status = s; });
  grid.run_until(60 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(Gdmp, UnsubscribeStopsNotifications) {
  Grid grid(fast_two_site(4000));
  ASSERT_TRUE(grid.start().is_ok());
  bool subscribed = false;
  grid.site(1).gdmp().subscribe(grid.site(0).host().id(), 2000,
                                [&](Status s) { subscribed = s.is_ok(); });
  grid.run_until(30 * kSecond);
  ASSERT_TRUE(subscribed);

  // Unsubscribe via the RPC method directly.
  wire::Writer w;
  w.str(grid.site(1).name());
  bool unsubscribed = false;
  grid.site(1)
      .gdmp_server()
      .peer(grid.site(0).host().id(), 2000)
      .call(kMethodUnsubscribe, w.take(),
            [&](Status s, std::vector<std::uint8_t>) {
              unsubscribed = s.is_ok();
            });
  grid.run_until(grid.simulator().now() + 30 * kSecond);
  ASSERT_TRUE(unsubscribed);
  EXPECT_TRUE(grid.site(0).gdmp_server().subscribers().empty());

  int notifications = 0;
  grid.site(1).gdmp_server().on_notification =
      [&](const std::string&, const PublishedFile&) { ++notifications; };
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 2000;
  auto files = testbed::produce_run(grid.site(0), production);
  grid.site(0).gdmp().publish(files, [](Status) {});
  grid.run_until(grid.simulator().now() + 120 * kSecond);
  EXPECT_EQ(notifications, 0);
}

TEST(Gdmp, FlatAndOracleFileTypesReplicate) {
  Grid grid(fast_two_site(1000));
  ASSERT_TRUE(grid.start().is_ok());
  for (const char* type : {"flat", "oracle"}) {
    PublishedFile file;
    file.lfn = std::string("lfn://cms/") + type + "/data";
    file.file_type = type;
    (void)grid.site(0).pool().add_file("/pool/" + file.lfn, 4 * kMiB, 5, 0);
    Status published = Status::ok();
    grid.site(0).gdmp().publish({file}, [&](Status s) { published = s; });
    grid.run_until(grid.simulator().now() + 60 * kSecond);
    ASSERT_TRUE(published.is_ok()) << published.to_string();

    bool replicated = false;
    grid.site(1).gdmp().get_file(
        file.lfn, [&](Result<gridftp::TransferResult> result) {
          replicated = result.is_ok();
        });
    grid.run_until(grid.simulator().now() + 600 * kSecond);
    EXPECT_TRUE(replicated) << type;
    EXPECT_TRUE(grid.site(1).pool().contains("/pool/" + file.lfn)) << type;
    // Non-Objectivity files must not enter the federation catalog.
    EXPECT_FALSE(grid.site(1).federation()->is_attached("/pool/" + file.lfn))
        << type;
  }
}

TEST(Gdmp, DeleteFileRemovesReplicaEverywhere) {
  Grid grid(fast_two_site(4000));
  ASSERT_TRUE(grid.start().is_ok());
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 2000;
  auto files = testbed::produce_run(grid.site(0), production);
  grid.site(0).gdmp().publish(files, [](Status) {});
  grid.run_until(grid.simulator().now() + 120 * kSecond);
  bool replicated = false;
  grid.site(1).gdmp().get_file(files[0].lfn,
                               [&](Result<gridftp::TransferResult> r) {
                                 replicated = r.is_ok();
                               });
  grid.run_until(grid.simulator().now() + 600 * kSecond);
  ASSERT_TRUE(replicated);

  // Ask the consumer's own server to delete its replica.
  wire::Writer w;
  w.str(files[0].lfn);
  bool deleted = false;
  grid.site(0)
      .gdmp_server()
      .peer(grid.site(1).host().id(), 2000)
      .call(kMethodDeleteFile, w.take(),
            [&](Status s, std::vector<std::uint8_t>) {
              deleted = s.is_ok();
            });
  grid.run_until(grid.simulator().now() + 60 * kSecond);
  ASSERT_TRUE(deleted);
  const std::string local =
      grid.site(1).gdmp_server().local_path_for(files[0].lfn);
  EXPECT_FALSE(grid.site(1).pool().contains(local));
  EXPECT_FALSE(grid.site(1).federation()->is_attached(local));
  std::size_t locations = 99;
  grid.site(0).gdmp_server().catalog().lookup(
      "cms", files[0].lfn, [&](Result<ReplicaInfo> info) {
        if (info.is_ok()) locations = info->locations.size();
      });
  grid.run_until(grid.simulator().now() + 60 * kSecond);
  EXPECT_EQ(locations, 1u);  // only the producer copy remains
}

TEST(Gdmp, DataMoverBoundsConcurrency) {
  GridConfig config = fast_two_site(20'000);
  config.sites[1].site.gdmp.max_concurrent_transfers = 2;
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  testbed::ProductionConfig production;
  production.tier = objstore::Tier::kAod;
  production.event_hi = 12'000;
  auto files = testbed::produce_run(grid.site(0), production);
  grid.site(0).gdmp().publish(files, [](Status) {});
  grid.run_until(grid.simulator().now() + 300 * kSecond);
  std::vector<LogicalFileName> lfns;
  for (const auto& file : files) lfns.push_back(file.lfn);
  int max_in_flight = 0;
  grid.site(1).gdmp().get_files(lfns, [](Status, Bytes) {});
  auto& mover = grid.site(1).gdmp_server().data_mover();
  for (int tick = 0; tick < 4000; ++tick) {
    grid.run_until(grid.simulator().now() + kSecond);
    max_in_flight = std::max(max_in_flight, mover.in_flight());
    if (mover.in_flight() == 0 && mover.queued() == 0 && tick > 10) break;
  }
  EXPECT_LE(max_in_flight, 2);
  EXPECT_GE(max_in_flight, 2);  // it did saturate the budget
  EXPECT_EQ(mover.stats().transfers_completed,
            static_cast<std::int64_t>(lfns.size()));
}

TEST(ObjRepMultiSource, PlanSplitsAcrossProducers) {
  // Two producers each hold half the AOD tier; the consumer's collective
  // lookup must split the request and the full cycle must succeed.
  GridConfig config;
  config.event_count = 8000;
  for (const char* name : {"p1", "p2", "consumer"}) {
    testbed::GridSiteSpec spec;
    spec.name = name;
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
    config.sites.push_back(spec);
  }
  Grid grid(config);
  ASSERT_TRUE(grid.start().is_ok());
  testbed::ProductionConfig half;
  half.tier = objstore::Tier::kAod;
  half.event_lo = 0;
  half.event_hi = 4000;
  half.run_name = "half1";
  grid.site(0).gdmp().publish(testbed::produce_run(grid.site(0), half),
                              [](Status) {});
  half.event_lo = 4000;
  half.event_hi = 8000;
  half.run_name = "half2";
  grid.site(1).gdmp().publish(testbed::produce_run(grid.site(1), half),
                              [](Status) {});
  grid.run_until(grid.simulator().now() + 300 * kSecond);

  for (std::size_t i : {0u, 1u}) {
    bool indexed = false;
    grid.site(2).objrep().refresh_index_from(
        grid.site(i).name(), grid.site(i).host().id(), 2000,
        [&](Status s) { indexed = s.is_ok(); });
    grid.run_until(grid.simulator().now() + 60 * kSecond);
    ASSERT_TRUE(indexed);
  }

  Rng rng(31);
  objrep::SelectionConfig selection;
  selection.fraction = 2e-3;
  const auto needed = objrep::select_objects(grid.model(), selection, rng);
  const auto plan = grid.site(2).objrep().index().plan(needed);
  EXPECT_EQ(plan.size(), 2u);  // both producers contribute

  bool done = false;
  grid.site(2).objrep().replicate_objects(
      needed, [&](Result<objrep::ObjectReplicationService::Outcome> result) {
        done = true;
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      });
  grid.run_until(grid.simulator().now() + 8 * 3600 * kSecond);
  ASSERT_TRUE(done);
  for (const ObjectId id : needed) {
    EXPECT_TRUE(grid.site(2).persistency()->available(id));
  }
}

}  // namespace
}  // namespace gdmp::core
