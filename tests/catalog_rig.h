// CatalogRig: one CatalogServer and one CatalogClient on either end of a
// WAN path, shared by the catalog-service and teardown tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gdmp/catalog_service.h"
#include "net/topology.h"
#include "security/credentials.h"

namespace gdmp::testing {

inline std::string lfn_for(int i) {
  return "lfn://cms/file." + std::to_string(i);
}

struct CatalogRig {
  static constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;

  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> client_stack, server_stack;
  security::CertificateAuthority ca{"TestCA"};
  std::unique_ptr<core::CatalogServer> server;
  std::unique_ptr<core::CatalogClient> client;

  explicit CatalogRig(core::CatalogClientConfig client_config = {
                          .cache_ttl = 300 * kSecond,
                          .cache_capacity = 1024,
                          .max_batch = 4}) {
    path = net::make_wan_path(network, "site", "rc");
    client_stack = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    server_stack = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    server = std::make_unique<core::CatalogServer>(
        *server_stack, ca, ca.issue("/CN=rc", kYear),
        core::CatalogServerConfig{.shards = 4});
    EXPECT_TRUE(server->start().is_ok());
    client = std::make_unique<core::CatalogClient>(
        *client_stack, path.host_b->id(), 2010, ca,
        ca.issue("/CN=site", kYear), client_config);
  }

  core::PublishedFile file(int i) const {
    core::PublishedFile f;
    f.lfn = lfn_for(i);
    f.local_path = "/data/f" + std::to_string(i);
    f.size = 1 << 20;
    f.crc = static_cast<std::uint32_t>(i);
    return f;
  }

  std::vector<LogicalFileName> lfns(int n) const {
    std::vector<LogicalFileName> out;
    for (int i = 0; i < n; ++i) out.push_back(lfn_for(i));
    return out;
  }

  void publish_all(int n) {
    std::vector<core::PublishedFile> files;
    for (int i = 0; i < n; ++i) files.push_back(file(i));
    bool ok = false;
    client->publish_batch("cms", files, "cern", "gsiftp://cern/px",
                          [&](Status s, std::vector<Status> statuses) {
                            ok = s.is_ok();
                            for (const Status& st : statuses) {
                              ok = ok && st.is_ok();
                            }
                          });
    simulator.run();
    ASSERT_TRUE(ok);
  }
};

}  // namespace gdmp::testing
