// Shared GDMP value types: export-catalog entries, notifications, config.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/wire.h"
#include "gridftp/client.h"
#include "net/packet.h"

namespace gdmp::core {

/// One published file: what the producer's export catalog records and what
/// subscriber notifications carry. `extra` holds file-type-specific
/// attributes (Objectivity tier/event-range/schema, Oracle tablespace, ...).
struct PublishedFile {
  LogicalFileName lfn;
  std::string local_path;
  Bytes size = 0;
  std::uint64_t content_seed = 0;
  std::uint32_t crc = 0;
  SimTime modify_time = 0;
  std::string file_type = "flat";
  std::map<std::string, std::string> extra;
};

void encode_published_file(wire::Writer& w, const PublishedFile& file);
PublishedFile decode_published_file(wire::Reader& r);

struct CatalogClientConfig {
  /// Lookup/search results younger than this are served from the local
  /// cache without an RPC; older entries are revalidated by version stamp.
  /// Zero disables caching (every call is a round trip, as in the paper).
  SimDuration cache_ttl = 0;
  std::size_t cache_capacity = 65536;
  /// Max files per batched request frame; larger batches are split.
  std::size_t max_batch = 256;
};

/// GDMP site configuration.
struct GdmpConfig {
  net::Port server_port = 2000;
  net::Port gridftp_port = 2811;
  /// The experiment collection this site publishes into.
  std::string collection = "cms";
  net::NodeId catalog_host = net::kInvalidNode;
  net::Port catalog_port = 2010;
  /// Catalog client cache and batching; see DESIGN.md §5j.
  CatalogClientConfig catalog{.cache_ttl = 120 * kSecond};
  /// Consumers: start replication as soon as a notification arrives.
  bool auto_replicate_on_notify = false;
  /// Producers: archive published files to the MSS automatically.
  bool auto_archive_published = false;
  /// Data mover defaults (streams, TCP buffers, restart policy).
  gridftp::TransferOptions transfer;
  int max_concurrent_transfers = 2;
};

/// Well-known RPC method names of the GDMP server.
inline constexpr const char* kMethodSubscribe = "gdmp.subscribe";
inline constexpr const char* kMethodUnsubscribe = "gdmp.unsubscribe";
inline constexpr const char* kMethodNotify = "gdmp.notify";
inline constexpr const char* kMethodGetCatalog = "gdmp.get_catalog";
inline constexpr const char* kMethodStage = "gdmp.stage";
inline constexpr const char* kMethodRelease = "gdmp.release";
inline constexpr const char* kMethodPackObjects = "gdmp.pack_objects";
inline constexpr const char* kMethodDeleteFile = "gdmp.delete_file";

}  // namespace gdmp::core
