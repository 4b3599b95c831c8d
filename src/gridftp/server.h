// GridFTP server (§3.2).
//
// Serves RETR/STOR with parallel data streams, partial-transfer ranges,
// buffer negotiation (SBUF), checksums (CKSM), deletion and third-party
// transfer control (XFER). Built on the GSI-authenticated RPC control
// channel plus raw TCP data channels carrying extended-mode blocks.
//
// Fault injection: with `corrupt_probability`, a data block is sent with a
// poisoned content seed — the wire analogue of the silent corruption the
// paper guards against with an "additional CRC error check" (§4.3).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/det_hash.h"
#include "common/random.h"
#include "common/result.h"
#include "flow/transfer_model.h"
#include "gridftp/block_stream.h"
#include "gridftp/protocol.h"
#include "obs/channel.h"
#include "obs/metrics.h"
#include "rpc/rpc_server.h"
#include "storage/disk_pool.h"

namespace gdmp::gridftp {

struct FtpServerConfig {
  net::Port control_port = kControlPort;
  net::TcpConfig control_tcp{};
  Bytes default_data_buffer = 64 * kKiB;
  Bytes max_data_buffer = 64 * kMiB;
  int max_parallel_streams = 32;
  double corrupt_probability = 0.0;
  std::uint64_t fault_seed = 0x5eedf00d;
  /// Transfer model for transfers this server *originates* (the sending
  /// side of third-party XFER): set, they move as flows on this engine;
  /// null selects the packet path. Inbound FGET/FPUT are always served
  /// when a client selects the fluid path. Not owned.
  flow::FlowEngine* flow_engine = nullptr;
};

struct FtpServerStats {
  std::int64_t retrievals = 0;
  std::int64_t stores = 0;
  std::int64_t third_party = 0;
  std::int64_t blocks_corrupted = 0;
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
};

class FtpServer {
 public:
  FtpServer(net::TcpStack& stack, storage::DiskPool& pool,
            const security::CertificateAuthority& ca,
            security::Certificate credential, FtpServerConfig config = {});
  ~FtpServer();

  FtpServer(const FtpServer&) = delete;
  FtpServer& operator=(const FtpServer&) = delete;

  Status start();
  void stop();

  const FtpServerStats& stats() const noexcept { return stats_; }
  /// The control-channel RPC server (request/auth-failure counts).
  const rpc::RpcServer& rpc() const noexcept { return rpc_; }
  /// Runtime flaky-link toggle: corruption probability of each data block
  /// from now on (tests/benches flip a healthy server bad and back).
  void set_corrupt_probability(double p) noexcept {
    config_.corrupt_probability = p;
  }
  storage::DiskPool& pool() noexcept { return pool_; }
  net::Port control_port() const noexcept { return config_.control_port; }
  net::TcpStack& stack() noexcept { return stack_; }
  const security::CertificateAuthority& ca() const noexcept { return ca_; }
  const security::Certificate& credential() const noexcept {
    return credential_;
  }

  /// Binds the stats() transfer/byte counts into `scope` (e.g.
  /// "site.cern.gridftp"); the "rpc" child scope instruments the embedded
  /// control-channel server.
  void set_metrics(const obs::MetricsScope& scope);

  /// Server-side marker channel: RETR sessions publish per-stripe perf
  /// markers as blocks are queued. Not owned; null disables emission.
  void set_channel(obs::TransferChannel* channel) noexcept {
    channel_ = channel;
  }

 private:
  struct DataStream;
  struct DataSession;
  struct ControlState {
    Bytes data_buffer;
  };

  // Control-channel command handlers, all with the RpcServer::Handler
  // argument list.
  void handle_sbuf(const security::GsiContext&, std::uint64_t session_id,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_pasv(const security::GsiContext&, std::uint64_t session_id,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_retr(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_stor(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_size(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_cksm(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_dele(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_xfer(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_fget(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);
  void handle_fput(const security::GsiContext&, std::uint64_t,
                   std::span<const std::uint8_t> params,
                   rpc::RpcServer::Respond respond);

  /// The content seed a served RETR block or FGET stripe carries: with
  /// corrupt_probability, poisoned (one fault_rng_ draw per call).
  std::uint64_t served_seed(std::uint64_t seed);
  /// Server-side perf marker for one stripe: the wire marker a monitoring
  /// client would receive over the control channel (no-op without
  /// subscribers).
  void emit_perf(const std::string& path, Bytes bytes, std::size_t stripe,
                 std::size_t stripe_count);
  /// Materialises a fully received STOR/FPUT file and replies with its CRC.
  void commit_file(const std::string& path, Bytes size, std::uint64_t seed,
                   rpc::RpcServer::Respond respond);

  void on_data_connection(const std::shared_ptr<DataSession>& session,
                          net::TcpConnection::Ptr conn);
  void attach_stream(const std::shared_ptr<DataSession>& session,
                     const DataHello& hello, net::TcpConnection::Ptr conn);
  void maybe_start_retr(const std::shared_ptr<DataSession>& session);
  void check_stor_complete(const std::shared_ptr<DataSession>& session);
  void finish_retr_stream(const std::shared_ptr<DataSession>& session);
  void fail_session(const std::shared_ptr<DataSession>& session,
                    const Status& status);
  void destroy_session(const std::shared_ptr<DataSession>& session);

  net::TcpStack& stack_;
  storage::DiskPool& pool_;
  const security::CertificateAuthority& ca_;
  security::Certificate credential_;
  FtpServerConfig config_;
  rpc::RpcServer rpc_;
  Rng fault_rng_;
  FtpServerStats stats_;
  obs::TransferChannel* channel_ = nullptr;
  common::UnorderedMap<std::uint64_t, ControlState> control_state_;  // lookup-only
  // Iterated at teardown to cancel timers and tear down streams (both
  // scheduling sinks), so the walk order must be deterministic: ordered
  // by session token.
  std::map<std::uint64_t, std::shared_ptr<DataSession>> sessions_;
  std::uint64_t next_token_ = 1;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::gridftp
