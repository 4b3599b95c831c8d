// RPC server: GSI-authenticated method dispatch.
//
// One RpcServer per GDMP site service. Connections must complete the GSI
// handshake before any request is dispatched; handlers receive the
// authenticated peer identity and respond asynchronously (staging and
// transfer operations take simulated minutes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/det_hash.h"
#include "common/result.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "rpc/message.h"
#include "security/gsi.h"

namespace gdmp::rpc {

class RpcServer {
 public:
  /// Completes a request: status + response payload. Once the server has
  /// been destroyed (its sessions closed) the reply goes nowhere.
  using Respond =
      std::function<void(Status, std::vector<std::uint8_t> payload)>;
  /// Handles one authenticated request. May call `respond` immediately or
  /// after arbitrary simulated time (exactly once). `session_id` is stable
  /// for the lifetime of one client connection, letting services keep
  /// per-connection state (e.g. GridFTP's SBUF-then-PASV sequence).
  using Handler = std::function<void(const security::GsiContext& peer,
                                     std::uint64_t session_id,
                                     std::span<const std::uint8_t> params,
                                     Respond respond)>;
  /// A member function of a service with the Handler argument list.
  template <class Owner>
  using Method = void (Owner::*)(const security::GsiContext& peer,
                                 std::uint64_t session_id,
                                 std::span<const std::uint8_t> params,
                                 Respond respond);

  RpcServer(net::TcpStack& stack, net::Port port,
            const security::CertificateAuthority& ca,
            security::Certificate credential, net::TcpConfig tcp_config = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void register_method(std::string name, Handler handler);

  /// Binds `owner.*method` under `name`, guarded by the owner's liveness
  /// sentinel: once `alive` has expired a request is answered kUnavailable
  /// and never reaches `owner` (frames can still be queued in the
  /// simulator while a service that registered here is being torn down).
  template <class Owner>
  void register_method(std::string name, Owner& owner,
                       std::weak_ptr<bool> alive, Method<Owner> method) {
    register_method(
        std::move(name),
        [owner = &owner, alive = std::move(alive), method](
            const security::GsiContext& peer, std::uint64_t session_id,
            std::span<const std::uint8_t> params, Respond respond) {
          if (alive.expired()) {
            respond(make_error(ErrorCode::kUnavailable, "service stopped"),
                    {});
            return;
          }
          (owner->*method)(peer, session_id, params, std::move(respond));
        });
  }

  /// Starts listening. Call after registering methods.
  Status start();
  void stop();

  net::Port port() const noexcept { return port_; }
  std::int64_t requests_served() const noexcept { return requests_served_; }
  std::int64_t auth_failures() const noexcept { return auth_failures_; }

  /// Binds requests_served() and auth_failures() into `scope` (e.g.
  /// "site.cern.gdmp.rpc").
  /// Each dispatched request also gets an "rpc.request" span (the root of
  /// the replication chain) when the global tracer is enabled.
  void set_metrics(const obs::MetricsScope& scope);

 private:
  struct Session;

  void on_accept(net::TcpConnection::Ptr conn);
  void on_message(const std::shared_ptr<Session>& session, RpcMessage message);
  void dispatch(const std::shared_ptr<Session>& session, RpcMessage message);

  net::TcpStack& stack_;
  net::Port port_;
  security::GsiAcceptor acceptor_;
  net::TcpConfig tcp_config_;
  common::UnorderedMap<std::string, Handler> methods_;  // lookup-only
  // Iterated at teardown to close live connections (a scheduling sink), so
  // the walk order must be deterministic: ordered by session id.
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  bool listening_ = false;
  std::uint64_t next_session_id_ = 1;
  std::int64_t requests_served_ = 0;
  std::int64_t auth_failures_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::rpc
