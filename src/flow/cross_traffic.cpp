#include "flow/cross_traffic.h"

#include "flow/flow_engine.h"

namespace gdmp::flow {

CrossTraffic::CrossTraffic(net::Network& network, FlowEngine* engine,
                           net::Node& a, net::Node& b, BitsPerSec rate,
                           std::uint64_t seed_ab, std::uint64_t seed_ba) {
  if (engine != nullptr) {
    for (const auto& [src, dst] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
      FlowSpec cross;
      cross.src = src->id();
      cross.dst = dst->id();
      cross.bytes = kUnboundedBytes;
      cross.pinned_rate = rate;
      (void)engine->start(cross, [](const FlowDone&) {});
    }
    return;
  }
  net::CbrConfig cbr;
  cbr.rate = rate;
  sink_ = std::make_unique<net::DatagramSink>(a);
  ab_ = std::make_unique<net::CbrSource>(network, a, b, cbr, seed_ab);
  ba_ = std::make_unique<net::CbrSource>(network, b, a, cbr, seed_ba);
  ab_->start();
  ba_->start();
}

}  // namespace gdmp::flow
