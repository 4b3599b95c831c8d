// Background load between two nodes, in whichever transfer model runs it.
//
// The paper's CERN–ANL runs shared the WAN with production traffic. Both
// transfer models reproduce it as `rate` each way between two nodes: on a
// FlowEngine, one unbounded pinned flow per direction (unresponsive, zero
// per-packet events); without one, a constant-bit-rate datagram source per
// direction plus a sink at `a`. Testbed grids (site uplinks) and the
// Figure 5/6 benches (the WAN path) both set up their cross traffic here.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.h"
#include "net/cross_traffic.h"
#include "net/network.h"

namespace gdmp::flow {

class FlowEngine;

class CrossTraffic {
 public:
  /// Starts the load at once, a→b first. `seed_ab` / `seed_ba` seed the
  /// CBR sources' jitter (the fluid model has none). Pinned flows run
  /// until `engine` is destroyed; CBR sources until this object is.
  CrossTraffic(net::Network& network, FlowEngine* engine, net::Node& a,
               net::Node& b, BitsPerSec rate, std::uint64_t seed_ab,
               std::uint64_t seed_ba);

 private:
  std::unique_ptr<net::DatagramSink> sink_;
  std::unique_ptr<net::CbrSource> ab_;
  std::unique_ptr<net::CbrSource> ba_;
};

}  // namespace gdmp::flow
