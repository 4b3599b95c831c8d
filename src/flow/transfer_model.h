// Transfer-model seam: packet-level vs fluid simulation, selectable per
// scenario.
//
// The packet model (net/tcp.h + gridftp/block_stream.h) simulates every
// TCP segment — faithful to the paper's CERN–ANL measurements, and the
// validation baseline. The fluid model (flow/flow_engine.h) moves the same
// bytes as rate-based flows — within tolerance of the packet model on the
// Fig 5/6 operating points (tests/test_flow.cpp) at a tiny fraction of the
// event count, which is what makes grid-scale scenarios (10^5+ concurrent
// transfers, bench/bench_flow.cpp) feasible.
//
// One knob selects the model: testbed::GridConfig::transfer_model decides
// whether the grid builds a FlowEngine. Below the testbed the engine
// pointer is the selector — gridftp::TransferOptions::flow_engine,
// gridftp::FtpServerConfig::flow_engine and testbed::SiteConfig::flow_engine
// move payloads as flows when set and as TCP segments when null. Both
// paths emit identical Perf/Restart markers into obs::TransferChannel, so
// the scheduler's EWMA selector and tracing work unchanged on either.
#pragma once

namespace gdmp::flow {

class FlowEngine;

enum class TransferModel {
  kPacket,  ///< per-segment TCP simulation (default)
  kFluid,   ///< rate-based flows via FlowEngine
};

}  // namespace gdmp::flow
