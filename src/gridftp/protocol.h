// GridFTP wire protocol constants and data-channel framing.
//
// The control channel reuses the framed, GSI-authenticated RPC transport
// (rpc/), with method names matching the FTP command set the real server
// extends: SBUF (buffer negotiation), PASV (data-port allocation), RETR /
// STOR (with partial-transfer ranges), SIZE, CKSM, DELE, XFER (third-party
// control). Replies carry ErrorCode in place of FTP numeric codes.
//
// Each data-channel connection starts with a 10-byte hello that binds it
// to its session, then carries a sequence of extended-mode blocks:
// a 24-byte header (offset, length, content seed) followed by `length`
// synthetic payload bytes. offset == -1 marks end-of-data for the stream.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "common/wire.h"

namespace gdmp::net {
class TcpConnection;
}  // namespace gdmp::net

namespace gdmp::gridftp {

/// Default GridFTP control port (as in the real deployment).
constexpr std::uint16_t kControlPort = 2811;

// Control-channel method names.
inline constexpr const char* kCmdSetBuffer = "SBUF";
inline constexpr const char* kCmdPassive = "PASV";
inline constexpr const char* kCmdRetrieve = "RETR";
inline constexpr const char* kCmdStore = "STOR";
inline constexpr const char* kCmdSize = "SIZE";
inline constexpr const char* kCmdChecksum = "CKSM";
inline constexpr const char* kCmdDelete = "DELE";
inline constexpr const char* kCmdTransferTo = "XFER";  // third-party control
// Fluid-model data plane (flow/transfer_model.h): the payload moves as
// rate-based flows, so these commands carry only metadata — FGET resolves
// ranges and returns {total, crc, per-stripe seeds}; FPUT commits an
// already-delivered file.
inline constexpr const char* kCmdFluidGet = "FGET";
inline constexpr const char* kCmdFluidPut = "FPUT";

/// A byte range of a file. length == -1 means "to end of file".
struct ByteRange {
  Bytes offset = 0;
  Bytes length = -1;
};

/// Data-channel hello: binds a fresh data connection to a PASV session.
struct DataHello {
  std::uint64_t session_token = 0;
  std::uint16_t stream_index = 0;

  static constexpr std::size_t kWireSize = 10;
  void encode(wire::Writer& w) const;
  static std::optional<DataHello> decode(std::span<const std::uint8_t> data);
};

/// Extended-block header preceding each payload run on a data stream.
struct BlockHeader {
  Bytes offset = 0;  // -1 = end-of-data marker for this stream
  Bytes length = 0;
  std::uint64_t content_seed = 0;

  static constexpr std::size_t kWireSize = 24;
  bool is_eod() const noexcept { return offset < 0; }
  void encode(wire::Writer& w) const;
  static std::optional<BlockHeader> decode(
      std::span<const std::uint8_t> data);
};

/// Writes one block on a data stream: the header as real bytes, then its
/// payload as a synthetic run (none for an end-of-data marker).
void send_block(net::TcpConnection& conn, const BlockHeader& header);

/// Splits `range` into at most `parts` contiguous subranges of near-equal
/// size (the pre-partitioned parallel-stream layout; see DESIGN.md).
std::vector<ByteRange> partition_range(ByteRange range, int parts,
                                       Bytes total_file_size);

/// Distributes resolved ranges across `streams` stripes exactly the way
/// the server lays out a RETR: a single range is pre-partitioned into
/// near-equal parts, multiple ranges (a restart's re-requests) go
/// round-robin. Shared by the packet server and both fluid endpoints so
/// stripe indices agree on every path.
std::vector<std::vector<ByteRange>> stripe_ranges(
    const std::vector<ByteRange>& ranges, int streams);

}  // namespace gdmp::gridftp
