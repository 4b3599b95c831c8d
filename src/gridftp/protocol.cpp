#include "gridftp/protocol.h"

#include "net/tcp.h"

namespace gdmp::gridftp {

void DataHello::encode(wire::Writer& w) const {
  w.u64(session_token);
  w.u16(stream_index);
}

std::optional<DataHello> DataHello::decode(
    std::span<const std::uint8_t> data) {
  if (data.size() < kWireSize) return std::nullopt;
  wire::Reader r(data.subspan(0, kWireSize));
  DataHello hello;
  hello.session_token = r.u64();
  hello.stream_index = r.u16();
  if (!r.ok()) return std::nullopt;
  return hello;
}

void BlockHeader::encode(wire::Writer& w) const {
  w.i64(offset);
  w.i64(length);
  w.u64(content_seed);
}

// gdmp-lint: hot-path — block sends: every RETR and STOR block goes through here
void send_block(net::TcpConnection& conn, const BlockHeader& header) {
  wire::Writer w;
  header.encode(w);
  conn.send(w.take());
  conn.send_synthetic(header.length);
}

std::optional<BlockHeader> BlockHeader::decode(
    std::span<const std::uint8_t> data) {
  if (data.size() < kWireSize) return std::nullopt;
  wire::Reader r(data.subspan(0, kWireSize));
  BlockHeader header;
  header.offset = r.i64();
  header.length = r.i64();
  header.content_seed = r.u64();
  if (!r.ok()) return std::nullopt;
  return header;
}

std::vector<ByteRange> partition_range(ByteRange range, int parts,
                                       Bytes total_file_size) {
  std::vector<ByteRange> out;
  Bytes length = range.length < 0 ? total_file_size - range.offset
                                  : range.length;
  if (length <= 0 || parts <= 0) return out;
  out.reserve(static_cast<std::size_t>(parts));
  const Bytes base = length / parts;
  const Bytes extra = length % parts;
  Bytes cursor = range.offset;
  for (int i = 0; i < parts; ++i) {
    const Bytes n = base + (i < extra ? 1 : 0);
    if (n == 0) continue;  // more parts than bytes
    out.push_back(ByteRange{cursor, n});
    cursor += n;
  }
  return out;
}

std::vector<std::vector<ByteRange>> stripe_ranges(
    const std::vector<ByteRange>& ranges, int streams) {
  std::vector<std::vector<ByteRange>> per_stream(
      static_cast<std::size_t>(streams > 0 ? streams : 1));
  if (ranges.size() == 1) {
    const auto parts =
        partition_range(ranges.front(), streams, /*total_file_size=*/0);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      per_stream[i % per_stream.size()].push_back(parts[i]);
    }
  } else {
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      per_stream[i % per_stream.size()].push_back(ranges[i]);
    }
  }
  return per_stream;
}

}  // namespace gdmp::gridftp
