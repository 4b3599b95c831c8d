#include "rpc/message.h"

#include <cstring>

#include "common/wire.h"

namespace gdmp::rpc {

std::vector<std::uint8_t> encode_frame(const RpcMessage& message) {
  wire::Writer body;
  body.u8(static_cast<std::uint8_t>(message.kind));
  body.u64(message.request_id);
  body.str(message.method);
  body.u8(message.status_code);
  body.str(message.status_message);
  body.bytes(message.payload);

  wire::Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  auto out = frame.take();
  const auto& inner = body.buffer();
  out.reserve(out.size() + inner.size());
  out.insert(out.end(), inner.begin(), inner.end());
  return out;
}

Status FrameDecoder::feed(std::span<const std::uint8_t> data,
                          const std::function<void(RpcMessage)>& sink) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  // Extract every complete frame before dispatching any of them: a sink
  // callback may destroy this decoder's owner (completing a call can drop
  // the whole client), so no member may be touched after the first sink().
  std::vector<RpcMessage> ready;
  Status status = Status::ok();
  std::size_t cursor = 0;
  while (buffer_.size() - cursor >= 4) {
    std::uint32_t length = 0;
    std::memcpy(&length, buffer_.data() + cursor, 4);
    if (length > kMaxFrame) {
      status = make_error(ErrorCode::kInvalidArgument,
                          "oversized RPC frame: " + std::to_string(length));
      break;
    }
    if (buffer_.size() - cursor - 4 < length) break;
    wire::Reader r(std::span<const std::uint8_t>(buffer_.data() + cursor + 4,
                                           length));
    RpcMessage message;
    message.kind = static_cast<MessageKind>(r.u8());
    message.request_id = r.u64();
    message.method = r.str();
    message.status_code = r.u8();
    message.status_message = r.str();
    message.payload = r.bytes();
    if (!r.ok()) {
      status = make_error(ErrorCode::kInvalidArgument, "malformed RPC frame");
      break;
    }
    cursor += 4 + length;
    ready.push_back(std::move(message));
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(cursor));
  for (RpcMessage& message : ready) sink(std::move(message));
  return status;
}

}  // namespace gdmp::rpc
