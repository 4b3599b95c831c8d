#include "gridftp/block_stream.h"

#include <algorithm>

namespace gdmp::gridftp {

// gdmp-lint: hot-path — parser callbacks: runs once per delivered data segment
void BlockStreamParser::feed_data(std::span<const std::uint8_t> data) {
  while (!data.empty()) {
    if (state_ != State::kHeader) {
      fail("unexpected real bytes in state != header");
      return;
    }
    const std::size_t want = BlockHeader::kWireSize - header_buffer_.size();
    const std::size_t take = std::min(want, data.size());
    header_buffer_.insert(header_buffer_.end(), data.begin(),
                          data.begin() + static_cast<std::ptrdiff_t>(take));
    data = data.subspan(take);
    if (header_buffer_.size() < BlockHeader::kWireSize) return;

    const auto header = BlockHeader::decode(header_buffer_);
    header_buffer_.clear();
    if (!header) {
      fail("undecodable block header");
      return;
    }
    current_ = *header;
    if (current_.is_eod()) {
      state_ = State::kDone;
      eod_ = true;
      if (on_eod) on_eod();
      if (!data.empty()) fail("bytes after end-of-data");
      return;
    }
    if (current_.length < 0) {
      fail("negative block length");
      return;
    }
    remaining_ = current_.length;
    if (on_block_begin) on_block_begin(current_);
    if (remaining_ == 0) {
      if (on_block_end) on_block_end(current_);
      state_ = State::kHeader;
    } else {
      state_ = State::kPayload;
    }
  }
}

// gdmp-lint: hot-path — parser callbacks: runs once per delivered payload run
void BlockStreamParser::feed_synthetic(Bytes n) {
  while (n > 0) {
    if (state_ != State::kPayload) {
      fail("synthetic bytes outside a payload run");
      return;
    }
    const Bytes take = std::min(n, remaining_);
    remaining_ -= take;
    n -= take;
    if (on_payload) on_payload(current_, take);
    if (remaining_ == 0) {
      state_ = State::kHeader;
      if (on_block_end) on_block_end(current_);
    }
  }
}

void BlockStreamParser::fail(const std::string& message) {
  if (state_ == State::kFailed) return;
  state_ = State::kFailed;
  if (on_error) {
    on_error(make_error(ErrorCode::kInvalidArgument,
                        "data-channel framing: " + message));
  }
}

// gdmp-lint: hot-path — records every payload run and every FlowDone stripe
void RangeSet::add(Bytes offset, Bytes length) {
  if (length <= 0) return;
  ByteRange incoming{offset, length};
  std::vector<ByteRange> merged;
  merged.reserve(ranges_.size() + 1);
  bool inserted = false;
  for (const ByteRange& r : ranges_) {
    if (r.offset + r.length < incoming.offset) {
      merged.push_back(r);
    } else if (incoming.offset + incoming.length < r.offset) {
      if (!inserted) {
        merged.push_back(incoming);
        inserted = true;
      }
      merged.push_back(r);
    } else {
      // Overlapping or adjacent: grow the incoming range.
      const Bytes lo = std::min(incoming.offset, r.offset);
      const Bytes hi =
          std::max(incoming.offset + incoming.length, r.offset + r.length);
      incoming.offset = lo;
      incoming.length = hi - lo;
    }
  }
  if (!inserted) merged.push_back(incoming);
  ranges_ = std::move(merged);
}

Bytes RangeSet::total_bytes() const noexcept {
  Bytes total = 0;
  for (const ByteRange& r : ranges_) total += r.length;
  return total;
}

bool RangeSet::covers(Bytes offset, Bytes length) const noexcept {
  if (length <= 0) return true;
  for (const ByteRange& r : ranges_) {
    if (r.offset <= offset && offset + length <= r.offset + r.length) {
      return true;
    }
  }
  return false;
}

std::vector<ByteRange> RangeSet::missing_within(Bytes offset,
                                                Bytes length) const {
  std::vector<ByteRange> out;
  out.reserve(ranges_.size() + 1);
  Bytes cursor = offset;
  const Bytes end = offset + length;
  for (const ByteRange& r : ranges_) {
    if (r.offset + r.length <= cursor) continue;
    if (r.offset >= end) break;
    if (r.offset > cursor) out.push_back(ByteRange{cursor, r.offset - cursor});
    cursor = std::max(cursor, r.offset + r.length);
    if (cursor >= end) return out;
  }
  if (cursor < end) out.push_back(ByteRange{cursor, end - cursor});
  return out;
}

}  // namespace gdmp::gridftp
