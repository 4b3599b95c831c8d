#include "gdmp/types.h"

namespace gdmp::core {

void encode_published_file(wire::Writer& w, const PublishedFile& file) {
  w.str(file.lfn);
  w.str(file.local_path);
  w.i64(file.size);
  w.u64(file.content_seed);
  w.u32(file.crc);
  w.i64(file.modify_time);
  w.str(file.file_type);
  w.u32(static_cast<std::uint32_t>(file.extra.size()));
  for (const auto& [key, value] : file.extra) {
    w.str(key);
    w.str(value);
  }
}

PublishedFile decode_published_file(wire::Reader& r) {
  PublishedFile file;
  file.lfn = r.str();
  file.local_path = r.str();
  file.size = r.i64();
  file.content_seed = r.u64();
  file.crc = r.u32();
  file.modify_time = r.i64();
  file.file_type = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    file.extra[std::move(key)] = r.str();
  }
  return file;
}

}  // namespace gdmp::core
