#include "storage/hrm.h"

namespace gdmp::storage {

StorageBackend::~StorageBackend() {
  // Every parked stage/archive completion fires exactly once even when the
  // backend dies mid-delay.
  const std::string who = std::string(plugin_.name) + " backend";
  auto stages = std::move(staging_);
  for (auto& [id, job] : stages) {
    job.done(make_error(ErrorCode::kUnavailable,
                        who + " destroyed while staging " + job.path));
  }
  auto archives = std::move(archiving_);
  for (auto& [id, job] : archives) {
    job.done(make_error(ErrorCode::kUnavailable,
                        who + " destroyed while archiving " + job.info.path));
  }
}

void StorageBackend::stage_to_disk(const std::string& path, DiskPool& pool,
                                   StageCallback done) {
  const std::uint64_t id = next_job_++;
  staging_.emplace(id, StageJob{path, &pool, std::move(done)});
  // The timer closure holds only the id: teardown fails the parked job and
  // the armed event is silenced by the queue's sentinel.
  // gdmp-lint: owned-callback (closure owned by pending_, a member destroyed with *this)
  pending_.schedule(plugin_.request_delay, [this, id] {
    auto node = staging_.extract(id);
    if (node.empty()) return;
    mss_.stage(node.mapped().path, *node.mapped().pool,
               std::move(node.mapped().done));
  });
}

void StorageBackend::archive_file(const FileInfo& info, ArchiveCallback done) {
  const std::uint64_t id = next_job_++;
  archiving_.emplace(id, ArchiveJob{info, std::move(done)});
  // gdmp-lint: owned-callback (closure owned by pending_, a member destroyed with *this)
  pending_.schedule(plugin_.request_delay, [this, id] {
    auto node = archiving_.extract(id);
    if (node.empty()) return;
    mss_.archive(node.mapped().info, std::move(node.mapped().done));
  });
}

}  // namespace gdmp::storage
