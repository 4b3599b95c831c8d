// Hierarchical Resource Manager interface (§4.4, [Bern00]).
//
// GDMP talks to mass storage through plug-ins. The paper describes two:
// the original *staging script* solution and the newer *HRM* API "which
// provides a common interface to be used to access different Mass Storage
// Systems" and "a cleaner interface as compared to the staging script
// solution". Both are one StorageBackend against the same simulated MSS,
// differing only in per-request delay, so their overheads can be compared
// (the script path pays a process-spawn latency per request).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/simulator.h"
#include "sim/timer_queue.h"
#include "storage/mss.h"

namespace gdmp::storage {

/// One MSS plug-in flavour: its name and the fixed cost each request pays
/// before it reaches the MSS.
struct MssPlugin {
  const char* name;
  SimDuration request_delay;
};

/// HRM plug-in: direct API calls onto the MSS (models the CORBA-based HRM),
/// one RPC round trip per request.
inline constexpr MssPlugin kHrmPlugin{"hrm", 5 * kMillisecond};
/// Staging-script plug-in: each request forks an external stager process
/// (models the pre-HRM GDMP deployment; noticeably higher per-request cost).
inline constexpr MssPlugin kScriptStagerPlugin{"script", 400 * kMillisecond};

/// The staging interface used by the GDMP Storage Manager Service: every
/// request waits out the plug-in's delay, then goes to the MSS.
class StorageBackend {
 public:
  using StageCallback = MassStorageSystem::StageCallback;
  using ArchiveCallback = MassStorageSystem::ArchiveCallback;

  StorageBackend(sim::Simulator& simulator, MassStorageSystem& mss,
                 MssPlugin plugin)
      : mss_(mss), plugin_(plugin), pending_(simulator) {}

  /// Fails every parked completion (kUnavailable): request-delay timers
  /// are silenced on teardown, so nobody else would fire them.
  ~StorageBackend();

  void stage_to_disk(const std::string& path, DiskPool& pool,
                     StageCallback done);
  void archive_file(const FileInfo& info, ArchiveCallback done);
  bool in_archive(std::string_view path) const {
    return mss_.in_archive(path);
  }
  const char* name() const noexcept { return plugin_.name; }

 private:
  struct StageJob {
    std::string path;
    DiskPool* pool;
    StageCallback done;
  };
  struct ArchiveJob {
    FileInfo info;
    ArchiveCallback done;
  };

  MassStorageSystem& mss_;
  MssPlugin plugin_;
  /// Parked requests, keyed so the timer closures carry no owning state and
  /// the destructor can fail whatever is still waiting.
  std::uint64_t next_job_ = 0;
  std::map<std::uint64_t, StageJob> staging_;
  std::map<std::uint64_t, ArchiveJob> archiving_;
  /// All in-flight request-delay completions share one re-armed kernel
  /// timer; the queue's sentinel silences armed events on teardown.
  sim::TimerQueue pending_;
};

}  // namespace gdmp::storage
