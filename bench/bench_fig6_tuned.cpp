// FIG6 — Figure 6 of the paper: the same sweep as Figure 5 but with TCP
// buffers tuned to 1 MB on both ends.
//
// Expected shape (paper): "results are similar, except that peak
// performance is achieved with just 3 streams."
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace gdmp;
  using namespace gdmp::bench;

  const bool smoke = smoke_mode(argc, argv);
  BenchReport report("fig6_tuned", smoke);
  const std::vector<int> streams =
      smoke ? std::vector<int>{1} : std::vector<int>{1, 2, 3, 4, 5,
                                                     6, 7, 8, 9, 10};
  std::vector<std::pair<const char*, Bytes>> files = {
      {"1 MB", 1 * kMiB},
      {"25 MB", 25 * kMiB},
      {"50 MB", 50 * kMiB},
      {"100 MB", 100 * kMiB},
  };
  if (smoke) files.resize(1);

  WanBenchConfig config;
  std::printf(
      "FIG6: transfer rate (Mbit/s) vs parallel streams, 1 MB tuned "
      "buffers\n"
      "link: 45 Mbit/s, RTT 125 ms, %.0f Mbit/s cross traffic each way\n\n",
      config.cross_traffic / 1e6);
  print_series_header("rate [Mbit/s]", streams);

  for (const auto& [label, size] : files) {
    std::printf("%-10s", label);
    for (const int n : streams) {
      config.seed = static_cast<std::uint64_t>(size) ^ (n * 1409);
      const TransferSample sample = run_wan_get(config, size, n, 1 * kMiB);
      std::printf(" %7.2f", sample.ok ? sample.mbps : -1.0);
      std::fflush(stdout);
      report.add({{"file_mib", static_cast<long long>(size / kMiB)},
                  {"streams", n},
                  {"ok", sample.ok},
                  {"mbps", sample.mbps},
                  {"seconds", sample.seconds},
                  {"events", static_cast<unsigned long long>(sample.events)},
                  {"segments", static_cast<long long>(sample.segments)}});
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper reference: peak reached with only 2-3 streams; additional\n"
      "streams gain nothing and large-file rates stay near the plateau.\n");
  return 0;
}
