// gdmp_perfbench: runs one benchmark workload for a fixed host-time budget.
//
//   gdmp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--span-file <path>]
//
// One untimed warm-up repetition runs first. Then the workload repeats
// until the budget is spent (at least three timed repetitions). With
// --trace 1 the budget is split: untraced repetitions first, then traced
// ones with host spans and the sim-time obs::Tracer on; the spans of the
// last traced repetition go to --span-file.
//
// Every repetition of one seed must reproduce the warm-up's simulated
// outcomes and per-layer counts exactly, traced or not; a second seed
// must change the generated inputs. Both are output checks.
//
// The last line of stdout is one JSON object with the raw per-repetition
// host times, the simulated outcomes, the counts and the check tallies;
// perfbench/run.py turns it into the benchmark's metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

const Workload kWorkloads[] = {
    {"wan_sweep", run_wan_sweep, wan_sweep_digest},
    {"fluid_grid", run_fluid_grid, fluid_grid_digest},
    {"replication", run_replication, replication_digest},
    {"catalog_mix", run_catalog_mix, catalog_mix_digest},
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + '"';
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += quote(name) + ": " + num(value);
  }
  return out + "}";
}

/// The deterministic part of a repetition: simulated outcomes and counts.
std::map<std::string, double> outcomes(const RepResult& rep) {
  std::map<std::string, double> out = rep.counts;
  out["ops"] = static_cast<double>(rep.ops);
  out["sim_makespan_s"] = rep.sim_makespan_s;
  out["sim_goodput_mbps"] = rep.sim_goodput_mbps;
  out["sim_op_p50_s"] = rep.sim_op_p50_s;
  out["sim_op_p99_s"] = rep.sim_op_p99_s;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Fixed calibration work: random read-modify-write over a 16 MiB table
/// plus integer arithmetic, the same mix of cache misses and ALU work the
/// simulator does. Returns its CPU seconds.
double calibrate() {
  static std::vector<std::uint32_t> table(1u << 22, 1);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const std::int64_t start = cpu_ns();
  for (int i = 0; i < 4'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[(x >> 40) & ((1u << 22) - 1)] += static_cast<std::uint32_t>(x);
  }
  const double s = cpu_s_since(start);
  if (table[x & 0xff] == 0xdeadbeef) std::fputs("", stderr);  // keep the work
  return s;
}

int usage() {
  std::fprintf(stderr,
               "usage: gdmp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-file <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, span_file;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::string_view(value) == "1";
    } else if (flag == "--span-file") {
      span_file = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || seconds <= 0) return usage();

  std::int64_t checks = 0, failed = 0;
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  };
  const auto absorb = [&](const RepResult& rep) {
    checks += rep.checks;
    failed += rep.failed;
    for (const auto& f : rep.failures) {
      if (failures.size() < 16) failures.push_back(f);
    }
  };

  check(workload->input_digest(seed) != workload->input_digest(seed + 1),
        "seed " + std::to_string(seed + 1) + " generates the same inputs");

  // Warm-up: fills allocator pools and page cache; its outcomes are the
  // reference every later repetition must reproduce.
  RepResult reference = workload->run(seed, false);
  complete_counts(reference.counts);
  absorb(reference);
  const std::map<std::string, double> expected = outcomes(reference);

  std::vector<double> setup_s, run_s, calibration_s, traced_setup_s,
      traced_run_s, traced_calibration_s;
  RepResult last_traced;
  const std::int64_t start = host_ns();
  const double untraced_budget = trace ? seconds / 2 : seconds;
  // Each repetition is bracketed by calibration runs (the one after a
  // repetition doubles as the one before the next); their mean is the
  // host's speed while the repetition ran.
  double cal_before = calibrate();
  const auto timed_rep = [&](bool traced) {
    if (traced) {
      HostTrace::get().clear();
      HostTrace::get().set_enabled(true);
    }
    RepResult rep = workload->run(seed, traced);
    HostTrace::get().set_enabled(false);
    const double cal_after = calibrate();
    (traced ? traced_calibration_s : calibration_s)
        .push_back(0.5 * (cal_before + cal_after));
    cal_before = cal_after;
    complete_counts(rep.counts);
    absorb(rep);
    check(outcomes(rep) == expected,
          std::string(traced ? "traced" : "untraced") +
              " repetition differs from the warm-up in its simulated "
              "outcomes or counts");
    (traced ? traced_setup_s : setup_s).push_back(rep.setup_s);
    (traced ? traced_run_s : run_s).push_back(rep.run_s);
    if (traced) last_traced = std::move(rep);
  };
  while (run_s.size() < 3 || host_s_since(start) < untraced_budget) {
    timed_rep(false);
  }
  if (trace) {
    while (traced_run_s.size() < 3 || host_s_since(start) < seconds) {
      timed_rep(true);
    }
    if (!span_file.empty() &&
        !HostTrace::get().write_json(span_file, workload->name)) {
      check(false, "cannot write span file " + span_file);
    }
  }

  for (const auto& f : failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  const auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (const double v : values) {
      if (out.size() > 1) out += ", ";
      out += num(v);
    }
    return out + "]";
  };
  std::string failure_list = "[";
  for (const auto& f : failures) {
    if (failure_list.size() > 1) failure_list += ", ";
    failure_list += quote(f);
  }
  failure_list += "]";

  std::string json = "{\"workload\": " + quote(workload->name);
  json += ", \"seed\": " + std::to_string(seed);
  json += ", \"trace\": " + std::to_string(trace ? 1 : 0);
  json += ", \"setup_s\": " + list(setup_s);
  json += ", \"run_s\": " + list(run_s);
  json += ", \"calibration_s\": " + list(calibration_s);
  json += ", \"traced_setup_s\": " + list(traced_setup_s);
  json += ", \"traced_run_s\": " + list(traced_run_s);
  json += ", \"traced_calibration_s\": " + list(traced_calibration_s);
  json += ", \"peak_rss_mb\": " + num(peak_rss_mb());
  json += ", \"ops\": " + std::to_string(reference.ops);
  json += ", \"checks\": " + std::to_string(checks);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"failures\": " + failure_list;
  json += ", \"outcomes\": " + object(expected);
  json += ", \"sim_spans\": " + object(last_traced.sim_spans);
  json += ", \"host_spans\": " + std::to_string(HostTrace::get().records().size());
  std::printf("%s}\n", json.c_str());
  return failed == 0 ? 0 : 1;
}
