// qtc benchmark program. One run = one workload for a fixed time:
//
//   qtc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <spans.jsonl>]
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics from a traced replay. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}; the exit code is non-zero
// when any output check failed. See README.md for workloads and metrics.

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "sim/simd.hpp"

extern char** environ;

namespace {

using namespace qtc::perfbench;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"},      {"job_tail_ms", "ms"},
    {"iter_p50_ms", "ms"},     {"ok_ratio", "ratio"},
    {"swaps_added", "count"},  {"neg_log_success", "nats"},
    {"peak_rss_mb", "MB"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: qtc_perfbench --workload "
               "{hybrid-qx4|compile-heavyhex|noisy-wide|ideal-sim} --seed N "
               "--seconds S --trace {0|1} [--trace-out FILE]\n",
               why);
  return 2;
}

/// Milliseconds for a fixed single-threaded integer loop: a reference for
/// how fast the host ran this process, to tell host drift from a change.
double host_reference_ms() {
  const auto t0 = Clock::now();
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 50'000'000; ++i) x = x * 6364136223846793005ULL + 1;
  return ms_since(t0);
}

/// The run record: what a reader needs to know to compare two runs.
void print_record(const Args& args) {
  std::string env;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "QTC_", 4) == 0) env += std::string(env.empty() ? "" : " ") + *e;
  const char* isa =
      qtc::sim::simd::isa_name(qtc::sim::simd::select());
  std::printf(
      "record: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "simd_isa=%s build_type=%s google_benchmark=not-used qtc_env=[%s] "
      "baseline=%s host_reference_ms=%.1f\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      isa, QTC_BENCH_BUILD_TYPE, env.c_str(),
      env.empty() ? "yes" : "no (QTC_* set: not a baseline run)",
      host_reference_ms());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || args.workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");

  void (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "hybrid-qx4") run = run_hybrid_qx4;
  if (args.workload == "compile-heavyhex") run = run_compile_heavyhex;
  if (args.workload == "noisy-wide") run = run_noisy_wide;
  if (args.workload == "ideal-sim") run = run_ideal_sim;
  if (!run) return usage(("unknown workload " + args.workload).c_str());

  print_record(args);
  Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    report.fail(std::string("workload threw: ") + e.what());
  }
  // The JSON carries one metric set: end-to-end untraced, per-layer traced.
  return report.print(args.trace ? per_layer_metrics() : kEndToEnd) ? 0 : 1;
}
