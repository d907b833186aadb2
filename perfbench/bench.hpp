#pragma once
// Shared pieces of the qtc benchmark: run arguments, the result record,
// statistics, the span tracer, circuit generators and output checks.
// See README.md in this directory for the workloads and metrics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "exec/execute.hpp"
#include "noise/noise_model.hpp"
#include "sim/result.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc::perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span dump path (trace runs only; may be empty)
};

/// What one run reports: the JSON line's fields plus human-readable notes.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric the workload does not exercise: reported as 0 with
  /// the reason in the notes.
  void absent(const std::string& name, const std::string& unit,
              const std::string& why);
  void note(const std::string& line);
  /// Record a failed output check; the run then reports correct=false.
  void fail(const std::string& what);
  /// Check `ok`, recording `what` as a failure when it does not hold.
  bool check(bool ok, const std::string& what);

  bool correct() const { return failures_ == 0; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Print the notes and every metric, then, as the last stdout line, the
  /// JSON object with exactly the metrics of `json_set` (name, unit). A
  /// missing metric or unit mismatch is a failed check. Returns correct().
  bool print(const std::vector<std::pair<std::string, std::string>>& json_set);

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
  int failures_ = 0;
};

// --- time and statistics ----------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// Set-ups are spread over a run: kSetupsPerEpisode at the start of each
/// of kEpisodes equal slices of the timed loop (the service workloads run
/// each slice on the service its last set-up started), so that one slow
/// stretch of a shared host does not decide setup_s, the median of them
/// all.
inline constexpr int kEpisodes = 4;
inline constexpr int kSetupsPerEpisode = 3;

/// Runs the set-ups due as the loop goes and keeps the loop's clock, which
/// leaves the set-ups out.
class SpreadSetups {
 public:
  SpreadSetups(double seconds, std::function<void(int)> setup)
      : seconds_(seconds), setup_(std::move(setup)) {}
  /// Restart the loop's clock (after untimed preparation).
  void restart() {
    start_ = Clock::now();
    setup_s_ = 0;
  }
  /// Run the set-ups now due; returns the loop's seconds so far.
  double elapsed() {
    for (;;) {
      const double t = seconds_since(start_) - setup_s_;
      if (done_ == kEpisodes * kSetupsPerEpisode ||
          t < (done_ / kSetupsPerEpisode) * seconds_ / kEpisodes)
        return t;
      const auto t0 = Clock::now();
      setup_(done_++);
      setup_s_ += seconds_since(t0);
    }
  }
  /// Run the set-ups a short loop did not reach.
  void finish() {
    while (done_ < kEpisodes * kSetupsPerEpisode) setup_(done_++);
  }

 private:
  double seconds_;
  std::function<void(int)> setup_;
  Clock::time_point start_ = Clock::now();
  double setup_s_ = 0;
  int done_ = 0;
};

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double peak_rss_mb();

/// What a closed loop measured; every workload reports it the same way.
struct LoopStats {
  std::vector<double> job_ms;   // latency of each completed job
  std::vector<double> iter_ms;  // latency of each client iteration
  std::vector<double> round_rate;  // verified jobs per second, per round
  std::uint64_t attempted = 0, done = 0, verified = 0;
  transpiler::TranspileCacheStats cache_before =
      transpiler::TranspileCache::global().stats();

  /// Close a round that verified `jobs` jobs in `seconds`.
  void round_done(std::uint64_t jobs, double seconds) {
    round_rate.push_back(static_cast<double>(jobs) / seconds);
  }
  /// jobs_per_s (median over rounds of the round's verified jobs per
  /// second; the notes add the whole-run rate over `seconds`), job_p50_ms,
  /// job_tail_ms (p90, with its sample count in the notes), iter_p50_ms and
  /// ok_ratio; traced runs add transpiler.cache_hit_ratio.
  void report(Report& rep, double seconds, bool trace) const;
};

// --- tracing ----------------------------------------------------------------

/// In-memory spans recorded around the benchmark's own calls into each
/// module. Spans of one request share `request`; `parent` names the span
/// that caused this one. A `shadow` span re-does work that another span
/// already contains (it is timed for attribution only), so self times and
/// layer sums skip it.
class Tracer {
 public:
  struct Span {
    std::string name;
    int request = 0;
    int parent = -1;
    double start_us = 0;
    double end_us = 0;
    bool shadow = false;
    std::string note;
    double us() const { return end_us - start_us; }
  };

  int open(const std::string& name, int request, int parent,
           bool shadow = false);
  void close(int span, const std::string& note = "");
  const std::vector<Span>& spans() const { return spans_; }
  /// Write the spans as JSON lines; false when the file cannot be written.
  bool dump(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Nanoseconds per call of `fn`, median of several batches.
double ns_per_call(const std::function<void()>& fn, int calls_per_batch);

// --- circuits -----------------------------------------------------------------

/// Random H/T/RZ/CX body on n qubits (no measurements).
QuantumCircuit random_htrzcx(int n, int gates, std::uint64_t seed);
QuantumCircuit qft(int n, const std::vector<double>& input_angles);
QuantumCircuit ghz(int n);
/// GHZ prepared along the `index`-th permutation (in lexicographic order)
/// of the qubits: a structure of its own for each index below n!.
QuantumCircuit ghz_along(int n, int index);
/// Hardware-efficient RY ansatz with full CX entanglement (Aqua's RY form).
QuantumCircuit ry_full(int n, int depth, const std::vector<double>& angles);
/// Copy `body` into an n-qubit, n-clbit circuit and measure every qubit.
QuantumCircuit measured(const QuantumCircuit& body);
/// Same ops with every rotation angle replaced from `rng` (structure kept).
QuantumCircuit reangled(const QuantumCircuit& circuit, std::uint64_t seed);

arch::Backend linear_backend(int n);
arch::Backend full_backend(int n);
arch::Backend eagle_backend();
arch::Backend condor_backend();

// --- output checks ------------------------------------------------------------

/// Shot total and bitstring width of a result.
bool counts_well_formed(const sim::Counts& counts, int shots, int clbits);
/// Compiled circuit is legal on the backend: every 2-qubit gate on a
/// coupler and, on ECR/RZ/SX backends (where the transpiler always lowers
/// to the native basis), every gate native.
bool compiled_legal(const QuantumCircuit& compiled,
                    const arch::Backend& backend);
/// Exact noisy clbit distribution of a compiled circuit under `model`,
/// by density-matrix evolution of its active qubits (readout included).
std::map<std::string, double> exact_noisy_distribution(
    const QuantumCircuit& compiled, const noise::NoiseModel& model);
/// Exact noiseless clbit distribution of a small logical circuit whose
/// measurements are all final.
std::map<std::string, double> exact_distribution(const QuantumCircuit& logical);
/// Pearson chi-square goodness of fit, bins with expectation < 5 merged.
/// Returns true when the statistic is below the 1e-6 upper quantile.
bool chi_square_ok(const sim::Counts& counts,
                   const std::map<std::string, double>& expected,
                   std::string* detail);
bool same_counts(const sim::Counts& a, const sim::Counts& b);

/// The failure the heavy-hex slices are known to hit today: a 127-qubit
/// compiled circuit reaching the array engine.
bool is_known_width_defect(const std::string& error);

// --- workloads ------------------------------------------------------------------

void run_hybrid_qx4(const Args& args, Report& report);
void run_compile_heavyhex(const Args& args, Report& report);
void run_noisy_wide(const Args& args, Report& report);
void run_ideal_sim(const Args& args, Report& report);

// --- traced replay ----------------------------------------------------------------

/// One request of a workload, replayable untraced and through the
/// decomposed layer pipeline. Its circuit arrives as OpenQASM text, as a
/// QBIN payload, or as an in-memory circuit, in that order of precedence.
struct Request {
  std::string qasm;
  std::vector<std::uint8_t> payload;
  QuantumCircuit circuit{1};
  const arch::Backend* backend = nullptr;
  exec::ExecuteOptions options;
  bool compile_only = false;  // parse + transpile_cached, no execution
};

/// Compile every request of `suite` (cache-served, which is bitwise equal
/// to a cold transpile) and report swaps_added and neg_log_success over it.
void report_routing_quality(const std::vector<Request>& suite, Report& report);

/// Replay `requests` untraced (exec::execute, or transpile_cached when
/// compile_only) and traced through the layer functions in exec::execute's
/// order; check the two agree bitwise and report the per-layer metrics the
/// spans cover. `cold_cache` clears the transpile cache before each pass.
void replay(const std::vector<Request>& requests, bool cold_cache,
            const Args& args, Report& report);
/// Metrics common to every traced run: per-call configuration costs.
void report_call_costs(Report& report);

/// Canonical list of per-layer metrics (name, unit), for completeness checks.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace qtc::perfbench
