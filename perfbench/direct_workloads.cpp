// The two single-client workloads that call the library directly:
// compile-heavyhex (OpenQASM text -> transpile_cached for Eagle/Condor) and
// ideal-sim (noiseless exec::execute on wide backends, one request of each
// engine per round).

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/rng.hpp"
#include "qasm/parser.hpp"
#include "sim/statevector.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc::perfbench {

namespace {

/// The service-layer metrics of a workload that does not use the service.
void report_no_service(Report& rep) {
  const char* why = "workload calls the library directly, not the service";
  rep.absent("service.submit_us", "us", why);
  rep.absent("service.queue_ms_p50", "ms", why);
  rep.absent("service.run_ms_p50", "ms", why);
  rep.absent("service.batch_follower_ratio", "ratio", why);
}

// --- compile-heavyhex ------------------------------------------------------------

constexpr int kRoundSize = 5;
// The stream's gate structures (and which earlier structure a repeat
// takes) come from a fixed seed and its angles from the run's seed, so every
// seed compiles the same mix of circuit sizes and the latency distribution
// does not move with the seed.
constexpr std::uint64_t kStructureSeed = 0x5A17E;
// Widths, families and devices repeat every 20 fresh structures, that is
// every 25 requests. A run ends on such a cycle, so every run compiles the
// same mix and job_p50_ms falls on the same kind of request (cut anywhere,
// it flipped between two kinds ~25% apart).
constexpr std::uint64_t kStreamCycle = 25;
// Routing quality is scored on the stream's first 16 fresh structures.
constexpr int kQualitySuite = 16;
// Peak memory is read after a fixed number of requests: the transpile
// cache grows with the work done, so a time-bounded peak would grow with
// throughput.
constexpr std::uint64_t kRssAfter = 150;

transpiler::TranspileOptions fidelity_aware() {
  transpiler::TranspileOptions o;
  o.fidelity = 1;
  return o;
}

/// Fresh circuit number `f` of the stream: the family and width cycle
/// deterministically, the structure inside comes from the seed.
QuantumCircuit fresh_circuit(int f, std::uint64_t seed) {
  static const int kWidths[] = {8, 12, 16, 20, 24};
  const int n = kWidths[(f / 4) % 5];
  Rng rng(seed);
  std::vector<int> order(n);
  for (int q = 0; q < n; ++q) order[q] = q;
  for (int q = n - 1; q > 0; --q)
    std::swap(order[q], order[rng.index(q + 1)]);
  std::vector<double> angles(2 * n);
  for (double& a : angles) a = rng.uniform(-PI, PI);
  QuantumCircuit body(n);
  switch (f % 4) {
    case 0:
      body = random_htrzcx(n, 12 * n, seed);
      break;
    case 1:
      body = qft(n, angles);
      break;
    case 2:  // GHZ along a seeded qubit order
      body.h(order[0]);
      for (int q = 0; q + 1 < n; ++q) body.cx(order[q], order[q + 1]);
      break;
    default:  // hardware-efficient: RY/RZ layers, CX chain in seeded order
      for (int layer = 0; layer < 3; ++layer) {
        for (int q = 0; q < n; ++q) body.ry(rng.uniform(-PI, PI), q);
        for (int q = 0; q < n; ++q) body.rz(rng.uniform(-PI, PI), q);
        for (int q = 0; q + 1 < n; ++q) body.cx(order[q], order[q + 1]);
      }
  }
  return measured(body);
}

/// Every fifth fresh structure targets Condor, the rest Eagle.
bool on_condor(int f) { return f % 5 == 4; }

struct CompileRequest {
  std::string qasm;
  const arch::Backend* backend = nullptr;
  int logical_qubits = 0;
};

/// The seeded request stream: every fifth request repeats an earlier
/// structure with new angles; the rest are fresh, every fifth on Condor.
class CompileStream {
 public:
  CompileStream(std::uint64_t seed, const arch::Backend& eagle,
                const arch::Backend& condor)
      : seed_(seed), rng_(kStructureSeed), eagle_(&eagle), condor_(&condor) {}

  CompileRequest next() {
    const int i = index_++;
    QuantumCircuit qc(1);
    const arch::Backend* backend = nullptr;
    if (i % kRoundSize == kRoundSize - 1) {
      const auto& [earlier, b] = fresh_[rng_.index(fresh_.size())];
      qc = reangled(earlier, derive_stream_seed(seed_, 1u << 20 | i));
      backend = b;
    } else {
      const int f = static_cast<int>(fresh_.size());
      qc = reangled(fresh_circuit(f, derive_stream_seed(kStructureSeed, f)),
                    derive_stream_seed(seed_, f));
      backend = on_condor(f) ? condor_ : eagle_;
      fresh_.emplace_back(qc, backend);
    }
    return {qasm::emit(qc), backend, qc.num_qubits()};
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  const arch::Backend* eagle_;
  const arch::Backend* condor_;
  int index_ = 0;
  std::vector<std::pair<QuantumCircuit, const arch::Backend*>> fresh_;
};

}  // namespace

void run_compile_heavyhex(const Args& args, Report& report) {
  std::unique_ptr<arch::Backend> eagle, condor;
  std::vector<double> backend_ms, setups;
  const transpiler::TranspileOptions opts = fidelity_aware();
  transpiler::TranspileCache::global().clear();
  // Each set-up builds both devices and compiles a warm-up structure of its
  // own (so it misses the cache) for each; the first one's devices serve
  // the stream.
  SpreadSetups spread(args.seconds, [&](int i) {
    const auto t0 = Clock::now();
    auto e = std::make_unique<arch::Backend>(eagle_backend());
    auto c = std::make_unique<arch::Backend>(condor_backend());
    backend_ms.push_back(ms_since(t0));
    const std::string warm_qasm = qasm::emit(measured(ghz_along(8, i)));
    for (const arch::Backend* b : {e.get(), c.get()})
      transpiler::transpile_cached(qasm::parse(warm_qasm), *b, opts);
    setups.push_back(seconds_since(t0));
    if (!eagle) {
      eagle = std::move(e);
      condor = std::move(c);
    }
  });
  spread.elapsed();

  CompileStream stream(args.seed, *eagle, *condor);
  LoopStats loop;
  double busy_s = 0;  // time inside requests, checks excluded
  std::vector<Request> replayed;
  double rss_mb = 0;
  spread.restart();
  while (spread.elapsed() < args.seconds || rss_mb == 0 ||
         loop.attempted % kStreamCycle != 0) {
    double round_ms = 0;
    const std::uint64_t verified_before = loop.verified;
    for (int j = 0; j < kRoundSize; ++j) {
      const CompileRequest req = stream.next();
      ++loop.attempted;
      const auto t0 = Clock::now();
      const QuantumCircuit logical = qasm::parse(req.qasm);
      const transpiler::TranspileResult compiled =
          transpiler::transpile_cached(logical, *req.backend, opts);
      const double ms = ms_since(t0);
      busy_s += ms / 1e3;
      round_ms += ms;
      loop.job_ms.push_back(ms);
      ++loop.done;
      if (loop.attempted == kRssAfter) rss_mb = peak_rss_mb();
      const bool ok = logical.num_qubits() == req.logical_qubits &&
                      compiled.circuit.count(OpKind::Measure) ==
                          req.logical_qubits &&
                      compiled_legal(compiled.circuit, *req.backend);
      if (!report.check(ok, "compiled circuit " +
                                std::to_string(loop.attempted) +
                                " is not legal on " + req.backend->name())) {
        ++report.failed;
        continue;
      }
      ++loop.verified;
      if (replayed.size() < 10) {
        Request r;
        r.qasm = req.qasm;
        r.backend = req.backend;
        r.options.transpile_options = opts;
        r.compile_only = true;
        replayed.push_back(std::move(r));
      }
    }
    loop.iter_ms.push_back(round_ms);
    loop.round_done(loop.verified - verified_before, round_ms / 1e3);
  }
  spread.finish();
  report.metric("setup_s", median(setups), "s");
  loop.report(report, busy_s, args.trace);
  if (args.trace) report_no_service(report);
  report.metric("peak_rss_mb", rss_mb, "MB");

  std::vector<Request> suite(kQualitySuite);
  for (int f = 0; f < kQualitySuite; ++f) {
    suite[f].circuit =
        reangled(fresh_circuit(f, derive_stream_seed(kStructureSeed, f)),
                 derive_stream_seed(args.seed, f));
    suite[f].backend = on_condor(f) ? condor.get() : eagle.get();
    suite[f].options.transpile_options = opts;
  }
  report_routing_quality(suite, report);
  if (args.trace) {
    report.metric("arch.backend_build_ms", median(backend_ms), "ms");
    report_call_costs(report);
    replay(replayed, true, args, report);
  }
}

// --- ideal-sim ----------------------------------------------------------------------

namespace {

constexpr int kGhzWidth = 1000;
constexpr int kGhzShots = 4096;
constexpr int kShots = 1024;
constexpr int kRepDistance = 51;
constexpr int kRepCycles = 4;
constexpr int kDdBlocks = 6;  // 30 qubits: 40 take ~2 s a request
constexpr int kDdBlock = 5;
constexpr int kDenseWidth = 16;
constexpr int kDenseShots = 32;  // the array engine re-simulates every shot
// The two dense circuits share one fixed gate structure (their cost then
// does not vary with the seed, and their latencies form one mode, where
// job_p50_ms falls); the seed draws their angles.
constexpr std::uint64_t kDenseStructureSeed = 0xD3A5E;
// The decision-diagram circuit is fixed, angles included: its cost moves
// with its angles (by up to 1.6x between seeds), and it sets job_tail_ms.
// The seed draws its sampling.
constexpr std::uint64_t kSparseSeed = 0x5BA25E;

/// One request kind of the ideal-sim round and what its output must be.
struct IdealCase {
  std::string name;
  QuantumCircuit circuit{1};
  const arch::Backend* backend = nullptr;
  int shots = kShots;
  sim::Engine engine = sim::Engine::Auto;  // the engine it must run on
  bool known_defect = false;               // Eagle slice: expected to fail
  std::string exact_outcome;               // deterministic circuits
  std::vector<std::map<std::string, double>> block_dists;  // DD blocks
  std::vector<double> probs;  // dense: exact basis probabilities
};

/// Repetition-code memory: data on even positions of a line, syndrome
/// ancillas between them, seeded X errors between cycles. Noiseless, so
/// every syndrome and the final data readout are deterministic.
QuantumCircuit repetition_cycles(std::uint64_t seed, std::string* expected) {
  const int d = kRepDistance, n = 2 * d - 1;
  const int clbits = kRepCycles * (d - 1) + d;
  QuantumCircuit qc(n, clbits);
  Rng rng(seed);
  std::vector<int> data(d, 0);
  std::string bits(clbits, '0');  // clbit c is bits[clbits - 1 - c]
  int c = 0;
  for (int cycle = 0; cycle < kRepCycles; ++cycle) {
    const int flipped = static_cast<int>(rng.index(d));
    qc.x(2 * flipped);
    data[flipped] ^= 1;
    for (int a = 0; a + 1 < d; ++a) {
      qc.cx(2 * a, 2 * a + 1).cx(2 * a + 2, 2 * a + 1);
      qc.measure(2 * a + 1, c);
      qc.reset(2 * a + 1);
      if (data[a] ^ data[a + 1]) bits[clbits - 1 - c] = '1';
      ++c;
    }
  }
  for (int q = 0; q < d; ++q, ++c) {
    qc.measure(2 * q, c);
    if (data[q]) bits[clbits - 1 - c] = '1';
  }
  *expected = bits;
  return qc;
}

/// 30 qubits in 6 independent 5-qubit blocks of nearest-neighbour CXs with
/// T/RZ phases: sparse entanglement for the DD engine. Returns each block's
/// logical circuit for the exact reference.
QuantumCircuit sparse_blocks(std::uint64_t seed,
                             std::vector<QuantumCircuit>* blocks) {
  Rng rng(seed);
  const int n = kDdBlocks * kDdBlock;
  QuantumCircuit qc(n, n);
  for (int b = 0; b < kDdBlocks; ++b) {
    QuantumCircuit block(kDdBlock, kDdBlock);
    for (int q = 0; q < kDdBlock; ++q) block.ry(rng.uniform(-PI, PI), q);
    block.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
    for (int q = 0; q < kDdBlock; ++q) block.t(q).rz(rng.uniform(-PI, PI), q);
    block.cx(1, 0).h(1).cx(3, 2).h(3);
    for (const auto& op : block.ops()) {
      Operation shifted = op;
      for (int& q : shifted.qubits) q += b * kDdBlock;
      qc.append(shifted);
    }
    block.measure_all();
    blocks->push_back(std::move(block));
  }
  qc.measure_all();
  return qc;
}

/// Layered random circuit: an H/T/RZ on every qubit, then CXs on a random
/// pairing, per layer. Dense entanglement keeps it on the array engine.
QuantumCircuit random_layers(int n, int layers, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n);
  std::vector<int> order(n);
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < n; ++q) {
      const std::uint64_t kind = rng.index(3);
      if (kind == 0) qc.h(q);
      else if (kind == 1) qc.t(q);
      else qc.rz(rng.uniform(-PI, PI), q);
      order[q] = q;
    }
    for (int q = n - 1; q > 0; --q)
      std::swap(order[q], order[rng.index(q + 1)]);
    for (int q = 0; q + 1 < n; q += 2) qc.cx(order[q], order[q + 1]);
  }
  return qc;
}

/// Check one ideal-sim result against its case; returns false on failure.
bool check_ideal(const IdealCase& c, const exec::ExecuteResult& r,
                 Report& report) {
  const int clbits = c.circuit.num_clbits();
  if (!report.check(counts_well_formed(r.counts, c.shots, clbits),
                    c.name + ": malformed counts"))
    return false;
  if (c.engine != sim::Engine::Auto &&
      !report.check(r.engine == c.engine,
                    c.name + ": ran on " + sim::engine_name(r.engine) +
                        ", expected " + sim::engine_name(c.engine)))
    return false;
  if (!c.exact_outcome.empty())
    return report.check(r.counts.count(c.exact_outcome) == c.shots,
                        c.name + ": deterministic outcome not reproduced");
  if (c.name.rfind("ghz", 0) == 0) {
    // Support exactly {0...0, 1...1}; the split within 6 sigma of 1/2.
    const std::string zeros(clbits, '0'), ones(clbits, '1');
    const int k = r.counts.count(ones);
    const double sigma = std::sqrt(c.shots / 4.0);
    return report.check(
        r.counts.count(zeros) + k == c.shots &&
            std::abs(k - c.shots / 2.0) <= 6 * sigma,
        c.name + ": outside GHZ support or unbalanced");
  }
  if (!c.block_dists.empty()) {
    for (int b = 0; b < kDdBlocks; ++b) {
      sim::Counts marginal;
      for (const auto& [bits, n] : r.counts.histogram) {
        const std::string sub = bits.substr(
            clbits - (b + 1) * kDdBlock, kDdBlock);
        marginal.histogram[sub] += n;
        marginal.shots += n;
      }
      std::string detail;
      const bool ok = chi_square_ok(marginal, c.block_dists[b], &detail);
      if (!report.check(ok, c.name + ": block " + std::to_string(b) + " " +
                                detail))
        return false;
    }
    return true;
  }
  if (!c.probs.empty()) {
    // Mean probability of the sampled outcomes against its exact
    // expectation sum p^2, within 6 standard errors.
    double p2 = 0, p3 = 0, sampled = 0;
    for (double p : c.probs) {
      p2 += p * p;
      p3 += p * p * p;
    }
    for (const auto& [bits, n] : r.counts.histogram) {
      const double p = c.probs[std::stoull(bits, nullptr, 2)];
      if (!report.check(p > 0, c.name + ": sampled a zero-probability outcome"))
        return false;
      sampled += p * n;
    }
    sampled /= c.shots;
    const double se = std::sqrt(std::max(p3 - p2 * p2, 0.0) / c.shots);
    return report.check(std::abs(sampled - p2) <= 6 * se + 1e-12,
                        c.name + ": sampled probabilities off the exact "
                                 "distribution");
  }
  return true;
}

}  // namespace

void run_ideal_sim(const Args& args, Report& report) {
  std::unique_ptr<arch::Backend> line1000, line_rep, full_dd, full_dense, eagle;
  std::vector<double> backend_ms, setups;
  const noise::NoiseModel ideal;  // empty: noiseless execution
  const auto options = [&](int shots, std::uint64_t seed) {
    exec::ExecuteOptions o;
    o.shots = shots;
    o.seed = seed;
    o.noise_model = &ideal;
    return o;
  };
  transpiler::TranspileCache::global().clear();
  // Each set-up builds every backend and runs a warm-up request of its own
  // structure (so it misses the cache); the first one's backends serve the
  // loop.
  SpreadSetups spread(args.seconds, [&](int i) {
    const auto t0 = Clock::now();
    auto l1000 = std::make_unique<arch::Backend>(linear_backend(kGhzWidth));
    auto lrep = std::make_unique<arch::Backend>(
        linear_backend(2 * kRepDistance - 1));
    auto fdd = std::make_unique<arch::Backend>(full_backend(kDdBlocks * kDdBlock));
    auto fdense = std::make_unique<arch::Backend>(full_backend(kDenseWidth));
    auto e = std::make_unique<arch::Backend>(eagle_backend());
    backend_ms.push_back(ms_since(t0));
    const exec::ExecuteResult warm = exec::execute(
        measured(ghz_along(4, i)), *fdense, options(kShots, 0x5EED));
    report.check(warm.counts.shots == kShots, "warm-up request failed");
    setups.push_back(seconds_since(t0));
    if (!line1000) {
      line1000 = std::move(l1000);
      line_rep = std::move(lrep);
      full_dd = std::move(fdd);
      full_dense = std::move(fdense);
      eagle = std::move(e);
    }
  });
  spread.elapsed();

  // The round's requests and their exact references (untimed).
  std::vector<IdealCase> cases(6);
  cases[0].name = "ghz-1000";
  cases[0].circuit = measured(ghz(kGhzWidth));
  cases[0].backend = line1000.get();
  cases[0].shots = kGhzShots;
  cases[0].engine = sim::Engine::Stabilizer;
  cases[1].name = "repetition-code";
  cases[1].circuit = repetition_cycles(derive_stream_seed(args.seed, 1),
                                       &cases[1].exact_outcome);
  cases[1].backend = line_rep.get();
  cases[1].engine = sim::Engine::Stabilizer;
  std::vector<QuantumCircuit> blocks;
  cases[2].name = "sparse-30";
  cases[2].circuit = sparse_blocks(kSparseSeed, &blocks);
  cases[2].backend = full_dd.get();
  cases[2].engine = sim::Engine::DecisionDiagram;
  for (const auto& b : blocks) cases[2].block_dists.push_back(exact_distribution(b));
  for (int k : {3, 4}) {
    const QuantumCircuit dense =
        reangled(random_layers(kDenseWidth, 10, kDenseStructureSeed),
                 derive_stream_seed(args.seed, k));
    cases[k].name = "dense-16-" + std::to_string(k - 2);
    cases[k].circuit = measured(dense);
    cases[k].shots = kDenseShots;
    cases[k].backend = full_dense.get();
    cases[k].engine = sim::Engine::Statevector;
    sim::Statevector state(kDenseWidth);
    for (const auto& op : dense.ops()) state.apply(op);
    cases[k].probs = state.probabilities();
  }
  cases[5].name = "ghz-20-eagle";
  cases[5].circuit = measured(ghz(20));
  cases[5].backend = eagle.get();
  cases[5].known_defect = true;

  LoopStats loop;
  double busy_s = 0;  // time inside requests, checks excluded
  std::vector<Request> replayed;
  int defect_failed = 0, defect_done = 0;
  std::vector<std::vector<double>> kind_ms(cases.size());
  spread.restart();
  for (int round = 0; round == 0 || spread.elapsed() < args.seconds;
       ++round) {
    double round_ms = 0;
    const std::uint64_t verified_before = loop.verified;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const IdealCase& c = cases[k];
      const exec::ExecuteOptions o = options(
          c.shots, derive_stream_seed(args.seed, 100 + round * cases.size() + k));
      ++loop.attempted;
      const auto t0 = Clock::now();
      std::string error;
      exec::ExecuteResult result;
      try {
        result = exec::execute(c.circuit, *c.backend, o);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double ms = ms_since(t0);
      busy_s += ms / 1e3;
      round_ms += ms;
      kind_ms[k].push_back(ms);
      if (round == 0) {
        Request r;
        r.circuit = c.circuit;
        r.backend = c.backend;
        r.options = o;
        replayed.push_back(std::move(r));
      }
      if (!error.empty()) {
        if (c.known_defect && is_known_width_defect(error)) {
          ++defect_failed;  // documented heavy-hex defect, in ok_ratio
        } else {
          report.fail(c.name + " failed: " + error);
          ++report.failed;
        }
        continue;
      }
      ++loop.done;
      loop.job_ms.push_back(ms);
      if (c.known_defect) ++defect_done;
      if (check_ideal(c, result, report))
        ++loop.verified;
      else
        ++report.failed;
    }
    loop.iter_ms.push_back(round_ms);
    loop.round_done(loop.verified - verified_before, round_ms / 1e3);
  }
  spread.finish();
  report.metric("setup_s", median(setups), "s");
  loop.report(report, busy_s, args.trace);
  if (args.trace) report_no_service(report);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");  // before the checks
  report.note("known defect: " + std::to_string(defect_failed) + " of " +
              std::to_string(defect_failed + defect_done) +
              " noiseless GHZ-20 requests on Eagle failed");
  for (std::size_t k = 0; k < cases.size(); ++k)
    report.note("request " + cases[k].name + ": p10/p50/p90 " +
                std::to_string(percentile(kind_ms[k], 10)) + " / " +
                std::to_string(median(kind_ms[k])) + " / " +
                std::to_string(percentile(kind_ms[k], 90)) + " ms over " +
                std::to_string(kind_ms[k].size()));

  report_routing_quality(replayed, report);
  if (args.trace) {
    report.metric("arch.backend_build_ms", median(backend_ms), "ms");
    report_call_costs(report);
    replay(replayed, false, args, report);
  }
}

}  // namespace qtc::perfbench
