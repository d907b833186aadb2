// E3 / Fig. 3: matrix vs. decision diagram. The paper shows a 3-qubit
// operation as an exponentially large matrix and as a compact DD.
// Reproduction: print the dense matrix of a 3-qubit computation next to its
// DD node count, then sweep structured/random circuits over n to show the
// 4^n-entries-vs-few-nodes gap, and time DD construction.
// The artifact prints to stderr so stdout stays machine-readable JSON for
// the CI benchmark artifact (BENCH_dd.json).

#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "aqua/algorithms.hpp"
#include "core/config.hpp"
#include "dd/simulator.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qtc;

/// Deep (>=min_gates) but structurally compact 16-qubit workload: GHZ
/// build/unbuild blocks with per-block rotation angles, so each block's gate
/// and state nodes become garbage once the block completes.
QuantumCircuit deep_compact_circuit(int n, int min_gates) {
  QuantumCircuit qc(n, n);
  int block = 0;
  while (static_cast<int>(qc.size()) < min_gates) {
    const double theta = 0.1 + 1e-3 * block++;
    qc.h(0);
    for (int i = 1; i < n; ++i) qc.cx(i - 1, i);
    for (int i = 0; i < n; ++i) qc.rz(theta + 0.01 * i, i);
    for (int i = 0; i < n; ++i) qc.rz(-(theta + 0.01 * i), i);
    for (int i = n - 1; i >= 1; --i) qc.cx(i - 1, i);
    qc.h(0);
  }
  return qc;
}

/// Set QTC_DD_GC_THRESHOLD for the enclosed scope (0 disables collection).
class ScopedGcThreshold {
 public:
  explicit ScopedGcThreshold(std::size_t threshold) {
    setenv("QTC_DD_GC_THRESHOLD", std::to_string(threshold).c_str(), 1);
    config::reload();
  }
  ~ScopedGcThreshold() {
    unsetenv("QTC_DD_GC_THRESHOLD");
    config::reload();
  }
};

QuantumCircuit ghz_like3() {
  // A 3-qubit computation in the spirit of Fig. 3's example.
  QuantumCircuit qc(3);
  qc.h(2).cx(2, 1).cx(1, 0).t(0);
  return qc;
}

void print_artifact() {
  std::fprintf(stderr,"=== E3 (Fig. 3): dense matrix vs. decision diagram ===\n\n");
  const QuantumCircuit qc = ghz_like3();
  dd::DDSimulator sim;
  auto handle = sim.unitary(qc);
  const Matrix dense = handle.package->to_matrix(handle.unitary);
  std::fprintf(stderr,"3-qubit computation (h q2; cx q2,q1; cx q1,q0; t q0):\n\n");
  std::fprintf(stderr,"(a) dense 2^3 x 2^3 matrix, %zu entries:\n%s\n",
              dense.rows() * dense.cols(), dense.to_string(2).c_str());
  std::fprintf(stderr,"(b) decision diagram: %zu nodes\n\n",
              handle.package->node_count(handle.unitary));

  std::fprintf(stderr,"Scaling sweep, matrix-DD nodes vs 4^n matrix entries:\n");
  std::fprintf(stderr,"%4s %14s %12s %12s %16s\n", "n", "GHZ-circuit", "QFT", "random",
              "4^n entries");
  for (int n : {2, 4, 6, 8, 10, 12, 14, 16}) {
    dd::DDSimulator s1, s2, s3;
    QuantumCircuit ghz_c(n);
    ghz_c.h(n - 1);
    for (int q = n - 1; q > 0; --q) ghz_c.cx(q, q - 1);
    auto h1 = s1.unitary(ghz_c);
    auto h2 = s2.unitary(aqua::qft(n, false));
    auto h3 = s3.unitary(bench::random_circuit(n, 3 * n, 7));
    std::fprintf(stderr,"%4d %14zu %12zu %12zu %16.3g\n", n,
                h1.package->node_count(h1.unitary),
                h2.package->node_count(h2.unitary),
                h3.package->node_count(h3.unitary), std::pow(4.0, n));
  }
  std::fprintf(stderr,
      "\nShape check: structured circuits stay polynomial in n while the\n"
      "dense representation grows as 4^n (the paper's compactness claim).\n\n");

  std::fprintf(stderr,
      "Bounded-memory engine: GC threshold sweep on a deep 16-qubit run\n"
      "(%d+ gates; peak live nodes should track the threshold, not the\n"
      "gate count):\n",
      3000);
  std::fprintf(stderr,"%10s %10s %10s %10s %10s %12s %12s\n", "threshold", "gc runs",
              "peak live", "freed", "reused", "cache hits", "evictions");
  const QuantumCircuit deep = deep_compact_circuit(16, 3000);
  for (std::size_t threshold : {std::size_t{0}, std::size_t{4096},
                                std::size_t{512}}) {
    ScopedGcThreshold env(threshold);
    dd::DDSimulator sim;
    auto handle = sim.simulate(deep);
    const dd::PackageStats& s = handle.package->stats();
    std::fprintf(stderr,"%10s %10zu %10zu %10zu %10zu %12zu %12zu\n",
                threshold == 0 ? "off" : std::to_string(threshold).c_str(),
                s.gc_runs, s.peak_live_nodes, s.nodes_freed,
                s.vector_nodes_reused + s.matrix_nodes_reused, s.compute_hits,
                s.add_table.evictions + s.madd_table.evictions +
                    s.mulv_table.evictions + s.mulm_table.evictions);
  }
  std::fprintf(stderr,
      "\nShape check: with GC enabled the live-node high-water mark is\n"
      "bounded near the threshold while total freed/reused grows with\n"
      "circuit depth; results are bitwise identical across the sweep.\n\n");
}

void BM_BuildGateDD(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  dd::Package pkg(n);
  const Matrix cx = op_matrix(OpKind::CX);
  for (auto _ : state) {
    auto gate = pkg.make_gate(cx, {0, n - 1});
    benchmark::DoNotOptimize(gate);
  }
}
BENCHMARK(BM_BuildGateDD)->Arg(4)->Arg(16)->Arg(32);

void BM_GhzUnitaryDD(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  QuantumCircuit qc(n);
  qc.h(n - 1);
  for (int q = n - 1; q > 0; --q) qc.cx(q, q - 1);
  for (auto _ : state) {
    dd::DDSimulator sim;
    auto handle = sim.unitary(qc);
    benchmark::DoNotOptimize(handle.unitary.node);
  }
}
BENCHMARK(BM_GhzUnitaryDD)->Arg(8)->Arg(16)->Arg(24);

void BM_DenseUnitary(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  QuantumCircuit qc(n);
  qc.h(n - 1);
  for (int q = n - 1; q > 0; --q) qc.cx(q, q - 1);
  sim::UnitarySimulator sim;
  for (auto _ : state) {
    auto u = sim.unitary(qc);
    benchmark::DoNotOptimize(u);
  }
}
BENCHMARK(BM_DenseUnitary)->Arg(4)->Arg(6)->Arg(8)->Arg(10);

// Deep 16-qubit simulation under different GC thresholds (Arg = threshold,
// 0 = collection disabled). Shows what bounding live memory costs in time.
void BM_DeepDDWithGC(benchmark::State& state) {
  const QuantumCircuit qc = deep_compact_circuit(16, 1000);
  ScopedGcThreshold env(static_cast<std::size_t>(state.range(0)));
  std::size_t peak = 0;
  for (auto _ : state) {
    dd::DDSimulator sim;
    auto handle = sim.simulate(qc);
    peak = std::max(peak, handle.package->stats().peak_live_nodes);
    benchmark::DoNotOptimize(handle.state.node);
  }
  state.counters["peak_live_nodes"] = static_cast<double>(peak);
}
BENCHMARK(BM_DeepDDWithGC)->Arg(0)->Arg(4096)->Arg(512);

}  // namespace

QTC_BENCH_MAIN(print_artifact)
