// Heavy-hex scaling and directed calibration: the topology generators must
// reproduce the published Eagle/Osprey/Condor device sizes, calibration
// lookups must be direction-exact and O(1) even at 1121 qubits (the bug this
// PR fixes was an O(E) scan that returned the first orientation it found),
// the QTC_MAP_SEED/QTC_MAP_FIDELITY knobs must parse robustly, and the
// fidelity-aware SABRE portfolio must (a) be bitwise-identical to the legacy
// mapper when off and (b) beat it on estimated success when on. ECR-basis
// backends are checked end-to-end: transpiled circuits are native and
// statevector-equivalent, and they run through Backend::run and the
// execution service.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "arch/coupling_map.hpp"
#include "core/config.hpp"
#include "core/gates.hpp"
#include "core/matrix.hpp"
#include "core/rng.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "map/noise_aware.hpp"
#include "qbin/qbin.hpp"
#include "service/execution_service.hpp"
#include "sim/simulator.hpp"
#include "transpiler/decompose.hpp"
#include "transpiler/direction.hpp"
#include "transpiler/transpile.hpp"

namespace qtc {
namespace {

struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
    config::reload();
  }
  ~ScopedEnv() {
    unsetenv(name_);
    config::reload();
  }
  const char* name_;
};

QuantumCircuit random_circuit(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n);
  for (int g = 0; g < gates; ++g) {
    switch (rng.index(4)) {
      case 0:
        qc.h(static_cast<int>(rng.index(n)));
        break;
      case 1:
        qc.rz(rng.uniform(-PI, PI), static_cast<int>(rng.index(n)));
        break;
      default: {
        const int a = static_cast<int>(rng.index(n));
        const int b = (a + 1 + static_cast<int>(rng.index(n - 1))) % n;
        qc.cx(a, b);
      }
    }
  }
  return qc;
}

// --- topology ----------------------------------------------------------------

struct HeavyHexCase {
  int distance;
  int qubits;
};

class HeavyHexTopology : public ::testing::TestWithParam<HeavyHexCase> {};

TEST_P(HeavyHexTopology, MatchesPublishedDeviceShape) {
  const auto [d, expected_qubits] = GetParam();
  const arch::CouplingMap cm = arch::heavy_hex(d);

  // Closed form n(d) = (5 d^2 + 2 d - 5) / 2 and the coupler count that
  // falls out of the row/bridge construction.
  EXPECT_EQ(cm.num_qubits(), expected_qubits);
  EXPECT_EQ(cm.num_qubits(), (5 * d * d + 2 * d - 5) / 2);
  const int w = 2 * d + 1;
  const int expected_edges =
      2 * (w - 2) + (d - 2) * (w - 1) + (d - 1) * ((d + 1) / 2) * 2;
  EXPECT_EQ(static_cast<int>(cm.edges().size()), expected_edges);

  // Heavy-hex means degree <= 3 everywhere, and one connected patch.
  for (int q = 0; q < cm.num_qubits(); ++q)
    EXPECT_LE(cm.neighbors(q).size(), 3u) << "qubit " << q;
  EXPECT_TRUE(cm.is_connected());

  // Each coupler appears in exactly one calibrated orientation, and the
  // edge-index table agrees with edges() in both directions.
  for (std::size_t i = 0; i < cm.edges().size(); ++i) {
    const auto [a, b] = cm.edges()[i];
    EXPECT_EQ(cm.edge_index(a, b), static_cast<int>(i));
    EXPECT_EQ(cm.edge_index(b, a), -1);
    EXPECT_TRUE(cm.has_edge(a, b));
    EXPECT_FALSE(cm.has_edge(b, a));
    EXPECT_TRUE(cm.connected(b, a));
  }

  // Distance is symmetric (sampled; the full matrix is n^2 at 1121 qubits).
  Rng rng(17);
  for (int k = 0; k < 500; ++k) {
    const int a = static_cast<int>(rng.index(cm.num_qubits()));
    const int b = static_cast<int>(rng.index(cm.num_qubits()));
    EXPECT_EQ(cm.distance(a, b), cm.distance(b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(
    EagleOspreyCondor, HeavyHexTopology,
    ::testing::Values(HeavyHexCase{3, 23}, HeavyHexCase{5, 65},
                      HeavyHexCase{7, 127}, HeavyHexCase{13, 433},
                      HeavyHexCase{21, 1121}),
    [](const auto& info) { return "d" + std::to_string(info.param.distance); });

TEST(HeavyHexTopology, EagleHasTheIbmWashingtonEdgeCount) {
  EXPECT_EQ(arch::heavy_hex(7).edges().size(), 144u);
}

TEST(HeavyHexTopology, RejectsEvenOrTinyDistances) {
  EXPECT_THROW(arch::heavy_hex(1), std::invalid_argument);
  EXPECT_THROW(arch::heavy_hex(4), std::invalid_argument);
  EXPECT_THROW(arch::heavy_hex(0), std::invalid_argument);
}

TEST(CouplingMapDisconnected, ReportsSentinelDistances) {
  const arch::CouplingMap cm(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(cm.is_connected());
  EXPECT_EQ(cm.distance(0, 1), 1);
  // Unreachable pairs report num_qubits() — larger than any real path.
  EXPECT_EQ(cm.distance(0, 2), 4);
  EXPECT_EQ(cm.distance(2, 0), 4);
  EXPECT_EQ(cm.distance(1, 3), 4);
  EXPECT_EQ(cm.edge_index(0, 2), -1);
}

// --- directed calibration lookups (the bugfix) -------------------------------

arch::Calibration tiny_calibration(int qubits, std::vector<double> cx_error,
                                   std::vector<double> cx_duration = {}) {
  arch::Calibration cal;
  for (int q = 0; q < qubits; ++q) {
    cal.single_qubit_error.push_back(1e-3);
    cal.readout_error.push_back(0.02);
    cal.t1_us.push_back(50.0);
    cal.t2_us.push_back(40.0);
  }
  cal.cx_error = std::move(cx_error);
  cal.cx_duration_us = std::move(cx_duration);
  return cal;
}

TEST(DirectedCalibration, LookupIsDirectionExact) {
  // Both orientations of the coupler are distinct calibrated edges. The old
  // lookup scanned edges() and returned the first match in either direction,
  // so cx_error(1, 0) came back 0.01 — this pins the fix.
  const arch::CouplingMap cm(2, {{0, 1}, {1, 0}});
  const arch::Backend b(cm, tiny_calibration(2, {0.01, 0.02}, {0.3, 0.5}));
  EXPECT_DOUBLE_EQ(b.cx_error(0, 1), 0.01);
  EXPECT_DOUBLE_EQ(b.cx_error(1, 0), 0.02);
  EXPECT_DOUBLE_EQ(b.cx_duration(0, 1), 0.3);
  EXPECT_DOUBLE_EQ(b.cx_duration(1, 0), 0.5);
}

TEST(DirectedCalibration, UndirectedCouplerFallsBackToReverseEntry) {
  const arch::CouplingMap cm(2, {{0, 1}});
  const arch::Backend b(cm, tiny_calibration(2, {0.03}));
  EXPECT_DOUBLE_EQ(b.cx_error(0, 1), 0.03);
  EXPECT_DOUBLE_EQ(b.cx_error(1, 0), 0.03);
  // No per-edge durations: the uniform gate time applies.
  EXPECT_DOUBLE_EQ(b.cx_duration(1, 0), b.calibration().gate_time_cx_us);
}

TEST(DirectedCalibration, UncoupledPairThrows) {
  const arch::CouplingMap cm(3, {{0, 1}});
  const arch::Backend b(cm, tiny_calibration(3, {0.03}));
  EXPECT_THROW(b.cx_error(0, 2), std::invalid_argument);
  EXPECT_THROW(b.cx_duration(2, 0), std::invalid_argument);
}

TEST(DirectedCalibration, LookupIsO1AtCondorScale) {
  // Per-lookup cost on the 1121-qubit Condor map vs the 23-qubit patch.
  // O(1) table lookups keep the ratio near 1 (cache effects aside); the old
  // O(E) scan would scale with the edge count (1320 vs 24 edges, ~55x).
  const arch::Backend small(arch::heavy_hex(3),
                            arch::heavy_hex_calibration(arch::heavy_hex(3)));
  const arch::Backend big = arch::heavy_hex_backend(21);

  auto per_lookup_ns = [](const arch::Backend& b, int reps) {
    const auto& edges = b.coupling_map().edges();
    double best = 1e300;
    double sink = 0;
    for (int round = 0; round < 3; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      double acc = 0;
      for (int r = 0; r < reps; ++r)
        for (const auto& [a, c] : edges) acc += b.cx_error(c, a);
      const auto t1 = std::chrono::steady_clock::now();
      sink += acc;
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          (static_cast<double>(reps) * edges.size());
      best = std::min(best, ns);
    }
    EXPECT_GT(sink, 0.0);  // keep the loop observable
    return best;
  };

  // ~200k lookups per map so both timings are milliseconds-scale.
  const double small_ns = per_lookup_ns(small, 8000);
  const double big_ns = per_lookup_ns(big, 150);
  EXPECT_LT(big_ns, small_ns * 20.0)
      << "per-lookup " << big_ns << "ns at 1121q vs " << small_ns
      << "ns at 23q: calibration lookup is not O(1)";
}

TEST(HeavyHexBackend, SynthesizedCalibrationCoversEveryEdgeWithContrast) {
  const arch::Backend b = arch::heavy_hex_backend(7);
  EXPECT_EQ(b.num_qubits(), 127);
  EXPECT_EQ(b.basis(), arch::BasisSet::EcrRzSx);
  const auto& cal = b.calibration();
  ASSERT_EQ(cal.cx_error.size(), b.coupling_map().edges().size());
  ASSERT_EQ(cal.cx_duration_us.size(), b.coupling_map().edges().size());
  double lo = 1.0, hi = 0.0;
  for (double e : cal.cx_error) {
    EXPECT_GT(e, 0.0);
    EXPECT_LT(e, 0.5);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  // A realistic device spans about a decade of 2q error; that contrast is
  // what makes fidelity-aware routing measurable.
  EXPECT_GT(hi / lo, 5.0);
  // Deterministic synthesis: same distance, same numbers.
  const arch::Backend again = arch::heavy_hex_backend(7);
  EXPECT_EQ(cal.cx_error, again.calibration().cx_error);
}

// --- estimated_success on 3+-qubit gates (bugfix) ----------------------------

TEST(EstimatedSuccess, ThreeQubitGateScoresConstituentPairs) {
  const arch::CouplingMap cm = arch::linear(3);
  const arch::Backend b(cm, arch::default_calibration(cm));
  QuantumCircuit qc(3);
  qc.ccx(0, 1, 2);
  double worst = 0.0;
  for (double e : b.calibration().cx_error) worst = std::max(worst, e);
  // Pairs in order: (0,1) coupled, (0,2) uncoupled -> worst, (1,2) coupled.
  double expected = 1.0;
  expected *= 1.0 - b.cx_error(0, 1);
  expected *= 1.0 - worst;
  expected *= 1.0 - b.cx_error(1, 2);
  const double got = map::estimated_success(qc, b);
  EXPECT_NEAR(got, expected, 1e-12);
  EXPECT_GT(got, 0.0);
  EXPECT_LT(got, 1.0);
}

// --- environment knobs -------------------------------------------------------

TEST(MapKnobs, SeedParsesDecimalHexAndFallsBackOnGarbage) {
  {
    ScopedEnv env("QTC_MAP_SEED", "123");
    EXPECT_EQ(map::default_map_seed(), 123u);
  }
  {
    ScopedEnv env("QTC_MAP_SEED", "0x2A");
    EXPECT_EQ(map::default_map_seed(), 42u);
  }
  {
    // Trailing garbage used to be silently accepted as the parsed prefix;
    // now the whole value must parse or the default applies.
    ScopedEnv env("QTC_MAP_SEED", "12abc");
    EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);
  }
  {
    ScopedEnv env("QTC_MAP_SEED", "garbage");
    EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);
  }
  {
    ScopedEnv env("QTC_MAP_SEED", "");
    EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);
  }
  EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);  // unset
}

TEST(MapKnobs, FidelityKnobDefaultsOffAndParsesLikeOtherBoolKnobs) {
  EXPECT_FALSE(map::default_map_fidelity());  // unset
  for (const char* off : {"0", "off", "false", "no"}) {
    ScopedEnv env("QTC_MAP_FIDELITY", off);
    EXPECT_FALSE(map::default_map_fidelity()) << off;
  }
  for (const char* on : {"1", "on", "true", "yes"}) {
    ScopedEnv env("QTC_MAP_FIDELITY", on);
    EXPECT_TRUE(map::default_map_fidelity()) << on;
  }
}

// --- fidelity-aware SABRE ----------------------------------------------------

TEST(FidelitySabre, OffPathIsBitwiseIdenticalToLegacyMapper) {
  const arch::Backend b = arch::heavy_hex_backend(3);
  std::uint64_t seed = 500;
  for (int rep = 0; rep < 3; ++rep) {
    const QuantumCircuit qc = random_circuit(8, 32, ++seed);
    const map::SabreMapper plain(20, 0.5, 4, 11);
    map::SabreMapper off(20, 0.5, 4, 11);
    off.with_fidelity(&b, /*enabled=*/false);
    map::SabreMapper null_backend(20, 0.5, 4, 11);
    null_backend.with_fidelity(nullptr);
    const map::MappingResult want = plain.run(qc, b.coupling_map());
    EXPECT_EQ(off.run(qc, b.coupling_map()), want);
    EXPECT_EQ(null_backend.run(qc, b.coupling_map()), want);
  }
}

TEST(FidelitySabre, ExplicitFidelityZeroMatchesDefaultTranspile) {
  // With QTC_MAP_FIDELITY unset the resolved default is the legacy path, so
  // fidelity = 0 and the default must produce the identical circuit.
  const arch::Backend b = arch::qx5_backend();
  const QuantumCircuit qc = random_circuit(8, 40, 77);
  transpiler::TranspileOptions legacy;
  legacy.trials = 4;
  legacy.seed = 9;
  legacy.fidelity = 0;
  transpiler::TranspileOptions deferred = legacy;
  deferred.fidelity = -1;
  const auto r0 = transpiler::transpile(qc, b, legacy);
  const auto r1 = transpiler::transpile(qc, b, deferred);
  EXPECT_EQ(r0.circuit, r1.circuit);
  EXPECT_EQ(r0.swaps_inserted, r1.swaps_inserted);
  EXPECT_EQ(r0.best_trial, r1.best_trial);
}

TEST(FidelitySabre, RoutingStaysValidWithFidelityOn) {
  const arch::Backend b = arch::heavy_hex_backend(3);
  const QuantumCircuit qc = random_circuit(10, 40, 4242);
  map::SabreMapper mapper(20, 0.5, 4, 33);
  mapper.with_fidelity(&b);
  const map::MappingResult r = mapper.run(qc, b.coupling_map());
  EXPECT_TRUE(transpiler::satisfies_connectivity(r.circuit, b.coupling_map()));
  ASSERT_EQ(r.source_index.size(), r.circuit.ops().size());
  // Deterministic for a fixed seed, like the legacy portfolio.
  map::SabreMapper mapper2(20, 0.5, 4, 33);
  mapper2.with_fidelity(&b);
  EXPECT_EQ(mapper2.run(qc, b.coupling_map()), r);
}

TEST(FidelitySabre, BeatsCalibrationBlindRoutingOnEagle) {
  // The PR's acceptance bar: on the 127-qubit heavy-hex backend the
  // fidelity-aware portfolio must achieve strictly higher estimated success
  // than the calibration-blind one over the benchmark suite (aggregated in
  // log space so one circuit cannot mask another).
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  double log_blind = 0.0, log_aware = 0.0;
  std::uint64_t seed = 9000;
  for (int rep = 0; rep < 5; ++rep) {
    const int n = 8 + 2 * rep;
    const QuantumCircuit qc = random_circuit(n, 5 * n, ++seed);
    transpiler::TranspileOptions opts;
    opts.trials = 4;
    opts.seed = 21;
    opts.fidelity = 0;
    const auto blind = transpiler::transpile(qc, eagle, opts);
    opts.fidelity = 1;
    const auto aware = transpiler::transpile(qc, eagle, opts);
    log_blind += std::log(map::estimated_success(blind.circuit, eagle));
    log_aware += std::log(map::estimated_success(aware.circuit, eagle));
  }
  EXPECT_GT(log_aware, log_blind);
}

// --- ECR basis end-to-end ----------------------------------------------------

TEST(EcrGate, MatrixIsUnitaryHermitianAndSelfInverse) {
  const Matrix m = op_matrix(OpKind::ECR);
  EXPECT_TRUE(m.is_unitary(1e-12));
  EXPECT_TRUE((m * m).approx_equal(Matrix::identity(4), 1e-12));
  const auto [inv_kind, inv_params] = op_inverse(OpKind::ECR, {});
  EXPECT_EQ(inv_kind, OpKind::ECR);
  EXPECT_TRUE(inv_params.empty());
  EXPECT_STREQ(op_name(OpKind::ECR), "ecr");
  EXPECT_EQ(op_from_name("ecr"), OpKind::ECR);
  EXPECT_EQ(op_num_qubits(OpKind::ECR), 2);
}

TEST(EcrGate, DecompositionAndRewriteAreEquivalentUpToPhase) {
  sim::StatevectorSimulator sim;
  {
    // Native ECR vs its {1q, CX} decomposition.
    QuantumCircuit native(2);
    native.h(0).h(1).ecr(0, 1);
    const QuantumCircuit lowered =
        transpiler::DecomposeMultiQubit().run(native);
    for (const auto& op : lowered.ops()) EXPECT_NE(op.kind, OpKind::ECR);
    EXPECT_TRUE(states_equal_up_to_phase(
        sim.statevector(native).amplitudes(),
        sim.statevector(lowered).amplitudes(), 1e-10));
  }
  {
    // CX circuit vs its ECR-basis rewrite.
    QuantumCircuit cx(2);
    cx.h(0).cx(0, 1).rz(0.7, 1).cx(0, 1);
    const QuantumCircuit ecr = transpiler::RewriteToEcrBasis().run(cx);
    bool saw_ecr = false;
    for (const auto& op : ecr.ops()) {
      EXPECT_NE(op.kind, OpKind::CX);
      saw_ecr |= op.kind == OpKind::ECR;
    }
    EXPECT_TRUE(saw_ecr);
    EXPECT_TRUE(states_equal_up_to_phase(
        sim.statevector(cx).amplitudes(),
        sim.statevector(ecr).amplitudes(), 1e-10));
  }
}

TEST(EcrGate, SurvivesQbinRoundtrip) {
  QuantumCircuit qc(3, 3);
  qc.h(0).ecr(0, 1).rz(0.25, 1).ecr(1, 2).sx(2);
  qc.measure_all();
  EXPECT_EQ(qbin::decode(qbin::encode(qc)), qc);
}

TEST(EcrBackend, TranspiledCircuitsAreNativeAndEquivalent) {
  const arch::CouplingMap cm = arch::ibm_qx4();
  const arch::Backend b(cm, arch::default_calibration(cm),
                        arch::BasisSet::EcrRzSx);
  sim::StatevectorSimulator sim;
  std::uint64_t seed = 300;
  for (int rep = 0; rep < 4; ++rep) {
    const QuantumCircuit qc = random_circuit(5, 20, ++seed);
    transpiler::TranspileOptions opts;
    opts.trials = 2;
    opts.seed = 3;
    const auto r = transpiler::transpile(qc, b, opts);
    bool saw_ecr = false;
    for (const auto& op : r.circuit.ops()) {
      EXPECT_TRUE(b.is_basis_gate(op.kind))
          << "non-native gate in output: " << op_name(op.kind);
      saw_ecr |= op.kind == OpKind::ECR;
    }
    EXPECT_TRUE(saw_ecr);
    const auto mapped_sv = sim.statevector(r.circuit).amplitudes();
    const auto logical_sv = sim.statevector(qc).amplitudes();
    const auto expected =
        map::embed_state(logical_sv, r.final_layout, cm.num_qubits());
    EXPECT_TRUE(states_equal_up_to_phase(mapped_sv, expected, 1e-8));
  }
}

TEST(EcrBackend, RunsThroughBackendRunAndExecutionService) {
  const arch::CouplingMap cm = arch::ibm_qx4();
  const arch::Backend b(cm, arch::default_calibration(cm),
                        arch::BasisSet::EcrRzSx);
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).measure_all();

  arch::Backend::RunOptions run_opts;
  run_opts.shots = 256;
  run_opts.seed = 5;
  const sim::Counts direct = b.run(qc, run_opts);
  EXPECT_EQ(direct.shots, 256);
  int total = 0;
  for (const auto& [bits, count] : direct.histogram) total += count;
  EXPECT_EQ(total, 256);

  service::ServiceConfig cfg;
  cfg.workers = 2;
  service::ExecutionService svc(cfg);
  exec::ExecuteOptions exec_opts;
  exec_opts.shots = 256;
  exec_opts.seed = 5;
  const service::JobResult jr = svc.submit(qc, b, exec_opts).result();
  ASSERT_EQ(jr.state, service::JobState::Done) << jr.error;
  EXPECT_EQ(jr.counts.shots, direct.shots);
  EXPECT_EQ(jr.counts.histogram, direct.histogram);
}

}  // namespace
}  // namespace qtc
