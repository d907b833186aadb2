#include "dd/package.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/gates.hpp"
#include "core/rng.hpp"
#include "dd/simulator.hpp"
#include "dd_blocks.hpp"
#include "sim/simulator.hpp"

namespace qtc::dd {
namespace {

TEST(DDPackage, ZeroStateAmplitudes) {
  Package pkg(3);
  const VEdge zero = pkg.make_zero_state();
  EXPECT_NEAR(std::abs(pkg.amplitude(zero, 0) - cplx(1, 0)), 0, 1e-12);
  for (std::uint64_t i = 1; i < 8; ++i)
    EXPECT_NEAR(std::abs(pkg.amplitude(zero, i)), 0, 1e-12);
  // A basis state is a single chain: n nodes.
  EXPECT_EQ(pkg.node_count(zero), 3u);
}

TEST(DDPackage, BasisStateRoundTrip) {
  Package pkg(4);
  const VEdge e = pkg.make_basis_state(0b1010);
  const auto v = pkg.to_vector(e);
  for (std::uint64_t i = 0; i < 16; ++i)
    EXPECT_NEAR(std::abs(v[i] - (i == 0b1010 ? cplx(1, 0) : cplx(0, 0))), 0,
                1e-12);
}

TEST(DDPackage, MakeStateRoundTrip) {
  Package pkg(2);
  const std::vector<cplx> amps{0.5, cplx(0, 0.5), -0.5, cplx(0.5, 0)};
  const VEdge e = pkg.make_state(amps);
  const auto back = pkg.to_vector(e);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(back[i] - amps[i]), 0, 1e-12);
}

TEST(DDPackage, GhzStateIsCompact) {
  // GHZ on n qubits needs only 2n-1 DD nodes (a top node plus the all-zeros
  // and all-ones chains) versus 2^n amplitudes — the compactness claim of
  // Fig. 3 / Sec. V-A.
  const int n = 20;
  QuantumCircuit qc(n);
  qc.h(0);
  for (int i = 1; i < n; ++i) qc.cx(i - 1, i);
  DDSimulator sim;
  auto handle = sim.simulate(qc);
  EXPECT_EQ(handle.package->node_count(handle.state),
            static_cast<std::size_t>(2 * n - 1));
  EXPECT_NEAR(std::abs(handle.package->amplitude(handle.state, 0)), SQRT1_2,
              1e-9);
  EXPECT_NEAR(
      std::abs(handle.package->amplitude(handle.state, (1ull << n) - 1)),
      SQRT1_2, 1e-9);
}

TEST(DDPackage, IdentityActsTrivially) {
  Package pkg(3);
  const MEdge id = pkg.make_identity();
  const VEdge s = pkg.make_basis_state(0b101);
  const VEdge t = pkg.multiply(id, s);
  EXPECT_NEAR(std::abs(pkg.amplitude(t, 0b101) - cplx(1, 0)), 0, 1e-12);
  EXPECT_EQ(pkg.node_count(id), 3u);
}

TEST(DDPackage, GateMatrixExtraction) {
  // make_gate on a 2-qubit system must reproduce kron structure.
  Package pkg(2);
  const Matrix h = op_matrix(OpKind::H);
  const MEdge hd = pkg.make_gate(h, {0});
  const Matrix full = pkg.to_matrix(hd);
  EXPECT_TRUE(full.approx_equal(Matrix::identity(2).kron(h), 1e-12));
  const MEdge h1 = pkg.make_gate(h, {1});
  EXPECT_TRUE(pkg.to_matrix(h1).approx_equal(h.kron(Matrix::identity(2)),
                                             1e-12));
}

TEST(DDPackage, CxGateOnNonAdjacentQubits) {
  Package pkg(3);
  const MEdge cx = pkg.make_gate(op_matrix(OpKind::CX), {0, 2});
  // |001> (q0=1) -> |101>.
  const VEdge in = pkg.make_basis_state(0b001);
  const VEdge out = pkg.multiply(cx, in);
  EXPECT_NEAR(std::abs(pkg.amplitude(out, 0b101) - cplx(1, 0)), 0, 1e-12);
  // Control clear: |100> stays.
  const VEdge in2 = pkg.make_basis_state(0b100);
  const VEdge out2 = pkg.multiply(cx, in2);
  EXPECT_NEAR(std::abs(pkg.amplitude(out2, 0b100) - cplx(1, 0)), 0, 1e-12);
}

/// Dense reference of `gate` on `qubits` of an n-qubit register: identity
/// on the other qubits, gate-local bit t = qubits[t].
Matrix embedded_gate(const Matrix& gate, const std::vector<int>& qubits,
                     int n) {
  const std::size_t dim = std::size_t{1} << n;
  std::size_t mask = 0;
  for (int q : qubits) mask |= std::size_t{1} << q;
  const auto local = [&](std::size_t index) {
    std::size_t l = 0;
    for (std::size_t t = 0; t < qubits.size(); ++t)
      l |= ((index >> qubits[t]) & 1) << t;
    return l;
  };
  Matrix out(dim, dim);
  for (std::size_t r = 0; r < dim; ++r)
    for (std::size_t c = 0; c < dim; ++c)
      if ((r & ~mask) == (c & ~mask)) out(r, c) = gate(local(r), local(c));
  return out;
}

TEST(DDPackage, MakeGateMatchesDenseEmbeddingOnScatteredQubits) {
  constexpr int n = 6;
  Rng rng(29);
  const auto dense = [&](int k) {
    // Generic complex entries with some exact zeros.
    Matrix m(std::size_t{1} << k, std::size_t{1} << k);
    for (std::size_t r = 0; r < m.rows(); ++r)
      for (std::size_t c = 0; c < m.cols(); ++c)
        if (rng.bernoulli(0.8))
          m(r, c) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return m;
  };
  const std::vector<std::pair<Matrix, std::vector<int>>> cases = {
      {u3_matrix(0.7, -1.1, 2.3), {0}},
      {u3_matrix(2.9, 0.4, -0.6), {n - 1}},
      {op_matrix(OpKind::H), {3}},
      {op_matrix(OpKind::CX), {0, n - 1}},
      {op_matrix(OpKind::CX), {n - 1, 0}},
      {dense(2), {2, 4}},
      {dense(2), {4, 1}},
      {op_matrix(OpKind::CCX), {0, 3, n - 1}},
      {dense(3), {n - 1, 2, 0}},
      {dense(3), {1, 4, 3}},
  };
  for (const auto& [gate, qubits] : cases) {
    Package pkg(n);
    const Matrix built = pkg.to_matrix(pkg.make_gate(gate, qubits));
    EXPECT_TRUE(built.approx_equal(embedded_gate(gate, qubits, n), 1e-12))
        << "gate on " << qubits.size() << " qubits, first " << qubits[0];
  }
  // The identity chain below a gate is shared with make_identity.
  Package pkg(n);
  EXPECT_TRUE(pkg.to_matrix(pkg.make_identity())
                  .approx_equal(Matrix::identity(std::size_t{1} << n), 0));
  const MEdge high = pkg.make_gate(op_matrix(OpKind::X), {n - 1});
  EXPECT_EQ(high.node->e[1].node, pkg.make_identity().node->e[0].node);
}

TEST(DDPackage, GateValidation) {
  Package pkg(2);
  EXPECT_THROW(pkg.make_gate(op_matrix(OpKind::H), {5}), std::out_of_range);
  EXPECT_THROW(pkg.make_gate(op_matrix(OpKind::CX), {0, 0}),
               std::invalid_argument);
  EXPECT_THROW(pkg.make_gate(op_matrix(OpKind::H), {0, 1}),
               std::invalid_argument);
}

TEST(DDPackage, AdditionOfOrthogonalStates) {
  Package pkg(2);
  VEdge a = pkg.make_basis_state(0);
  VEdge b = pkg.make_basis_state(3);
  a.w *= SQRT1_2;
  b.w *= SQRT1_2;
  const VEdge sum = pkg.add(a, b);
  EXPECT_NEAR(std::abs(pkg.amplitude(sum, 0)), SQRT1_2, 1e-12);
  EXPECT_NEAR(std::abs(pkg.amplitude(sum, 3)), SQRT1_2, 1e-12);
  EXPECT_NEAR(pkg.norm_squared(sum), 1.0, 1e-12);
}

TEST(DDPackage, AddWithZeroEdge) {
  Package pkg(2);
  const VEdge a = pkg.make_basis_state(1);
  const VEdge sum = pkg.add(a, VEdge{});
  EXPECT_NEAR(std::abs(pkg.amplitude(sum, 1) - cplx(1, 0)), 0, 1e-12);
}

TEST(DDPackage, AdditionCancelsToZero) {
  Package pkg(1);
  VEdge a = pkg.make_basis_state(0);
  VEdge b = pkg.make_basis_state(0);
  b.w = -b.w;
  const VEdge sum = pkg.add(a, b);
  EXPECT_TRUE(sum.is_zero());
}

TEST(DDPackage, AddOfSameNodeSumsWeights) {
  // add(v, c·v) is one weight sum on v's node: no compute-table traffic.
  Package pkg(3);
  std::vector<cplx> amps(8);
  for (int i = 0; i < 8; ++i) amps[i] = {0.1 * (i + 1), -0.05 * i};
  const VEdge v = pkg.make_state(amps);
  const cplx c{0.3, -0.7};
  const std::size_t misses = pkg.stats().add_table.misses;
  const VEdge sum = pkg.add(v, VEdge{v.node, c * v.w});
  EXPECT_EQ(sum.node, v.node);
  EXPECT_NEAR(std::abs(sum.w - (1.0 + c) * v.w), 0, 1e-15);
  EXPECT_EQ(pkg.stats().add_table.misses, misses);
  EXPECT_TRUE(pkg.add(v, VEdge{v.node, -v.w}).is_zero());
}

TEST(DDPackage, InnerProductAndFidelity) {
  Package pkg(2);
  QuantumCircuit bell(2);
  bell.h(0).cx(0, 1);
  DDSimulator sim;
  auto h = sim.simulate(bell);
  const VEdge zero = h.package->make_zero_state();
  EXPECT_NEAR(std::abs(h.package->inner_product(h.state, h.state) -
                       cplx(1, 0)),
              0, 1e-12);
  EXPECT_NEAR(h.package->fidelity(zero, h.state), 0.5, 1e-12);
}

TEST(DDPackage, NodeSharingAcrossEqualSubtrees) {
  // |++> has one node per level thanks to sharing.
  Package pkg(4);
  QuantumCircuit qc(4);
  for (int i = 0; i < 4; ++i) qc.h(i);
  DDSimulator sim;
  auto handle = sim.simulate(qc);
  EXPECT_EQ(handle.package->node_count(handle.state), 4u);
}

TEST(DDPackage, SamplingMatchesBornRule) {
  Package pkg(2);
  QuantumCircuit qc(2);
  qc.h(0);
  DDSimulator sim;
  auto handle = sim.simulate(qc);
  Rng rng(99);
  int ones = 0;
  for (int t = 0; t < 4000; ++t)
    if (handle.package->sample(handle.state, rng) & 1) ++ones;
  EXPECT_NEAR(ones / 4000.0, 0.5, 0.04);
}

TEST(DDPackage, SampleOfZeroEdgeThrows) {
  Package pkg(1);
  Rng rng;
  EXPECT_THROW(pkg.sample(VEdge{}, rng), std::invalid_argument);
}

TEST(DDPackage, DotExportMentionsNodesAndTerminal) {
  Package pkg(2);
  const VEdge e = pkg.make_basis_state(0b10);
  const std::string dot = pkg.to_dot(e);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("q1"), std::string::npos);
  EXPECT_NE(dot.find("-> t"), std::string::npos);
}

TEST(DDPackage, StatsTrackAllocations) {
  Package pkg(3);
  pkg.make_zero_state();
  EXPECT_GT(pkg.stats().vector_nodes_allocated, 0u);
  pkg.make_zero_state();
  EXPECT_GT(pkg.stats().unique_hits, 0u);  // second chain is fully shared
  pkg.clear();
  EXPECT_EQ(pkg.stats().vector_nodes_allocated, 0u);
}

TEST(DDPackage, InvalidQubitCountThrows) {
  EXPECT_THROW(Package(0), std::invalid_argument);
  EXPECT_THROW(Package(100), std::invalid_argument);
}

// --- cross-validation against the array simulator ---------------------------

QuantumCircuit random_circuit(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n);
  for (int g = 0; g < gates; ++g) {
    switch (rng.index(6)) {
      case 0:
        qc.h(static_cast<int>(rng.index(n)));
        break;
      case 1:
        qc.t(static_cast<int>(rng.index(n)));
        break;
      case 2:
        qc.rx(rng.uniform(-PI, PI), static_cast<int>(rng.index(n)));
        break;
      case 3:
        qc.rz(rng.uniform(-PI, PI), static_cast<int>(rng.index(n)));
        break;
      case 4: {
        const int a = static_cast<int>(rng.index(n));
        const int b = (a + 1 + static_cast<int>(rng.index(n - 1))) % n;
        qc.cx(a, b);
        break;
      }
      default: {
        const int a = static_cast<int>(rng.index(n));
        const int b = (a + 1 + static_cast<int>(rng.index(n - 1))) % n;
        qc.cz(a, b);
        break;
      }
    }
  }
  return qc;
}

class DDCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DDCrossValidation, StatevectorMatchesArraySimulator) {
  const QuantumCircuit qc = random_circuit(4, 40, GetParam());
  DDSimulator ddsim;
  sim::StatevectorSimulator svsim;
  const auto dd_amp = ddsim.statevector(qc);
  const auto sv_amp = svsim.statevector(qc).amplitudes();
  EXPECT_LT(max_abs_diff(dd_amp, sv_amp), 1e-9);
}

TEST_P(DDCrossValidation, UnitaryMatchesArraySimulator) {
  const QuantumCircuit qc = random_circuit(3, 20, GetParam());
  DDSimulator ddsim;
  auto handle = ddsim.unitary(qc);
  const Matrix dd_u = handle.package->to_matrix(handle.unitary);
  const Matrix ref = sim::UnitarySimulator().unitary(qc);
  EXPECT_LT(dd_u.max_abs_diff(ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DDCrossValidation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(DDSimulator, Fig1CircuitMatchesArraySimulator) {
  QuantumCircuit qc(4);
  qc.h(2).cx(2, 3).cx(0, 1).h(1).cx(1, 2).t(0).cx(2, 0).cx(0, 1);
  DDSimulator ddsim;
  sim::StatevectorSimulator svsim;
  EXPECT_LT(max_abs_diff(ddsim.statevector(qc),
                         svsim.statevector(qc).amplitudes()),
            1e-10);
}

TEST(DDSimulator, ThreeQubitGatesSupported) {
  QuantumCircuit qc(3);
  qc.x(0).x(1).ccx(0, 1, 2);
  DDSimulator sim;
  const auto amp = sim.statevector(qc);
  EXPECT_NEAR(std::abs(amp[0b111]), 1.0, 1e-12);
}

TEST(DDSimulator, RunProducesCorrelatedBellCounts) {
  QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  DDSimulator sim(321);
  const DDRunResult r = sim.run(qc, 2000);
  EXPECT_EQ(r.counts.count("01") + r.counts.count("10"), 0);
  EXPECT_NEAR(r.counts.probability("00"), 0.5, 0.05);
  EXPECT_GT(r.final_nodes, 0u);
  EXPECT_GT(r.allocated_nodes, 0u);
}

TEST(DDSimulator, RejectsGateAfterMeasureOnSameWire) {
  // Silently skipping a mid-circuit measurement would return confidently
  // wrong results — the engine must reject measure-then-gate circuits.
  QuantumCircuit qc(2, 2);
  qc.h(0).measure(0, 0);
  qc.x(0);  // acts on a measured wire
  DDSimulator sim;
  EXPECT_THROW(sim.run(qc, 10), std::invalid_argument);
  EXPECT_THROW(sim.statevector(qc), std::invalid_argument);
  EXPECT_THROW(sim.simulate(qc), std::invalid_argument);
}

TEST(DDSimulator, RejectsDoubleMeasureOnSameWire) {
  QuantumCircuit qc(2, 2);
  qc.h(0).measure(0, 0).measure(0, 1);
  DDSimulator sim;
  EXPECT_THROW(sim.run(qc, 10), std::invalid_argument);
}

TEST(DDSimulator, AllowsGatesOnUnmeasuredWiresAfterOtherMeasures) {
  // Measure-last is a per-wire contract: activity on other wires after a
  // measurement stays legal (e.g. routed circuits measuring qubits early).
  QuantumCircuit qc(2, 2);
  qc.h(0).measure(0, 0);
  qc.h(1).measure(1, 1);
  DDSimulator sim(5);
  const DDRunResult r = sim.run(qc, 100);
  EXPECT_EQ(r.counts.shots, 100);
}

TEST(DDPackage, DotExportRendersNegativeImaginaryParts) {
  // Regression: weights with negative imaginary part used to render as
  // "+-0.5i".
  Package pkg(1);
  // After normalization the |1> child carries weight -0.75i.
  const VEdge e = pkg.make_state({cplx(0.8, 0), cplx(0, -0.6)});
  const std::string dot = pkg.to_dot(e);
  EXPECT_EQ(dot.find("+-"), std::string::npos) << dot;
  EXPECT_NE(dot.find("-0.75i"), std::string::npos) << dot;
}

TEST(DDSimulator, RejectsConditionedCircuits) {
  QuantumCircuit qc(1, 1);
  qc.measure(0, 0);
  qc.x(0).c_if(0, 1);
  DDSimulator sim;
  EXPECT_THROW(sim.run(qc, 10), std::invalid_argument);
}

TEST(DDSimulator, FortyQubitBlockProductStaysCheapAndCorrect) {
  // Eight independent 5-qubit blocks. Each gate on a high block adds scaled
  // copies of the shared product below it; the same-node add makes that one
  // weight sum, so the work stays linear in the gate count.
  const std::vector<QuantumCircuit> blocks = dd_blocks::random_blocks(8, 41);
  const QuantumCircuit qc = dd_blocks::side_by_side(blocks, true);
  ASSERT_EQ(qc.num_qubits(), 40);
  const std::size_t gates = qc.size() - 40;
  auto handle = DDSimulator().simulate(qc);
  EXPECT_LE(handle.package->stats().add_table.misses, 4 * gates);
  const DDRunResult r = DDSimulator(5).run(qc, 4096);
  EXPECT_EQ(r.counts.shots, 4096);
  dd_blocks::expect_block_marginals(r.counts, blocks, qc.num_clbits());
}

TEST(DDSimulator, RunIgnoresIdleQubits) {
  // The run has one DD level per active qubit: idle wires of a 100-qubit
  // register (beyond the package's 62-level cap) cost nothing.
  QuantumCircuit qc(100, 3);
  qc.h(7).cx(7, 50).cx(50, 99);
  qc.measure(7, 0).measure(50, 1).measure(99, 2);
  const DDRunResult r = DDSimulator(3).run(qc, 256);
  EXPECT_EQ(r.final_nodes, 5u);  // a 3-level GHZ diagram
  EXPECT_EQ(r.counts.count("000") + r.counts.count("111"), 256);
  EXPECT_GT(r.counts.count("111"), 0);
}

TEST(DDSimulator, MatrixDDOfFig1IsSmallerThanDenseMatrix) {
  // The Fig. 3 observation: the DD has far fewer nodes than the 2^n x 2^n
  // matrix has entries.
  QuantumCircuit qc(4);
  qc.h(2).cx(2, 3).cx(0, 1).h(1).cx(1, 2).t(0).cx(2, 0).cx(0, 1);
  DDSimulator sim;
  auto handle = sim.unitary(qc);
  const std::size_t nodes = handle.package->node_count(handle.unitary);
  EXPECT_LT(nodes, 256u);  // dense matrix has 4^4 = 256 entries
  EXPECT_GT(nodes, 0u);
}

}  // namespace
}  // namespace qtc::dd
