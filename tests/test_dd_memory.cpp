// Bounded-memory properties of the decision-diagram package: garbage
// collection must be invisible to results (bitwise), the free list must
// recycle storage on deep circuits, the fixed-size compute tables must stay
// correct under eviction, and the memoized inner product must visit shared
// structure once instead of exponentially often.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "aqua/algorithms.hpp"
#include "core/config.hpp"
#include "core/gates.hpp"
#include "core/rng.hpp"
#include "dd/package.hpp"
#include "dd/simulator.hpp"

namespace qtc::dd {
namespace {

/// Scoped QTC_DD_GC_THRESHOLD override ("1" forces collection at every safe
/// point, "0" disables collection entirely).
class ScopedGcThreshold {
 public:
  explicit ScopedGcThreshold(const char* value) {
    setenv("QTC_DD_GC_THRESHOLD", value, 1);
    config::reload();
  }
  ~ScopedGcThreshold() {
    unsetenv("QTC_DD_GC_THRESHOLD");
    config::reload();
  }
};

::testing::AssertionResult bitwise_equal(const std::vector<cplx>& a,
                                         const std::vector<cplx>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(cplx)) != 0)
      return ::testing::AssertionFailure()
             << "amplitude " << i << " differs: (" << a[i].real() << ","
             << a[i].imag() << ") vs (" << b[i].real() << "," << b[i].imag()
             << ")";
  return ::testing::AssertionSuccess();
}

QuantumCircuit random_circuit(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n, n);
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    switch (rng.index(6)) {
      case 0:
        qc.h(q);
        break;
      case 1:
        qc.t(q);
        break;
      case 2:
        qc.rx(rng.uniform(-PI, PI), q);
        break;
      case 3:
        qc.rz(rng.uniform(-PI, PI), q);
        break;
      case 4:
        qc.cx(q, q2);
        break;
      default:
        qc.cz(q, q2);
    }
  }
  return qc;
}

QuantumCircuit ghz_circuit(int n) {
  QuantumCircuit qc(n, n);
  qc.h(0);
  for (int i = 1; i < n; ++i) qc.cx(i - 1, i);
  return qc;
}

/// Deep but structurally compact circuit: GHZ build/unbuild blocks keep the
/// reachable state tiny while the gate stream goes into the thousands. Each
/// block uses fresh rotation angles (undone within the block), so every block
/// allocates new gate and state nodes that become garbage as soon as the
/// block completes — exactly the access pattern the collector targets.
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

// --- GC invariance: results must be bitwise identical with GC forced after
// --- every operation versus GC disabled --------------------------------------

class GcInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GcInvariance, StatevectorBitwiseIdenticalOnRandomCircuits) {
  const QuantumCircuit qc =
      random_circuit(3 + static_cast<int>(GetParam() % 4),
                     30 + static_cast<int>(GetParam() * 11 % 30), GetParam());
  std::vector<cplx> gc_off, gc_forced;
  {
    ScopedGcThreshold off("0");
    gc_off = DDSimulator().statevector(qc);
  }
  {
    ScopedGcThreshold forced("1");
    gc_forced = DDSimulator().statevector(qc);
  }
  EXPECT_TRUE(bitwise_equal(gc_off, gc_forced));
}

TEST_P(GcInvariance, FixedSeedCountsIdenticalOnRandomCircuits) {
  QuantumCircuit qc = random_circuit(4, 40, GetParam() ^ 0xD0);
  qc.measure_all();
  sim::Counts off, forced;
  std::size_t forced_gc_runs = 0;
  {
    ScopedGcThreshold env("0");
    DDSimulator sim(GetParam() + 7);
    off = sim.run(qc, 512).counts;
  }
  {
    ScopedGcThreshold env("1");
    DDSimulator sim(GetParam() + 7);
    const DDRunResult r = sim.run(qc, 512);
    forced = r.counts;
    forced_gc_runs = r.gc_runs;
  }
  EXPECT_EQ(off.histogram, forced.histogram);
  EXPECT_GT(forced_gc_runs, 0u) << "threshold 1 should force collections";
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcInvariance,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GcInvariance, StatevectorBitwiseIdenticalOnGhzAndQft) {
  for (const QuantumCircuit& qc :
       {ghz_circuit(8), aqua::qft(6, true), aqua::qft(5, false)}) {
    std::vector<cplx> gc_off, gc_forced;
    {
      ScopedGcThreshold off("0");
      gc_off = DDSimulator().statevector(qc);
    }
    {
      ScopedGcThreshold forced("1");
      gc_forced = DDSimulator().statevector(qc);
    }
    EXPECT_TRUE(bitwise_equal(gc_off, gc_forced));
  }
}

TEST(GcInvariance, EquivalenceOfGcOnAndOffCountsOnGhz) {
  QuantumCircuit qc = ghz_circuit(10);
  qc.measure_all();
  sim::Counts off, forced;
  {
    ScopedGcThreshold env("0");
    DDSimulator sim(42);
    off = sim.run(qc, 1024).counts;
  }
  {
    ScopedGcThreshold env("1");
    DDSimulator sim(42);
    forced = sim.run(qc, 1024).counts;
  }
  EXPECT_EQ(off.histogram, forced.histogram);
}

// --- deep circuits: bounded live set, free-list reuse ------------------------

TEST(DDMemory, DeepCircuitKeepsLiveNodesBoundedByThreshold) {
  constexpr std::size_t kThreshold = 512;
  QuantumCircuit qc = deep_compact_circuit(16, 5000);
  ASSERT_GE(qc.size(), 5000u);
  qc.measure_all();
  ScopedGcThreshold env("512");
  DDSimulator sim(7);
  const DDRunResult r = sim.run(qc, 64);
  EXPECT_EQ(r.counts.shots, 64);
  EXPECT_GT(r.gc_runs, 0u);
  EXPECT_GT(r.freed_nodes, 0u);
  EXPECT_GT(r.reused_nodes, 0u) << "free list never recycled storage";
  // Collection triggers once the live count crosses the threshold, so the
  // high-water mark is the threshold plus (at most) one operation's working
  // set — far below the unbounded-run total.
  EXPECT_LE(r.peak_live_nodes, 2 * kThreshold);
  EXPECT_GT(r.allocated_nodes, 10 * r.peak_live_nodes)
      << "deep run should construct far more nodes than ever live at once";
}

TEST(DDMemory, DeepCircuitCountsMatchUnboundedRun) {
  QuantumCircuit qc = deep_compact_circuit(16, 5000);
  qc.measure_all();
  sim::Counts bounded, unbounded;
  {
    ScopedGcThreshold env("512");
    DDSimulator sim(11);
    bounded = sim.run(qc, 128).counts;
  }
  {
    ScopedGcThreshold env("0");
    DDSimulator sim(11);
    unbounded = sim.run(qc, 128).counts;
  }
  EXPECT_EQ(bounded.histogram, unbounded.histogram);
}

TEST(DDMemory, ForcedCollectFreesUnpinnedAndKeepsPinned) {
  ScopedGcThreshold env("0");  // manual collection only
  Package pkg(3);
  Package::VRef pinned = pkg.hold(pkg.make_basis_state(0b101));
  const VEdge doomed = pkg.make_basis_state(0b010);
  (void)doomed;
  const std::size_t live_before = pkg.live_nodes();
  const std::size_t freed = pkg.collect_garbage();
  EXPECT_GT(freed, 0u);
  EXPECT_LT(pkg.live_nodes(), live_before);
  // The pinned chain survives intact.
  EXPECT_EQ(pkg.node_count(pinned.edge()), 3u);
  EXPECT_NEAR(std::abs(pkg.amplitude(pinned.edge(), 0b101) - cplx(1, 0)), 0,
              1e-12);
  // Rebuilding the collected state reuses freed storage.
  const VEdge rebuilt = pkg.make_basis_state(0b010);
  EXPECT_GT(pkg.stats().vector_nodes_reused, 0u);
  EXPECT_NEAR(std::abs(pkg.amplitude(rebuilt, 0b010) - cplx(1, 0)), 0, 1e-12);
}

TEST(DDMemory, RefHandleCopiesKeepPinning) {
  ScopedGcThreshold env("0");
  Package pkg(2);
  Package::VRef outer;
  {
    Package::VRef inner = pkg.hold(pkg.make_basis_state(0b11));
    outer = inner;  // copy: second pin
  }  // inner released
  pkg.collect_garbage();
  EXPECT_EQ(pkg.node_count(outer.edge()), 2u);
  EXPECT_NEAR(std::abs(pkg.amplitude(outer.edge(), 0b11) - cplx(1, 0)), 0,
              1e-12);
}

TEST(DDMemory, ProgrammaticThresholdOverridesEnvironment) {
  ScopedGcThreshold env("0");
  Package pkg(4);
  EXPECT_EQ(pkg.gc_threshold(), 0u);
  pkg.set_gc_threshold(1);
  Package::VRef state = pkg.hold(pkg.make_zero_state());
  const MEdge h = pkg.make_gate(op_matrix(OpKind::H), {0});
  state = pkg.hold(pkg.multiply(h, state.edge()));
  const MEdge cx = pkg.make_gate(op_matrix(OpKind::CX), {0, 1});
  state = pkg.hold(pkg.multiply(cx, state.edge()));
  EXPECT_GT(pkg.stats().gc_runs, 0u);
  EXPECT_NEAR(pkg.norm_squared(state.edge()), 1.0, 1e-12);
}

// --- fixed-size compute tables: correct under eviction -----------------------

TEST(DDMemory, TinyComputeTablesEvictButStayCorrect) {
  ScopedGcThreshold env("0");
  const int n = 4;
  Package small(n, /*compute_table_bits=*/4);  // 16 slots per table
  Package big(n);
  Package::VRef ss = small.hold(small.make_zero_state());
  Package::VRef sb = big.hold(big.make_zero_state());
  Rng rng(17);
  for (int g = 0; g < 60; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    Matrix m;
    std::vector<int> qubits;
    if (rng.bernoulli(0.5)) {
      m = u3_matrix(rng.uniform(0, PI), rng.uniform(-PI, PI),
                    rng.uniform(-PI, PI));
      qubits = {q};
    } else {
      m = op_matrix(OpKind::CX);
      qubits = {q, q2};
    }
    ss = small.hold(small.multiply(small.make_gate(m, qubits), ss.edge()));
    sb = big.hold(big.multiply(big.make_gate(m, qubits), sb.edge()));
  }
  const auto vs = small.to_vector(ss.edge());
  const auto vb = big.to_vector(sb.edge());
  EXPECT_LT(max_abs_diff(vs, vb), 1e-10);
  const PackageStats& st = small.stats();
  const std::size_t evictions = st.add_table.evictions +
                                st.madd_table.evictions +
                                st.mulv_table.evictions +
                                st.mulm_table.evictions;
  EXPECT_GT(evictions, 0u) << "16-slot tables should have collided";
  EXPECT_GT(st.mulv_table.hits + st.mulv_table.misses, 0u);
}

// --- memoized inner product: shared structure visited once -------------------

TEST(DDMemory, InnerProductVisitsSharedStructureOnce) {
  // |+>^24: one node per level, both children of each node share the child
  // below. The naive recursion visits 2^24 pairs; the memoized one visits
  // each of the 24 shared pairs once.
  const int n = 24;
  QuantumCircuit qc(n);
  for (int q = 0; q < n; ++q) qc.h(q);
  DDSimulator sim;
  auto handle = sim.simulate(qc);
  const std::size_t before = handle.package->stats().inner_visits;
  const cplx ip =
      handle.package->inner_product(handle.state, handle.state);
  EXPECT_NEAR(std::abs(ip - cplx(1, 0)), 0, 1e-9);
  const PackageStats& st = handle.package->stats();
  const std::size_t visits = st.inner_visits - before;
  EXPECT_LE(visits, static_cast<std::size_t>(4 * n))
      << "memoized inner product should be linear in shared nodes";
  EXPECT_GT(st.inner_memo_hits, 0u);
}

TEST(DDMemory, FidelityOnGhzIsCheapAndCorrect) {
  const int n = 20;
  DDSimulator sim;
  auto handle = sim.simulate(ghz_circuit(n).unitary_part());
  const std::size_t before = handle.package->stats().inner_visits;
  EXPECT_NEAR(handle.package->fidelity(handle.state, handle.state), 1.0,
              1e-9);
  const VEdge zero = handle.package->make_zero_state();
  EXPECT_NEAR(handle.package->fidelity(zero, handle.state), 0.5, 1e-9);
  EXPECT_LE(handle.package->stats().inner_visits - before,
            static_cast<std::size_t>(8 * n));
}

// --- stats plumbing ----------------------------------------------------------

TEST(DDMemory, RunResultSurfacesMemoryTelemetry) {
  ScopedGcThreshold env("1");
  QuantumCircuit qc = ghz_circuit(8);
  qc.measure_all();
  DDSimulator sim(3);
  const DDRunResult r = sim.run(qc, 32);
  EXPECT_GT(r.gc_runs, 0u);
  EXPECT_GT(r.freed_nodes, 0u);
  EXPECT_GT(r.peak_live_nodes, 0u);
  EXPECT_GE(r.allocated_nodes, r.peak_live_nodes);
  EXPECT_GT(r.final_nodes, 0u);
}

TEST(DDMemory, ClearResetsPoolsAndMakesHandlesInert) {
  ScopedGcThreshold env("0");
  Package pkg(3);
  Package::VRef pin = pkg.hold(pkg.make_basis_state(0b111));
  pkg.clear();
  EXPECT_EQ(pkg.live_nodes(), 0u);
  EXPECT_EQ(pkg.stats().vector_nodes_allocated, 0u);
  // The stale handle must not touch recycled storage when destroyed; build
  // new state to prove the package is fully usable after clear().
  const VEdge fresh = pkg.make_zero_state();
  EXPECT_NEAR(std::abs(pkg.amplitude(fresh, 0) - cplx(1, 0)), 0, 1e-12);
}

}  // namespace
}  // namespace qtc::dd
