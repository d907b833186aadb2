// Contracts of the parallel execution engine (core/parallel.hpp) and its
// users: exact coverage of parallel_for, bitwise thread-invariance of the
// reductions and gate kernels, and seed-determinism of the simulator's
// sampling and per-shot paths at 1 vs 4 threads. Run under TSan via the
// `tsan` CMake preset (`ctest -L parallel`).

#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "core/config.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace qtc {
namespace {

/// Restores the env/hardware-default thread count when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_num_threads(0); }
};

/// Random circuit big enough (13 qubits > the serial cutoff) to actually
/// engage the pool, mixing the 1q fast path, the CX fast path and the
/// generic apply_matrix path.
QuantumCircuit pool_sized_circuit(std::uint64_t seed, int gates = 60) {
  const int n = 13;
  Rng rng(seed);
  QuantumCircuit qc(n);
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.index(n));
    const int q2 = (q + 1 + static_cast<int>(rng.index(n - 1))) % n;
    switch (rng.index(6)) {
      case 0:
        qc.h(q);
        break;
      case 1:
        qc.rz(rng.uniform(-PI, PI), q);
        break;
      case 2:
        qc.u(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI),
             q);
        break;
      case 3:
        qc.cp(rng.uniform(-PI, PI), q, q2);  // generic 2q matrix path
        break;
      case 4:
        qc.swap(q, q2);
        break;
      default:
        qc.cx(q, q2);
    }
  }
  return qc;
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  parallel::set_num_threads(4);
  std::vector<int> hits(std::size_t{1} << 15, 0);
  parallel::parallel_for(0, hits.size(),
                         [&](std::uint64_t lo, std::uint64_t hi) {
                           for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
                         });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadCountGuard guard;
  parallel::set_num_threads(4);
  bool called = false;
  parallel::parallel_for(5, 5, [&](std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptionsAndStaysUsable) {
  ThreadCountGuard guard;
  parallel::set_num_threads(4);
  const std::uint64_t n = std::uint64_t{1} << 15;
  EXPECT_THROW(parallel::parallel_for(
                   0, n,
                   [](std::uint64_t, std::uint64_t) {
                     throw std::runtime_error("kernel failure");
                   }),
               std::runtime_error);
  // The pool must survive a throwing body and service the next region.
  std::vector<int> hits(n, 0);
  parallel::parallel_for(0, n, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(hits.front(), 1);
  EXPECT_EQ(hits.back(), 1);
}

TEST(ParallelReduce, BitwiseInvariantAcrossThreadCounts) {
  ThreadCountGuard guard;
  std::vector<double> values(std::size_t{1} << 17);
  Rng rng(11);
  for (auto& v : values) v = rng.uniform(-1, 1);
  const auto block_sum = [&](std::uint64_t lo, std::uint64_t hi) {
    double s = 0;
    for (std::uint64_t i = lo; i < hi; ++i) s += values[i];
    return s;
  };
  parallel::set_num_threads(1);
  const double serial = parallel::parallel_reduce(0, values.size(), block_sum);
  parallel::set_num_threads(4);
  const double parallel4 =
      parallel::parallel_reduce(0, values.size(), block_sum);
  EXPECT_EQ(serial, parallel4);  // bitwise, not approximately
}

TEST(NumThreads, EnvVarAndOverridePrecedence) {
  ThreadCountGuard guard;
  parallel::set_num_threads(0);
  ASSERT_EQ(setenv("QTC_NUM_THREADS", "3", 1), 0);
  config::reload();
  EXPECT_EQ(parallel::num_threads(), 3);
  parallel::set_num_threads(2);  // programmatic override beats the env
  EXPECT_EQ(parallel::num_threads(), 2);
  parallel::set_num_threads(0);
  ASSERT_EQ(setenv("QTC_NUM_THREADS", "garbage", 1), 0);
  config::reload();
  EXPECT_GE(parallel::num_threads(), 1);  // malformed env falls back
  unsetenv("QTC_NUM_THREADS");
  config::reload();
}

TEST(ParallelKernels, AmplitudesMatchSerialExactly) {
  ThreadCountGuard guard;
  const QuantumCircuit qc = pool_sized_circuit(21);
  parallel::set_num_threads(1);
  sim::Statevector serial(qc.num_qubits());
  serial.apply_circuit(qc);
  parallel::set_num_threads(4);
  sim::Statevector parallel4(qc.num_qubits());
  parallel4.apply_circuit(qc);
  ASSERT_EQ(serial.dim(), parallel4.dim());
  for (std::size_t i = 0; i < serial.dim(); ++i)
    ASSERT_EQ(serial.amplitudes()[i], parallel4.amplitudes()[i]) << i;
}

TEST(ParallelKernels, ReductionsThreadInvariant) {
  ThreadCountGuard guard;
  const QuantumCircuit qc = pool_sized_circuit(33);
  parallel::set_num_threads(1);
  sim::Statevector sv(qc.num_qubits());
  sv.apply_circuit(qc);
  const double p1_serial = sv.probability_of_one(5);
  const double norm_serial = sv.norm();
  const std::string zz(qc.num_qubits(), 'Z');
  const double ev_serial = sv.expectation_pauli(zz);
  const auto cdf_serial = sv.cumulative_probabilities();
  parallel::set_num_threads(4);
  EXPECT_EQ(sv.probability_of_one(5), p1_serial);
  EXPECT_EQ(sv.norm(), norm_serial);
  EXPECT_EQ(sv.expectation_pauli(zz), ev_serial);
  EXPECT_EQ(sv.cumulative_probabilities(), cdf_serial);
}

TEST(CdfSampling, MatchesDistributionAndEdges) {
  sim::Statevector sv(2);
  QuantumCircuit bell(2);
  bell.h(0).cx(0, 1);
  sv.apply_circuit(bell);
  const auto cdf = sv.cumulative_probabilities();
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
  EXPECT_EQ(sim::sample_cdf(cdf, 0.0), 0u);    // first nonzero bucket
  EXPECT_EQ(sim::sample_cdf(cdf, 0.25), 0u);   // |00>
  EXPECT_EQ(sim::sample_cdf(cdf, 0.75), 3u);   // |11>
  EXPECT_EQ(sim::sample_cdf(cdf, 0.999999), 3u);
  // Never lands on the zero-probability middle states.
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t s = sim::sample_cdf(cdf, rng.uniform());
    EXPECT_TRUE(s == 0 || s == 3) << s;
  }
}

TEST(Determinism, SamplingPathCountsThreadInvariant) {
  ThreadCountGuard guard;
  QuantumCircuit qc = pool_sized_circuit(55, 40);
  QuantumCircuit measured(qc.num_qubits(), qc.num_qubits());
  for (const auto& op : qc.ops()) measured.append(op);
  measured.measure_all();
  parallel::set_num_threads(1);
  sim::StatevectorSimulator s1(2024);
  const auto c1 = s1.run(measured, 2000).counts;
  parallel::set_num_threads(4);
  sim::StatevectorSimulator s4(2024);
  const auto c4 = s4.run(measured, 2000).counts;
  EXPECT_EQ(c1.histogram, c4.histogram);
  EXPECT_EQ(c1.shots, c4.shots);
}

TEST(Determinism, PerShotPathCountsThreadInvariant) {
  ThreadCountGuard guard;
  // Mid-circuit measurement + conditional + reset forces the per-shot path.
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1);
  qc.measure(0, 0);
  qc.x(2).c_if(0, 1);
  qc.reset(1);
  qc.h(1);
  qc.measure(1, 1);
  qc.measure(2, 2);
  parallel::set_num_threads(1);
  sim::StatevectorSimulator s1(7);
  const auto r1 = s1.run(qc, 600);
  parallel::set_num_threads(4);
  sim::StatevectorSimulator s4(7);
  const auto r4 = s4.run(qc, 600);
  EXPECT_EQ(r1.counts.histogram, r4.counts.histogram);
  // Last shot's state is pinned to the shot index, not the thread schedule.
  EXPECT_EQ(r1.statevector, r4.statevector);
}

TEST(Determinism, PerShotPathRepeatsForSameSeed) {
  ThreadCountGuard guard;
  parallel::set_num_threads(4);
  QuantumCircuit qc(2, 2);
  qc.h(0);
  qc.measure(0, 0);
  qc.x(1).c_if(0, 1);
  qc.measure(1, 1);
  sim::StatevectorSimulator a(99), b(99);
  EXPECT_EQ(a.run(qc, 400).counts.histogram, b.run(qc, 400).counts.histogram);
}

TEST(Determinism, UnitarySimulatorThreadInvariant) {
  ThreadCountGuard guard;
  Rng rng(8);
  QuantumCircuit qc(6);
  for (int g = 0; g < 30; ++g) {
    const int q = static_cast<int>(rng.index(6));
    const int q2 = (q + 1 + static_cast<int>(rng.index(5))) % 6;
    if (rng.index(2))
      qc.u(rng.uniform(0, PI), rng.uniform(-PI, PI), rng.uniform(-PI, PI), q);
    else
      qc.cx(q, q2);
  }
  parallel::set_num_threads(1);
  const Matrix u1 = sim::UnitarySimulator().unitary(qc);
  parallel::set_num_threads(4);
  const Matrix u4 = sim::UnitarySimulator().unitary(qc);
  EXPECT_EQ(u1.data(), u4.data());
}

}  // namespace
}  // namespace qtc
