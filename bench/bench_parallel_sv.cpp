// Parallel statevector engine benchmark: serial-vs-parallel speedup of the
// gate kernels at 16-24 qubits, CDF-sampling throughput, and the determinism
// artifact (identical counts for a fixed seed at 1 vs 4 threads) backing the
// engine's thread-invariance guarantee.

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace {

using qtc::QuantumCircuit;
using qtc::bench::random_circuit;

double time_apply_seconds(const QuantumCircuit& qc) {
  const auto t0 = std::chrono::steady_clock::now();
  qtc::sim::Statevector sv(qc.num_qubits());
  sv.apply_circuit(qc);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

QuantumCircuit measured(const QuantumCircuit& qc) {
  QuantumCircuit out(qc.num_qubits(), qc.num_qubits());
  for (const auto& op : qc.ops()) out.append(op);
  out.measure_all();
  return out;
}

void print_parallel_artifact() {
  // --- speedup on the acceptance workload: 20 qubits, 200 gates ------------
  const QuantumCircuit qc = random_circuit(20, 200, 42);
  qtc::parallel::set_num_threads(1);
  const double serial_s = time_apply_seconds(qc);
  qtc::parallel::set_num_threads(4);
  const double parallel_s = time_apply_seconds(qc);
  std::printf("parallel statevector engine (20 qubits, 200 gates)\n");
  std::printf("  serial (1 thread):    %8.3f s\n", serial_s);
  std::printf("  parallel (4 threads): %8.3f s\n", parallel_s);
  std::printf("  speedup:              %8.2fx\n", serial_s / parallel_s);

  // --- determinism: fixed seed => identical counts at 1 vs 4 threads -------
  const QuantumCircuit sampling = measured(random_circuit(16, 60, 7));
  QuantumCircuit per_shot(3, 3);
  per_shot.h(0).cx(0, 1);
  per_shot.measure(0, 0);
  per_shot.x(2).c_if(0, 1);
  per_shot.h(1);
  per_shot.measure(1, 1);
  per_shot.measure(2, 2);
  bool identical = true;
  const QuantumCircuit* circuits[] = {&sampling, &per_shot};
  for (const QuantumCircuit* circ : circuits) {
    qtc::parallel::set_num_threads(1);
    qtc::sim::StatevectorSimulator s1(12345);
    const auto c1 = s1.run(*circ, 2000).counts;
    qtc::parallel::set_num_threads(4);
    qtc::sim::StatevectorSimulator s4(12345);
    const auto c4 = s4.run(*circ, 2000).counts;
    identical = identical && c1.histogram == c4.histogram;
  }
  std::printf("  counts identical at 1 vs 4 threads (seed 12345): %s\n\n",
              identical ? "yes" : "NO");
  qtc::parallel::set_num_threads(0);
}

void BM_ApplyCircuitSerial(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = random_circuit(n, 50, 17);
  qtc::parallel::set_num_threads(1);
  for (auto _ : state) {
    qtc::sim::Statevector sv(n);
    sv.apply_circuit(qc);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  qtc::parallel::set_num_threads(0);
  state.counters["qubits"] = n;
}
BENCHMARK(BM_ApplyCircuitSerial)->DenseRange(16, 24, 2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ApplyCircuitParallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const QuantumCircuit qc = random_circuit(n, 50, 17);
  qtc::parallel::set_num_threads(4);
  for (auto _ : state) {
    qtc::sim::Statevector sv(n);
    sv.apply_circuit(qc);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
  qtc::parallel::set_num_threads(0);
  state.counters["qubits"] = n;
}
// Wall time: the pool's workers run most of the sweep, not the caller.
BENCHMARK(BM_ApplyCircuitParallel)->DenseRange(16, 24, 2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SampleShotsCdf(benchmark::State& state) {
  const int n = 18;
  const QuantumCircuit qc = random_circuit(n, 60, 23);
  qtc::sim::Statevector sv(n);
  sv.apply_circuit(qc);
  const auto cdf = sv.cumulative_probabilities();
  qtc::Rng rng(5);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (int s = 0; s < 1024; ++s)
      acc ^= qtc::sim::sample_cdf(cdf, rng.uniform());
    benchmark::DoNotOptimize(acc);
  }
  state.counters["shots"] = 1024;
}
BENCHMARK(BM_SampleShotsCdf)->Unit(benchmark::kMillisecond);

void BM_SampleShotsLinearScan(benchmark::State& state) {
  const int n = 18;
  const QuantumCircuit qc = random_circuit(n, 60, 23);
  qtc::sim::Statevector sv(n);
  sv.apply_circuit(qc);
  qtc::Rng rng(5);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (int s = 0; s < 1024; ++s) acc ^= sv.sample(rng);
    benchmark::DoNotOptimize(acc);
  }
  state.counters["shots"] = 1024;
}
BENCHMARK(BM_SampleShotsLinearScan)->Unit(benchmark::kMillisecond);

}  // namespace

QTC_BENCH_MAIN(print_parallel_artifact)
