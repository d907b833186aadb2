// Execution-service benchmark. The container-independent artifact is the
// structural-batching economics of a hybrid workload: a 32-iteration VQE
// tenant (one ansatz structure, fresh angles every iteration) mixed with
// random-circuit tenants pays ONE mapper run for the whole VQE loop — every
// other iteration is claimed into a structural batch and compiled warm out
// of the transpile cache. Wall-clock throughput (jobs/s) at 1/2/4 workers
// follows; on a many-core host the worker sweep shows the dispatch scaling,
// on the 1-CPU CI container it degenerates to ~1x by design.
//
// The artifact prints to stderr so stdout stays machine-readable:
//   ./bench_service --benchmark_format=json > BENCH_service.json
// is how CI tracks the service-layer perf trajectory.

#include <chrono>
#include <cstdio>
#include <vector>

#include "arch/backend.hpp"
#include "bench_common.hpp"
#include "exec/execute.hpp"
#include "map/mapping.hpp"
#include "service/execution_service.hpp"
#include "transpiler/transpile_cache.hpp"

namespace {

using qtc::QuantumCircuit;
using qtc::service::ExecutionService;
using qtc::service::JobHandle;
using qtc::service::ServiceConfig;
using qtc::service::ServiceStats;

/// Hardware-efficient ry+CX-ring ansatz: the structure every VQE iteration
/// shares; only the angles change between submissions.
QuantumCircuit vqe_ansatz(int n, std::uint64_t iteration) {
  QuantumCircuit qc(n, n);
  for (int layer = 0; layer < 2; ++layer) {
    for (int q = 0; q < n; ++q)
      qc.ry(0.1 + 0.01 * static_cast<double>(iteration) + 0.3 * q + layer, q);
    for (int q = 0; q < n; ++q) qc.cx(q, (q + 1) % n);
  }
  qc.measure_all();
  return qc;
}

QuantumCircuit random_tenant_circuit(int n, std::uint64_t seed) {
  QuantumCircuit body = qtc::bench::random_circuit(n, 20, seed);
  QuantumCircuit qc(n, n);
  for (const auto& op : body.ops()) qc.append(op);
  qc.measure_all();
  return qc;
}

qtc::exec::ExecuteOptions job_options(std::uint64_t seed) {
  qtc::exec::ExecuteOptions opts;
  opts.shots = 128;
  opts.seed = seed;
  return opts;
}

/// The standard mixed fleet: a VQE tenant iterating one ansatz structure
/// plus two random-circuit tenants. Returns the handles in submission order.
std::vector<JobHandle> submit_mixed_fleet(ExecutionService& svc,
                                          const qtc::arch::Backend& backend,
                                          int vqe_iterations,
                                          int random_jobs_per_tenant) {
  std::vector<JobHandle> handles;
  for (int i = 0; i < vqe_iterations; ++i)
    handles.push_back(
        svc.submit(vqe_ansatz(4, i), backend, job_options(900 + i), "vqe"));
  for (int t = 0; t < 2; ++t)
    for (int j = 0; j < random_jobs_per_tenant; ++j)
      handles.push_back(svc.submit(
          random_tenant_circuit(3 + t, 37 * t + j + 1), backend,
          job_options(5000 + 100 * t + j), t == 0 ? "rand-a" : "rand-b"));
  return handles;
}

void print_service_artifact() {
  const qtc::arch::Backend backend = qtc::arch::qx4_backend();

  // --- batching economics of the hybrid mix ---------------------------------
  qtc::transpiler::TranspileCache::global().clear();
  const std::uint64_t mappers_before = qtc::map::mapper_run_count();
  ServiceConfig config;
  config.workers = 2;
  ExecutionService svc(config);
  const auto handles = submit_mixed_fleet(svc, backend, /*vqe_iterations=*/32,
                                          /*random_jobs_per_tenant=*/8);
  svc.drain();
  const ServiceStats stats = svc.stats();
  const std::uint64_t mappers_used =
      qtc::map::mapper_run_count() - mappers_before;
  std::uint64_t vqe_cache_hits = 0;
  for (int i = 0; i < 32; ++i)
    vqe_cache_hits += handles[i].result().transpile_cache_hit ? 1 : 0;
  std::fprintf(stderr,
               "execution service: 32-iteration VQE tenant + 2 random-circuit "
               "tenants (48 jobs, 2 workers)\n"
               "  %-28s %8llu\n  %-28s %8llu\n  %-28s %8llu\n  %-28s %8llu\n"
               "  %-28s %7.1f%%\n  %-28s %8llu\n",
               "jobs completed",
               static_cast<unsigned long long>(stats.completed),
               "structural batches",
               static_cast<unsigned long long>(stats.batches),
               "batch-claimed followers",
               static_cast<unsigned long long>(stats.batch_hits),
               "warm transpile-cache hits",
               static_cast<unsigned long long>(stats.cache_hits),
               "VQE iterations compiled warm",
               100.0 * static_cast<double>(vqe_cache_hits) / 32.0,
               "mapper runs for all 48 jobs",
               static_cast<unsigned long long>(mappers_used));

  // --- throughput at 1/2/4 workers ------------------------------------------
  std::fprintf(stderr, "  %-10s %10s %10s\n", "workers", "seconds", "jobs/s");
  for (const int workers : {1, 2, 4}) {
    ServiceConfig wconfig;
    wconfig.workers = workers;
    ExecutionService wsvc(wconfig);
    const auto t0 = std::chrono::steady_clock::now();
    submit_mixed_fleet(wsvc, backend, 32, 8);
    wsvc.drain();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::fprintf(stderr, "  %-10d %10.3f %10.1f\n", workers, secs, 48 / secs);
  }
  std::fprintf(stderr,
               "  (counts are bitwise identical to direct exec::execute at "
               "every worker count; see tests/test_service_stress.cpp)\n");
}

/// One full fleet (submit 48 jobs, drain) per iteration — service
/// construction, dispatch, batching and teardown all on the clock.
void BM_ServiceMixedFleet(benchmark::State& state) {
  const qtc::arch::Backend backend = qtc::arch::qx4_backend();
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ServiceConfig config;
    config.workers = workers;
    ExecutionService svc(config);
    submit_mixed_fleet(svc, backend, 32, 8);
    svc.drain();
    benchmark::DoNotOptimize(svc.stats().completed);
  }
  state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_ServiceMixedFleet)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The submit/poll/result round trip for a single job — the per-request
/// dispatch overhead the service adds over a bare exec::execute.
void BM_ServiceSingleJobLatency(benchmark::State& state) {
  const qtc::arch::Backend backend = qtc::arch::qx4_backend();
  ServiceConfig config;
  config.workers = 1;
  ExecutionService svc(config);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    ++seed;
    JobHandle h =
        svc.submit(vqe_ansatz(4, seed), backend, job_options(seed), "t");
    benchmark::DoNotOptimize(h.result().counts.shots);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceSingleJobLatency)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Batching on vs off on the same VQE-heavy fleet: what the structural
/// batcher is worth end to end.
void BM_ServiceVQEMixBatching(benchmark::State& state) {
  const qtc::arch::Backend backend = qtc::arch::qx4_backend();
  const int batching = static_cast<int>(state.range(0));
  for (auto _ : state) {
    qtc::transpiler::TranspileCache::global().clear();
    ServiceConfig config;
    config.workers = 2;
    config.batching = batching;
    ExecutionService svc(config);
    submit_mixed_fleet(svc, backend, 32, 8);
    svc.drain();
    benchmark::DoNotOptimize(svc.stats().batch_hits);
  }
  state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_ServiceVQEMixBatching)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

QTC_BENCH_MAIN(print_service_artifact)
