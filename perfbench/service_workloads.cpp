// The two workloads that go through the execution service: hybrid-qx4 (four
// VQE tenants in a closed loop) and noisy-wide (small noisy circuits on the
// 16-qubit QX5 and the 127-qubit Eagle).

#include <cmath>
#include <cstdio>
#include <memory>

#include "aqua/grouping.hpp"
#include "aqua/h2.hpp"
#include "bench.hpp"
#include "core/rng.hpp"
#include "qbin/qbin.hpp"
#include "service/execution_service.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc::perfbench {

namespace {

using service::ExecutionService;
using service::JobHandle;
using service::JobResult;
using service::JobState;

// Set-up work does not depend on the run's seed.
constexpr std::uint64_t kWarmupSeed = 0x5EED;

/// One submitted job as the client sees it.
struct Submitted {
  JobHandle handle;
  Request request;
  Clock::time_point submit_at;
  double submit_us = 0;
};

/// A service loop: the common loop statistics plus what the service
/// reports per job, shared by both workloads.
struct ServiceLoop {
  LoopStats stats;
  std::vector<double> submit_us, queue_ms, run_ms;
  std::uint64_t followers = 0;
  double seconds = 0;  // wall time of the rounds, set-ups excluded

  Submitted submit(ExecutionService& svc, Request request,
                   const std::string& tenant) {
    const auto t0 = Clock::now();
    JobHandle handle =
        svc.submit(request.payload, *request.backend, request.options, tenant);
    Submitted s{handle, std::move(request), t0, 1e6 * seconds_since(t0)};
    submit_us.push_back(s.submit_us);
    ++stats.attempted;
    return s;
  }

  /// Record a terminal job; returns its latency (client submit call +
  /// service queue + run) so the caller can close its round.
  double record(const Submitted& s, const JobResult& r) {
    const double latency = s.submit_us / 1e3 + r.queue_ms + r.run_ms;
    queue_ms.push_back(r.queue_ms);
    run_ms.push_back(r.run_ms);
    followers += r.batch_follower ? 1 : 0;
    if (r.state == JobState::Done) {
      ++stats.done;
      stats.job_ms.push_back(latency);
    }
    return latency;
  }

  /// Close a round begun at `started` in which `verified` jobs passed.
  void round_done(std::uint64_t verified, Clock::time_point started) {
    const double round_s = seconds_since(started);
    seconds += round_s;
    stats.round_done(verified, round_s);
  }

  void report(Report& rep, bool trace) const {
    stats.report(rep, seconds, trace);
    if (!trace) return;
    rep.metric("service.submit_us", median(submit_us), "us");
    rep.metric("service.queue_ms_p50", median(queue_ms), "ms");
    rep.metric("service.run_ms_p50", median(run_ms), "ms");
    rep.metric("service.batch_follower_ratio",
               static_cast<double>(followers) / stats.attempted, "ratio");
  }
};

/// Re-run sampled service jobs through a direct exec::execute (outside the
/// timed window): counts must match bitwise and, with `exact`, fit the
/// density-matrix distribution of the compiled circuit.
void check_sample(const std::vector<std::pair<Request, JobResult>>& sample,
                  bool exact, Report& report) {
  const auto t0 = Clock::now();
  int chi_checked = 0;
  for (const auto& [request, job] : sample) {
    const QuantumCircuit logical = qbin::decode(request.payload);
    try {
      const exec::ExecuteResult direct =
          exec::execute(logical, *request.backend, request.options);
      if (!report.check(job.state == JobState::Done &&
                            same_counts(direct.counts, job.counts),
                        "service job " + std::to_string(job.id) +
                            " differs from a direct exec::execute") ||
          !exact)
        continue;
      const noise::NoiseModel model = noise::from_backend(*request.backend);
      std::string detail;
      const bool ok = chi_square_ok(
          job.counts, exact_noisy_distribution(direct.compiled, model),
          &detail);
      report.check(ok, "job " + std::to_string(job.id) +
                           " is off the exact noisy distribution: " + detail);
      ++chi_checked;
    } catch (const std::exception& e) {
      report.check(job.state == JobState::Failed && job.error == e.what(),
                   "service job " + std::to_string(job.id) +
                       " and direct exec::execute disagree on failure: " +
                       e.what());
    }
  }
  report.note("checked " + std::to_string(sample.size()) +
              " service jobs bitwise against exec::execute, " +
              std::to_string(chi_checked) +
              " against the density-matrix distribution (chi-square, "
              "p = 1e-6) in " + std::to_string(seconds_since(t0)) + " s");
}

/// Start a fresh default-config service, tearing down the previous one
/// first; append the set-up's time (backend build, service start, one
/// warm-up job) to `setup_s`.
template <class BuildBackends>
void setup_service(std::unique_ptr<ExecutionService>& svc,
                   BuildBackends&& build, const Request& warmup,
                   std::vector<double>& setup_s,
                   std::vector<double>& backend_ms, Report& report) {
  svc.reset();
  transpiler::TranspileCache::global().clear();
  const auto t0 = Clock::now();
  build();
  backend_ms.push_back(ms_since(t0));
  svc = std::make_unique<ExecutionService>();
  const JobResult r =
      svc->submit(warmup.payload, *warmup.backend, warmup.options, "warmup")
          .result();
  setup_s.push_back(seconds_since(t0));
  report.check(r.state == JobState::Done, "warm-up job failed: " + r.error);
}

// --- hybrid-qx4 ---------------------------------------------------------------

constexpr int kTenants = 4;
constexpr int kHybridShots = 128;

/// Aqua-style H2 VQE on QX4: RY ansatz with full entanglement, SPSA.
struct H2Vqe {
  aqua::PauliOp hamiltonian = aqua::h2_problem(0.735).hamiltonian;
  std::vector<aqua::PauliGroup> groups;
  int n = 4;
  int depth = 1;

  H2Vqe() {
    for (auto& g : aqua::group_qubitwise_commuting(hamiltonian))
      if (g.basis.find_first_not_of('I') != std::string::npos)
        groups.push_back(std::move(g));
  }
  int num_params() const { return n * (depth + 1); }
  double constant() const {
    double c = 0;
    for (const auto& t : hamiltonian.terms())
      if (t.paulis.find_first_not_of('I') == std::string::npos)
        c += t.coeff.real();
    return c;
  }
  /// The circuit measuring group `g` at angles `theta`.
  QuantumCircuit circuit(const std::vector<double>& theta, int g) const {
    QuantumCircuit qc(n, n);
    const QuantumCircuit ansatz = ry_full(n, depth, theta);
    for (const auto& op : ansatz.ops()) qc.append(op);
    for (int q = 0; q < n; ++q) {
      const char c = groups[g].basis[n - 1 - q];
      if (c == 'X') {
        qc.h(q);
      } else if (c == 'Y') {
        qc.sdg(q);
        qc.h(q);
      }
    }
    qc.measure_all();
    return qc;
  }
  double group_energy(int g, const sim::Counts& counts) const {
    double e = 0;
    for (const auto& term : groups[g].terms) {
      double expectation = 0;
      for (const auto& [bits, c] : counts.histogram) {
        int parity = 0;
        for (int q = 0; q < n; ++q)
          if (term.paulis[n - 1 - q] != 'I' && bits[n - 1 - q] == '1')
            parity ^= 1;
        expectation += (parity ? -1.0 : 1.0) * c;
      }
      e += term.coeff.real() * expectation / counts.shots;
    }
    return e;
  }
};

struct Tenant {
  std::string name;
  Rng rng{1};
  std::vector<double> theta, delta;
  int k = 0;         // SPSA iteration
  double c_k = 0;    // this iteration's perturbation size
  Clock::time_point started;
  std::vector<Submitted> jobs;  // 2 * groups: theta + c*delta, then minus
};

Request hybrid_request(const H2Vqe& vqe, const arch::Backend& backend,
                       const std::vector<double>& theta, int g,
                       std::uint64_t seed) {
  Request r;
  r.circuit = vqe.circuit(theta, g);
  r.payload = qbin::encode(r.circuit);
  r.backend = &backend;
  r.options.shots = kHybridShots;
  r.options.seed = seed;
  return r;
}

}  // namespace

void run_hybrid_qx4(const Args& args, Report& report) {
  const H2Vqe vqe;
  std::unique_ptr<ExecutionService> svc;
  std::unique_ptr<arch::Backend> qx4;
  std::vector<double> backend_ms, setups;
  Rng init(args.seed);
  std::vector<double> theta0(vqe.num_params());
  for (double& t : theta0) t = init.uniform(-PI, PI);
  // Every set-up rebuilds the loop's backend; the checks after the loop
  // run against this identical copy.
  const arch::Backend qx4_probe = arch::qx4_backend();
  const Request warmup = hybrid_request(
      vqe, qx4_probe, std::vector<double>(vqe.num_params(), 0.5), 0, kWarmupSeed);
  const auto build = [&] {
    qx4 = std::make_unique<arch::Backend>(arch::qx4_backend());
  };

  std::vector<Tenant> tenants(kTenants);
  std::uint64_t job_seq = 0;
  const auto begin_iteration = [&](Tenant& t, ServiceLoop& loop) {
    t.c_k = 0.15 / std::pow(t.k + 1.0, 0.101);
    for (double& d : t.delta) d = t.rng.bernoulli(0.5) ? 1.0 : -1.0;
    t.started = Clock::now();
    t.jobs.clear();
    for (int sign : {1, -1}) {
      std::vector<double> th = t.theta;
      for (std::size_t i = 0; i < th.size(); ++i) th[i] += sign * t.c_k * t.delta[i];
      for (int g = 0; g < static_cast<int>(vqe.groups.size()); ++g)
        t.jobs.push_back(loop.submit(
            *svc,
            hybrid_request(vqe, *qx4, th, g,
                           derive_stream_seed(args.seed, job_seq++)),
            t.name));
    }
  };

  ServiceLoop loop;
  for (int i = 0; i < kTenants; ++i) {
    Tenant& t = tenants[i];
    t.name = "vqe-" + std::to_string(i);
    t.rng = Rng(derive_stream_seed(args.seed, 1000 + i));
    t.theta = theta0;
    for (double& x : t.theta) x += 0.1 * t.rng.normal();
    t.delta.resize(t.theta.size());
  }
  std::vector<std::pair<Request, JobResult>> sample;
  std::vector<Request> suite;
  // Wait for a tenant's iteration, verify it, time it and take the SPSA
  // step; returns the number of verified jobs.
  const auto end_iteration = [&](Tenant& t, int ti) {
    double e_plus = vqe.constant(), e_minus = vqe.constant();
    double iter_end_ms = 0;
    std::uint64_t verified = 0;
    const int groups = static_cast<int>(vqe.groups.size());
    for (int j = 0; j < static_cast<int>(t.jobs.size()); ++j) {
      const Submitted& s = t.jobs[j];
      const JobResult r = s.handle.result();
      const double latency = loop.record(s, r);
      iter_end_ms = std::max(
          iter_end_ms,
          1e3 * std::chrono::duration<double>(s.submit_at - t.started)
                    .count() +
              latency);
      const bool ok = r.state == JobState::Done &&
                      counts_well_formed(r.counts, kHybridShots, vqe.n);
      if (!report.check(ok, "hybrid job " + std::to_string(r.id) + " " +
                                service::to_string(r.state) + " " + r.error)) {
        ++report.failed;
        continue;
      }
      ++verified;
      (j < groups ? e_plus : e_minus) += vqe.group_energy(j % groups, r.counts);
      if (ti == 0 && t.k == 0) {
        Request checked = s.request;
        checked.backend = &qx4_probe;
        if (j < groups) suite.push_back(checked);
        if (j < 6) sample.emplace_back(std::move(checked), r);
      }
    }
    loop.stats.verified += verified;
    loop.stats.iter_ms.push_back(iter_end_ms);
    const double a_k = 0.2 / std::pow(t.k + 1.0 + 10.0, 0.602);
    const double grad = (e_plus - e_minus) / (2 * t.c_k);
    for (std::size_t i = 0; i < t.theta.size(); ++i)
      t.theta[i] -= a_k * grad * t.delta[i];
    ++t.k;
    t.jobs.clear();
    return verified;
  };
  // Rounds: every tenant submits its next iteration, then the client waits
  // for all of them, so each tenant has one iteration outstanding. Each
  // quarter of the run goes to a freshly set-up service, so the way one
  // service's workers happened to settle does not decide the whole run.
  SpreadSetups spread(args.seconds, [&](int) {
    setup_service(svc, build, warmup, setups, backend_ms, report);
  });
  while (spread.elapsed() < args.seconds) {
    const auto started = Clock::now();
    for (Tenant& t : tenants) begin_iteration(t, loop);
    std::uint64_t verified = 0;
    for (int ti = 0; ti < kTenants; ++ti)
      verified += end_iteration(tenants[ti], ti);
    loop.round_done(verified, started);
  }
  spread.finish();
  report.metric("setup_s", median(setups), "s");
  loop.report(report, args.trace);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");  // before the checks
  report_routing_quality(suite, report);
  check_sample(sample, true, report);
  if (args.trace) {
    report.metric("arch.backend_build_ms", median(backend_ms), "ms");
    report_call_costs(report);
    std::vector<Request> replayed;
    for (const auto& [request, job] : sample) replayed.push_back(request);
    replay(replayed, false, args, report);
  }
}

// --- noisy-wide -----------------------------------------------------------------

namespace {

constexpr int kWideShots = 8;
constexpr int kWave = 4;  // jobs outstanding: 3 on QX5, 1 on Eagle

/// The fixed circuit families of noisy-wide (structure fixed, angles from
/// the seed): a 5-qubit RY ansatz with full entanglement, a 4-qubit QFT on a
/// product state, and a 4-qubit random H/T/RZ/CX body. Their sizes are
/// chosen so that each costs about the same on QX5 (~70-80 compiled ops,
/// ~0.2 s at 8 shots on a 4-core machine): whichever job of a wave takes
/// the pool first, the wave's job latencies then land in the same places.
QuantumCircuit wide_family(int family, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> angles(10);
  for (double& a : angles) a = rng.uniform(-PI, PI);
  switch (family) {
    case 0:
      return measured(ry_full(5, 1, angles));
    case 1:
      return measured(qft(4, angles));
    default:
      return measured(reangled(random_htrzcx(4, 48, 7), seed));
  }
}

}  // namespace

void run_noisy_wide(const Args& args, Report& report) {
  std::unique_ptr<ExecutionService> svc;
  std::unique_ptr<arch::Backend> qx5, eagle;
  std::vector<double> backend_ms, setups;
  // Every set-up rebuilds the loop's backends; the checks after the loop
  // run against these identical copies.
  const arch::Backend qx5_probe = arch::qx5_backend();
  const arch::Backend eagle_probe = eagle_backend();
  const auto request = [&](int family, const arch::Backend& backend,
                           std::uint64_t seed) {
    Request r;
    r.circuit = wide_family(family, seed);
    r.payload = qbin::encode(r.circuit);
    r.backend = &backend;
    r.options.shots = kWideShots;
    r.options.seed = seed;
    return r;
  };
  const Request warmup = request(0, qx5_probe, kWarmupSeed);
  const auto build = [&] {
    qx5 = std::make_unique<arch::Backend>(arch::qx5_backend());
    eagle = std::make_unique<arch::Backend>(eagle_backend());
  };

  ServiceLoop loop;
  std::vector<std::pair<Request, JobResult>> sample;
  std::uint64_t job_seq = 0;
  int eagle_failed = 0, eagle_done = 0;
  // Each quarter of the run goes to a freshly set-up service.
  SpreadSetups spread(args.seconds, [&](int) {
    setup_service(svc, build, warmup, setups, backend_ms, report);
  });
  for (int wave = 0; spread.elapsed() < args.seconds; ++wave) {
    const auto started = Clock::now();
    std::vector<Submitted> jobs;
    for (int j = 0; j < kWave; ++j) {
      // Every family once on QX5, so all waves carry the same work, and
      // the families in turn on Eagle.
      const bool on_eagle = j == kWave - 1;
      const int family = on_eagle ? wave % 3 : j;
      const std::uint64_t seed = derive_stream_seed(args.seed, job_seq++);
      jobs.push_back(loop.submit(
          *svc, request(family, on_eagle ? *eagle : *qx5, seed),
          on_eagle ? "eagle" : "qx5"));
    }
    double wave_ms = 0;
    std::uint64_t verified = 0;
    for (const Submitted& s : jobs) {
      const JobResult r = s.handle.result();
      wave_ms = std::max(
          wave_ms,
          1e3 * std::chrono::duration<double>(s.submit_at - started).count() +
              loop.record(s, r));
      const bool on_eagle = s.request.backend == eagle.get();
      const int clbits = s.request.circuit.num_clbits();
      bool ok = false;
      if (r.state == JobState::Done) {
        ok = counts_well_formed(r.counts, kWideShots, clbits);
        if (ok) ++verified;
        if (on_eagle) ++eagle_done;
      } else if (on_eagle && r.state == JobState::Failed &&
                 is_known_width_defect(r.error)) {
        ok = true;  // the documented heavy-hex defect, counted in ok_ratio
        ++eagle_failed;
      }
      if (!report.check(ok, "noisy-wide job " + std::to_string(r.id) + " " +
                                service::to_string(r.state) + " " + r.error))
        ++report.failed;
      if (wave == 0) {
        Request checked = s.request;
        checked.backend = on_eagle ? &eagle_probe : &qx5_probe;
        sample.emplace_back(std::move(checked), r);
      }
    }
    loop.stats.verified += verified;
    loop.stats.iter_ms.push_back(wave_ms);
    loop.round_done(verified, started);
  }
  spread.finish();
  report.metric("setup_s", median(setups), "s");
  loop.report(report, args.trace);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");  // before the checks
  report.note("known defect: " + std::to_string(eagle_failed) + " of " +
              std::to_string(eagle_failed + eagle_done) +
              " Eagle jobs failed (127-qubit compiled circuit reaches the "
              "array engine)");

  std::vector<Request> suite;
  for (int family = 0; family < 3; ++family)
    for (const arch::Backend* b : {&qx5_probe, &eagle_probe})
      suite.push_back(request(family, *b, args.seed));
  report_routing_quality(suite, report);
  check_sample(sample, false, report);
  if (args.trace) {
    report.metric("arch.backend_build_ms", median(backend_ms), "ms");
    report_call_costs(report);
    std::vector<Request> replayed;
    for (const auto& [r, job] : sample) replayed.push_back(r);
    replay(replayed, false, args, report);
  }
}

}  // namespace qtc::perfbench

