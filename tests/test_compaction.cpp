// Logical-width execution: the trajectory engine simulates only the qubits a
// compiled circuit touches, the backend noise model is built only for them,
// and plans with nothing random before their final measurements simulate
// once and sample every shot from the final state. Compaction must be exact
// (bitwise equal to the same circuit restricted by hand), keep readout
// errors on their physical qubits, and let small jobs complete on devices of
// any size; sample-once keeps the engine's determinism contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "core/parallel.hpp"
#include "exec/execute.hpp"
#include "noise/channel.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "service/execution_service.hpp"
#include "sim/dispatch.hpp"
#include "transpiler/transpile.hpp"
#include "noise_stats.hpp"

namespace qtc::noise {
namespace {

/// A noisy 4-qubit job with non-Clifford gates (so it needs the array
/// engine) and entanglement across all four qubits.
QuantumCircuit noisy_job() {
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).t(1).ry(0.7, 2).cx(1, 2).rz(0.3, 3).cx(2, 3).cx(3, 0);
  qc.measure_all();
  return qc;
}

QuantumCircuit compile_for(const QuantumCircuit& qc,
                           const arch::Backend& backend) {
  transpiler::TranspileOptions opts;
  opts.trials = 2;
  opts.seed = 5;
  return transpiler::transpile(qc, backend, opts).circuit;
}

/// A noisy job placed by hand on the device's last three couplers that
/// avoid qubit 0 (native 2q gate, every touched qubit measured), so the
/// plan's relabeling is far from the identity.
QuantumCircuit placed_job(const arch::Backend& backend) {
  const OpKind entangler =
      backend.is_basis_gate(OpKind::ECR) ? OpKind::ECR : OpKind::CX;
  QuantumCircuit qc(backend.num_qubits(), 6);
  std::vector<Qubit> touched;
  const auto& edges = backend.coupling_map().edges();
  for (auto it = edges.rbegin(); it != edges.rend() && touched.size() < 6;
       ++it) {
    const auto [a, b] = *it;
    if (a == 0 || b == 0) continue;
    qc.h(a).t(b).gate(entangler, {a, b}).ry(0.4, b);
    for (Qubit q : {a, b})
      if (std::find(touched.begin(), touched.end(), q) == touched.end())
        touched.push_back(q);
  }
  for (std::size_t c = 0; c < touched.size() && c < 6; ++c)
    qc.measure(touched[c], static_cast<int>(c));
  return qc;
}

/// `qc` relabeled by hand onto its active qubits (ascending; barriers keep
/// their active wires), with `noise`'s channels and readout errors re-keyed
/// to match: what a compacted plan must reproduce bit for bit.
struct Restricted {
  QuantumCircuit circuit;
  NoiseModel noise;
};

Restricted restrict_to_active(const QuantumCircuit& qc,
                              const NoiseModel& noise) {
  const std::vector<Qubit> active = qc.active_qubits();
  std::vector<int> index(static_cast<std::size_t>(qc.num_qubits()), -1);
  for (std::size_t i = 0; i < active.size(); ++i)
    index[active[i]] = static_cast<int>(i);
  Restricted r{QuantumCircuit(static_cast<int>(active.size()),
                              qc.num_clbits()),
               NoiseModel{}};
  for (const Operation& op : qc.ops()) {
    Operation moved = op;
    std::erase_if(moved.qubits, [&](Qubit q) { return index[q] < 0; });
    if (moved.qubits.empty()) continue;
    for (Qubit& q : moved.qubits) q = index[q];
    if (op_is_unitary(op.kind))
      if (const ChannelPtr channel = noise.error_for(op))
        r.noise.add_qubit_error(channel, op.kind, moved.qubits);
    r.circuit.append(std::move(moved));
  }
  for (std::size_t i = 0; i < active.size(); ++i)
    if (const ReadoutError* e = noise.readout_error(active[i]))
      r.noise.set_readout_error(static_cast<int>(i), *e);
  return r;
}

/// Restores every knob this file touches, whatever the test outcome.
struct KnobGuard {
  ~KnobGuard() {
    parallel::set_num_threads(0);
    set_trajectory_parallel(-1);
  }
};

TEST(Compaction, PlanRunsAtTheActiveWidthAndMatchesHandRestriction) {
  for (const arch::Backend& backend :
       {arch::qx5_backend(), arch::heavy_hex_backend(7)}) {
    const NoiseModel model = from_backend(backend);
    const QuantumCircuit placed = placed_job(backend);
    ASSERT_GT(placed.active_qubits().front(), 0);
    for (const QuantumCircuit& circuit :
         {compile_for(noisy_job(), backend), placed}) {
      const std::vector<Qubit> active = circuit.active_qubits();
      const TrajectoryPlan plan = compile_trajectory_plan(circuit, model);
      EXPECT_EQ(plan.num_qubits, static_cast<int>(active.size()));
      EXPECT_EQ(plan.physical_qubits, active);
      EXPECT_LT(plan.num_qubits, backend.num_qubits());
      EXPECT_FALSE(plan.sample_once);  // gate channels make shots random

      const Restricted by_hand = restrict_to_active(circuit, model);
      const sim::Counts compacted =
          TrajectorySimulator(41).run(circuit, model, 300);
      const sim::Counts reference =
          TrajectorySimulator(41).run(by_hand.circuit, by_hand.noise, 300);
      EXPECT_EQ(compacted.histogram, reference.histogram)
          << backend.num_qubits() << "-qubit backend, active from "
          << active.front();
    }
  }
}

TEST(Compaction, ReadoutErrorOnAHighPhysicalQubitStillFires) {
  // Only physical qubits 3 and 15 are active, so they become plan qubits 0
  // and 1; their readout errors must still be found under 3 and 15. Qubit 3
  // always reads 1 as 0, qubit 15 always reads 0 as 1: the outcome is "10".
  QuantumCircuit qc(16, 2);
  qc.x(3).measure(3, 0).measure(15, 1);
  NoiseModel readout_only;
  readout_only.set_readout_error(3, {1.0, 0.0});
  readout_only.set_readout_error(15, {0.0, 1.0});
  NoiseModel with_channel = readout_only;  // forces the per-shot path
  with_channel.add_qubit_error(bit_flip(0.0), OpKind::X, {3});
  for (const NoiseModel* model : {&readout_only, &with_channel}) {
    const TrajectoryPlan plan = compile_trajectory_plan(qc, *model);
    EXPECT_EQ(plan.num_qubits, 2);
    EXPECT_EQ(plan.physical_qubits, (std::vector<int>{3, 15}));
    EXPECT_EQ(plan.sample_once, model == &readout_only);
    const sim::Counts counts = TrajectorySimulator(3).run(qc, *model, 200);
    EXPECT_EQ(counts.count("10"), 200);
  }
}

TEST(Compaction, RestrictedModelGivesTheFullModelsChannels) {
  for (const arch::Backend& backend :
       {arch::qx5_backend(), arch::heavy_hex_backend(7)}) {
    const QuantumCircuit compiled = compile_for(noisy_job(), backend);
    const std::vector<Qubit> active = compiled.active_qubits();
    const NoiseModel full = from_backend(backend);
    const NoiseModel restricted = from_backend(backend, active);
    int noisy = 0;
    for (const Operation& op : compiled.ops()) {
      if (!op_is_unitary(op.kind)) continue;
      const ChannelPtr a = full.error_for(op);
      const ChannelPtr b = restricted.error_for(op);
      ASSERT_EQ(a != nullptr, b != nullptr) << op_name(op.kind);
      if (!a) continue;
      ++noisy;
      ASSERT_EQ(a->ops.size(), b->ops.size());
      for (std::size_t k = 0; k < a->ops.size(); ++k)
        EXPECT_TRUE(a->ops[k].approx_equal(b->ops[k], 0.0));
    }
    EXPECT_GT(noisy, 0);
    for (Qubit q : active) {
      ASSERT_NE(restricted.readout_error(q), nullptr);
      EXPECT_EQ(restricted.readout_error(q)->p0_given_1,
                full.readout_error(q)->p0_given_1);
    }
    // Qubits outside the set get nothing, not even a readout error.
    for (int q = 0; q < backend.num_qubits(); ++q) {
      if (std::find(active.begin(), active.end(), q) == active.end()) {
        EXPECT_EQ(restricted.readout_error(q), nullptr) << q;
      }
    }
  }
}

TEST(Compaction, NoisyJobsCompleteOnEagleAndCondor) {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  service::ExecutionService svc(cfg);
  for (int distance : {7, 21}) {
    const arch::Backend backend = arch::heavy_hex_backend(distance);
    arch::Backend::RunOptions run_opts;
    run_opts.shots = 64;
    run_opts.seed = 9;
    const sim::Counts direct = backend.run(noisy_job(), run_opts);
    EXPECT_EQ(direct.shots, 64);

    exec::ExecuteOptions opts;
    opts.shots = 64;
    opts.seed = 9;
    const service::JobResult job =
        svc.submit(noisy_job(), backend, opts).result();
    ASSERT_EQ(job.state, service::JobState::Done)
        << backend.num_qubits() << " qubits: " << job.error;
    EXPECT_EQ(job.counts.histogram, direct.histogram);
  }
}

TEST(Compaction, Qx5CountsMatchDensityMatrixOnTheActiveQubits) {
  const arch::Backend backend = arch::qx5_backend();
  QuantumCircuit logical(3, 3);
  logical.h(0).cx(0, 1).t(1).cx(1, 2).ry(0.9, 2);
  logical.measure_all();
  exec::ExecuteOptions options;
  options.shots = 20000;
  options.seed = 1312;
  const exec::ExecuteResult result = exec::execute(logical, backend, options);

  // The exact reference defers every measurement to the end, which holds
  // when no op touches a wire after its measurement.
  ASSERT_TRUE(sim::profile_circuit(result.compiled).measurements_final);
  const Restricted active =
      restrict_to_active(result.compiled, from_backend(backend));
  ASSERT_LT(active.circuit.num_qubits(), backend.num_qubits());
  expect_statistical_match(
      result.counts, exact_distribution(active.circuit, active.noise), 0.03);
}

TEST(Compaction, TranspiledGhzOnEagleDispatchesToStabilizer) {
  // The ECR/RZ/SX lowering hides Clifford gates from a kind-only check;
  // the angle-aware predicate must see through it.
  const arch::Backend eagle = arch::heavy_hex_backend(7);
  const int n = 20;
  QuantumCircuit ghz(n, n);
  ghz.h(0);
  for (int q = 1; q < n; ++q) ghz.cx(q - 1, q);
  ghz.measure_all();
  const NoiseModel ideal;
  exec::ExecuteOptions opts;
  opts.shots = 512;
  opts.seed = 17;
  opts.noise_model = &ideal;
  const exec::ExecuteResult r = exec::execute(ghz, eagle, opts);
  EXPECT_EQ(r.engine, sim::Engine::Stabilizer) << r.dispatch_reason;
  EXPECT_EQ(r.counts.count(std::string(n, '0')) +
                r.counts.count(std::string(n, '1')),
            512);
}

// --- sample-once -------------------------------------------------------------

QuantumCircuit dense_circuit() {
  QuantumCircuit qc(5, 5);
  for (int layer = 0; layer < 3; ++layer) {
    for (int q = 0; q < 5; ++q) qc.h(q).t(q).rz(0.2 * (q + layer), q);
    for (int q = 0; q + 1 < 5; ++q) qc.cx(q, q + 1);
  }
  qc.measure_all();
  return qc;
}

TEST(SampleOnce, AppliesOnlyWhenNothingRandomPrecedesTheFinalMeasurements) {
  const QuantumCircuit dense = dense_circuit();
  const NoiseModel none;
  EXPECT_TRUE(compile_trajectory_plan(dense, none).sample_once);
  NoiseModel readout;
  readout.set_readout_error(2, {0.1, 0.2});
  EXPECT_TRUE(compile_trajectory_plan(dense, readout).sample_once);

  NoiseModel gate_noise;
  gate_noise.add_all_qubit_error(depolarizing(0.01), OpKind::T);
  EXPECT_FALSE(compile_trajectory_plan(dense, gate_noise).sample_once);

  QuantumCircuit mid(2, 2);
  mid.h(0).measure(0, 0).cx(0, 1).measure(1, 1);  // gate after a measurement
  EXPECT_FALSE(compile_trajectory_plan(mid, none).sample_once);
  QuantumCircuit reset(2, 2);
  reset.h(0).reset(0).h(1).measure_all();
  EXPECT_FALSE(compile_trajectory_plan(reset, none).sample_once);
  QuantumCircuit conditioned(2, 2);
  conditioned.h(0).x(1).c_if(0, 1).measure_all();
  EXPECT_FALSE(compile_trajectory_plan(conditioned, none).sample_once);
}

TEST(SampleOnce, CountsAreThreadInvariantAndShotPrefixStable) {
  KnobGuard guard;
  const QuantumCircuit qc = dense_circuit();
  NoiseModel readout;
  readout.set_readout_error(1, {0.05, 0.1});
  readout.set_readout_error(4, {0.2, 0.0});
  for (const NoiseModel& model : {NoiseModel{}, readout}) {
    parallel::set_num_threads(1);
    const sim::Counts serial = TrajectorySimulator(77).run(qc, model, 2000);
    parallel::set_num_threads(4);
    EXPECT_EQ(TrajectorySimulator(77).run(qc, model, 2000).histogram,
              serial.histogram);
    set_trajectory_parallel(0);
    EXPECT_EQ(TrajectorySimulator(77).run(qc, model, 2000).histogram,
              serial.histogram);
    set_trajectory_parallel(-1);

    // Shot s depends only on (seed, s): one more shot adds one outcome.
    sim::Counts previous;
    for (int shots = 1; shots <= 40; ++shots) {
      const sim::Counts counts = TrajectorySimulator(78).run(qc, model, shots);
      int added = 0;
      for (const auto& [bits, c] : counts.histogram) {
        const int before = previous.count(bits);
        ASSERT_GE(c, before) << bits;
        added += c - before;
      }
      ASSERT_EQ(added, 1) << "shots " << shots;
      previous = counts;
    }
  }
}

TEST(SampleOnce, NoiselessSamplesFollowTheExactDistribution) {
  // The single-pass sampler draws from the same final state the per-shot
  // path would reach; readout errors still fold in per shot.
  const QuantumCircuit qc = dense_circuit();
  NoiseModel readout;
  readout.set_readout_error(0, {0.1, 0.05});
  readout.set_readout_error(3, {0.0, 0.3});
  const sim::Counts counts = TrajectorySimulator(5).run(qc, readout, 20000);
  expect_statistical_match(counts, exact_distribution(qc, readout), 0.05);
}

}  // namespace
}  // namespace qtc::noise
