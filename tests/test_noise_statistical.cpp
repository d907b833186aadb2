// Statistical-equivalence harness for the Monte-Carlo trajectory engine:
// the density-matrix simulator evolves the exact mixed state, its diagonal
// (folded through the classical readout-error channel) is the ground-truth
// outcome distribution, and the parallel trajectory counts must match it
// under both a chi-square goodness-of-fit bound and a total-variation bound.
// All seeds are fixed, so every assertion is deterministic; the thresholds
// are generous enough to never flake yet far below what a wrong engine
// (missing channel, readout applied twice, broken Kraus sampling) produces.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "arch/backend.hpp"
#include "exec/execute.hpp"
#include "noise/channel.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"
#include "noise_stats.hpp"

namespace qtc::noise {
namespace {

// --- depolarizing -------------------------------------------------------------

TEST(NoiseStatistical, DepolarizedBellMatchesDensityMatrix) {
  NoiseModel model;
  model.add_all_qubit_error(depolarizing2(0.15), OpKind::CX);
  model.add_all_qubit_error(depolarizing(0.03), OpKind::H);
  QuantumCircuit qc(2, 2);
  qc.h(0).cx(0, 1).measure_all();
  TrajectorySimulator traj(101);
  const auto counts = traj.run(qc, model, 20000);
  expect_statistical_match(counts, exact_distribution(qc, model), 0.02);
}

TEST(NoiseStatistical, UniformDepolarizingRandom4qMatchesDensityMatrix) {
  const NoiseModel model = uniform_depolarizing(0.01, 0.05, 0.02);
  QuantumCircuit qc(4, 4);
  qc.h(0).cx(0, 1).t(1).cx(1, 2).rz(0.7, 2).h(3).cx(2, 3).sx(0).cx(3, 0);
  qc.measure_all();
  TrajectorySimulator traj(202);
  const auto counts = traj.run(qc, model, 20000);
  expect_statistical_match(counts, exact_distribution(qc, model), 0.03);
}

// --- amplitude damping --------------------------------------------------------

TEST(NoiseStatistical, AmplitudeDampedGhzMatchesDensityMatrix) {
  NoiseModel model;
  model.add_all_qubit_error(amplitude_damping(0.2), OpKind::H);
  model.add_all_qubit_error(
      tensor(amplitude_damping(0.12), amplitude_damping(0.12)), OpKind::CX);
  QuantumCircuit qc(3, 3);
  qc.h(0).cx(0, 1).cx(1, 2).x(2).measure_all();
  TrajectorySimulator traj(303);
  const auto counts = traj.run(qc, model, 20000);
  expect_statistical_match(counts, exact_distribution(qc, model), 0.025);
}

// --- readout noise ------------------------------------------------------------

TEST(NoiseStatistical, AsymmetricReadoutMatchesExactFolding) {
  NoiseModel model;
  model.set_readout_error(0, {0.08, 0.02});
  model.set_readout_error(1, {0.01, 0.12});
  model.set_readout_error(2, {0.05, 0.05});
  QuantumCircuit qc(3, 3);
  qc.x(0).h(1).x(2).measure_all();
  const auto expected = exact_distribution(qc, model);
  TrajectorySimulator traj(404);
  expect_statistical_match(traj.run(qc, model, 20000), expected, 0.025);
  // The density-matrix sampler applies the same readout channel when
  // sampling, so its own counts must fit its own exact diagonal as well.
  DensityMatrixSimulator dms(505);
  expect_statistical_match(dms.run(qc, model, 20000).counts, expected, 0.025);
}

// --- mixed channels, 5 qubits -------------------------------------------------

TEST(NoiseStatistical, MixedChannels5qMatchesDensityMatrix) {
  NoiseModel model;
  model.add_all_qubit_error(compose(amplitude_damping(0.05), phase_flip(0.02)),
                            OpKind::H);
  model.add_all_qubit_error(depolarizing2(0.04), OpKind::CX);
  model.set_readout_error(2, {0.03, 0.03});
  QuantumCircuit qc(5, 5);
  qc.h(0).cx(0, 1).cx(1, 2).h(3).cx(3, 4).cx(2, 3).h(4);
  qc.measure_all();
  TrajectorySimulator traj(606);
  const auto counts = traj.run(qc, model, 30000);
  expect_statistical_match(counts, exact_distribution(qc, model), 0.035);
}

// --- end-to-end backend execution --------------------------------------------

TEST(NoiseStatistical, BackendRunMatchesDensityMatrixOnCompiledCircuit) {
  // The paper's Sec. IV loop: compile for QX4, execute on the noisy backend
  // model. The trajectory counts of Backend::run must match the exact
  // density-matrix distribution of the *compiled* circuit under the
  // calibration-derived noise model.
  const arch::Backend backend = arch::qx4_backend();
  QuantumCircuit logical(2, 2);
  logical.h(0).cx(0, 1).measure_all();
  exec::ExecuteOptions options;
  options.shots = 20000;
  options.seed = 707;
  const exec::ExecuteResult result = exec::execute(logical, backend, options);
  EXPECT_EQ(result.counts.shots, options.shots);

  // Guard the harness precondition: measurements form the final layer.
  bool seen_measure = false, measure_final = true;
  for (const auto& op : result.compiled.ops()) {
    if (op.kind == OpKind::Measure) seen_measure = true;
    else if (seen_measure && op.kind != OpKind::Barrier) measure_final = false;
  }
  ASSERT_TRUE(measure_final);

  const NoiseModel model = from_backend(backend);
  expect_statistical_match(result.counts,
                           exact_distribution(result.compiled, model), 0.03);

  // Backend::run is the thin counts-only wrapper over the same engine.
  arch::Backend::RunOptions run_options;
  run_options.shots = options.shots;
  run_options.seed = options.seed;
  const sim::Counts counts = backend.run(logical, run_options);
  EXPECT_EQ(counts.histogram, result.counts.histogram);
}

}  // namespace
}  // namespace qtc::noise
