#pragma once
// End-to-end noisy execution: the `execute(circ, backend, shots)` call of
// the paper's Sec. IV. Ties the toolchain layers together — transpile to
// the backend's coupling map and basis, derive a noise model from its
// calibration data, and sample shots with the parallel Monte-Carlo
// trajectory engine — so "running on hardware" is one call. This module
// sits above arch/transpiler/noise in the dependency order; it also
// provides the out-of-line definition of arch::Backend::run.

#include <cstdint>

#include "arch/backend.hpp"
#include "core/circuit.hpp"
#include "map/mapping.hpp"
#include "noise/noise_model.hpp"
#include "sim/dispatch.hpp"
#include "sim/result.hpp"
#include "transpiler/transpile.hpp"

namespace qtc::exec {

struct ExecuteOptions {
  int shots = 1024;
  std::uint64_t seed = 0xC0FFEE;
  /// Compile for the backend first (decompose to {U, CX}, place & route,
  /// legalize CX directions). When false the circuit must already satisfy
  /// the backend's coupling map.
  bool transpile = true;
  /// Noise model to execute under (used in place, not copied); nullptr
  /// derives one from the backend's calibration data, restricted to the
  /// qubits the compiled circuit touches (noise::from_backend).
  const noise::NoiseModel* noise_model = nullptr;
  transpiler::TranspileOptions transpile_options{};
  /// Serve compilation from the global TranspileCache (when it is enabled —
  /// see QTC_TRANSPILE_CACHE). Hybrid loops re-executing the same ansatz
  /// structure with new angles then skip layout + routing entirely.
  bool use_transpile_cache = true;
  /// Simulation engine. Auto lets the dispatcher pick from the circuit's
  /// structure (see sim/dispatch.hpp; noisy runs always use the trajectory
  /// engine). An explicit engine always wins — but requesting Stabilizer or
  /// DecisionDiagram together with an active noise model throws, since
  /// neither can apply Kraus channels.
  sim::Engine engine = sim::Engine::Auto;
};

struct ExecuteResult {
  sim::Counts counts;
  /// The physical circuit actually executed (the input when transpile=false).
  QuantumCircuit compiled;
  map::Layout initial_layout;
  map::Layout final_layout;
  int swaps_inserted = 0;
  /// Whether compilation was served from the transpile cache, and how many
  /// mapper layout trials ran (0 on a cache hit or with transpile=false).
  bool transpile_cache_hit = false;
  int mapper_trials = 0;
  /// The engine that actually sampled the shots, and why the dispatcher
  /// picked it ("explicit override" when options.engine was not Auto).
  sim::Engine engine = sim::Engine::Statevector;
  const char* dispatch_reason = "";
};

/// Compile `circuit` for `backend`, attach its noise model, and execute on
/// the parallel trajectory engine at the compiled circuit's active width
/// (see noise/trajectory.hpp), so a small job runs on any device size.
/// Counts read through the circuit's classical bits, so they are directly
/// comparable with a logical-circuit simulation. Deterministic for a fixed
/// seed, independent of thread count.
ExecuteResult execute(const QuantumCircuit& circuit,
                      const arch::Backend& backend,
                      const ExecuteOptions& options = {});

}  // namespace qtc::exec
