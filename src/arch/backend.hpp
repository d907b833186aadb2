#pragma once
// A "backend" in the Qiskit sense: coupling constraints, the native basis
// gate set (U + CNOT on the QX devices, Sec. II-B), and per-gate calibration
// data from which a noise model can be derived. Stands in for the cloud
// device handle returned by IBMQ.get_backend(...) in the paper's Sec. IV.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/coupling_map.hpp"
#include "core/circuit.hpp"
#include "core/gates.hpp"
#include "sim/result.hpp"

namespace qtc::arch {

/// Calibration snapshot for one backend. Values are representative of the
/// published QX device characteristics (error rates ~1e-3 for 1q gates,
/// ~1e-2 for CX, readout error ~2-4%).
struct Calibration {
  std::vector<double> single_qubit_error;  // depolarizing prob per 1q gate
  std::vector<double> readout_error;       // symmetric flip prob per qubit
  std::vector<double> t1_us;               // relaxation times
  std::vector<double> t2_us;               // dephasing times
  // cx_error[i] corresponds to coupling_map.edges()[i]. On a directed map the
  // two orientations of a coupler are distinct edges with distinct entries.
  std::vector<double> cx_error;
  // Per-edge 2q gate duration (microseconds), same indexing as cx_error.
  // Empty means "uniform": every edge takes gate_time_cx_us.
  std::vector<double> cx_duration_us;
  // Gate durations (microseconds), used to scale thermal relaxation.
  double gate_time_1q_us = 0.05;
  double gate_time_cx_us = 0.3;
};

/// Native gate set families. The paper's QX devices implement U + CX; the
/// heavy-hex generations (Eagle/Osprey/Condor) implement ECR + RZ + SX + X.
enum class BasisSet {
  UCX,
  EcrRzSx,
};

/// Immutable value type. The coupling map and calibration (with the
/// coupling map's n x n distance and edge-index tables) live in one shared
/// block, so copying a Backend — once per submitted service job — is a
/// reference-count bump, never a deep copy of a heavy-hex device.
class Backend {
 public:
  Backend(CouplingMap coupling, Calibration calibration,
          BasisSet basis = BasisSet::UCX)
      : device_(std::make_shared<const Device>(
            Device{std::move(coupling), std::move(calibration)})),
        basis_(basis) {}

  const std::string& name() const { return device_->coupling.name(); }
  int num_qubits() const { return device_->coupling.num_qubits(); }
  const CouplingMap& coupling_map() const { return device_->coupling; }
  const Calibration& calibration() const { return device_->calibration; }
  BasisSet basis() const { return basis_; }

  /// Native gates. UCX devices implement U(theta,phi,lambda) and CX; named 1q
  /// gates (H, T, ...) are aliases the device compiles to U. EcrRzSx devices
  /// implement the modern directed two-qubit ECR plus virtual RZ and SX / X.
  bool is_basis_gate(OpKind kind) const {
    if (kind == OpKind::Measure || kind == OpKind::Reset ||
        kind == OpKind::Barrier || kind == OpKind::I)
      return true;
    if (basis_ == BasisSet::EcrRzSx)
      return kind == OpKind::ECR || kind == OpKind::RZ ||
             kind == OpKind::SX || kind == OpKind::X;
    return kind == OpKind::U || kind == OpKind::U2 || kind == OpKind::P ||
           kind == OpKind::CX;
  }

  /// Calibrated two-qubit gate error for control -> target. Direction-exact:
  /// resolves the requested orientation through the coupling map's O(1)
  /// edge-index table, falling back to the reverse orientation only when the
  /// exact direction is not a native edge (undirected couplers). Throws if
  /// the pair is not coupled at all.
  double cx_error(int control, int target) const;
  /// Calibrated two-qubit gate duration (us), same lookup rules. Edges
  /// without a per-edge entry report the uniform gate_time_cx_us.
  double cx_duration(int control, int target) const;

  /// Options for run(): the execute(qc, backend, shots) call of the paper's
  /// Sec. IV, with the cloud device replaced by the noisy backend model.
  struct RunOptions {
    int shots = 1024;
    std::uint64_t seed = 0xC0FFEE;
    /// Compile (decompose, place & route, legalize CX directions) before
    /// executing. Turn off only for circuits already in physical form.
    bool transpile = true;
  };

  /// Noisy "hardware" execution: compile -> map -> execute -> counts. The
  /// circuit is transpiled for this backend, a calibration-derived noise
  /// model is attached, and the parallel Monte-Carlo trajectory engine
  /// samples the shots (fixed-seed counts are thread-count invariant).
  /// Defined in src/exec/execute.cpp — callers link qtc_exec; see
  /// exec::execute for the full-result variant (compiled circuit + layout).
  sim::Counts run(const QuantumCircuit& circuit,
                  const RunOptions& options) const;
  sim::Counts run(const QuantumCircuit& circuit) const {
    return run(circuit, RunOptions{});
  }

 private:
  int pair_edge_index(int control, int target) const;

  struct Device {
    CouplingMap coupling;
    Calibration calibration;
  };
  std::shared_ptr<const Device> device_;
  BasisSet basis_ = BasisSet::UCX;
};

/// Synthesize a plausible calibration for any coupling map (deterministic,
/// derived from qubit/edge indices so tests are stable).
Calibration default_calibration(const CouplingMap& map);

/// Synthesize heavy-hex-style calibration: per-direction ECR errors spanning
/// roughly a decade (median ~1e-2, with deterministic "bad couplers"), 1q
/// errors a few 1e-4, and per-edge durations in the real 300-650 ns range.
/// Deterministic (splitmix64 over indices) so tests and benches are stable.
/// The wide contrast is what makes fidelity-aware mapping measurable.
Calibration heavy_hex_calibration(const CouplingMap& map);

/// The five-qubit QX4 backend of the paper's run-through (Sec. IV).
Backend qx4_backend();
/// The sixteen-qubit QX5 backend.
Backend qx5_backend();
/// A heavy-hex backend at code distance d (127 qubits for d = 7, 433 for
/// d = 13, 1121 for d = 21) with the directed ECR / RZ / SX native basis and
/// synthesized per-direction calibration.
Backend heavy_hex_backend(int distance);

}  // namespace qtc::arch
