#include "dd/simulator.hpp"

#include <stdexcept>
#include <string>

#include "sim/statevector.hpp"  // format_bits

namespace qtc::dd {

namespace {

/// Enforce the measure-last contract: once a wire is measured, nothing else
/// may act on it. The old behavior — silently skipping mid-circuit measures
/// — returned confidently wrong counts for measure-then-gate circuits.
void require_measure_last(const QuantumCircuit& circuit, const char* api) {
  std::vector<char> measured(circuit.num_qubits(), 0);
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (op.kind == OpKind::Measure) {
      const int q = op.qubits[0];
      if (measured[q])
        throw std::invalid_argument(
            std::string(api) + ": qubit " + std::to_string(q) +
            " is measured twice; measurements must form a single final "
            "layer (measure-last only)");
      measured[q] = 1;
      continue;
    }
    for (int q : op.qubits)
      if (measured[q])
        throw std::invalid_argument(
            std::string(api) + ": mid-circuit measurement — qubit " +
            std::to_string(q) +
            " is used after being measured; the DD engine supports "
            "measure-last circuits only");
  }
}

}  // namespace

DDSimulator::StateHandle DDSimulator::simulate(const QuantumCircuit& circuit) {
  require_measure_last(circuit, "dd::simulate");
  auto pkg = std::make_unique<Package>(circuit.num_qubits());
  // The evolving state is pinned via a ref handle so the collector can
  // reclaim spent gate DDs and intermediate states mid-run.
  Package::VRef state = pkg->hold(pkg->make_zero_state());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier || op.kind == OpKind::Measure) continue;
    if (!op_is_unitary(op.kind) || op.conditioned())
      throw std::invalid_argument(
          "dd::simulate: only unitary, unconditioned circuits");
    const MEdge gate = pkg->make_gate(op_matrix(op.kind, op.params), op.qubits);
    state = pkg->hold(pkg->multiply(gate, state.edge()));
  }
  const VEdge final_state = state.edge();
  return {std::move(pkg), final_state, std::move(state)};
}

std::vector<cplx> DDSimulator::statevector(const QuantumCircuit& circuit) {
  auto handle = simulate(circuit);
  return handle.package->to_vector(handle.state);
}

DDRunResult DDSimulator::run(const QuantumCircuit& circuit, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  require_measure_last(circuit, "dd::run");
  // Run at the circuit's logical width: the package gets one level per
  // active qubit (ascending), so idle wires of a wide device cost nothing.
  // Counts are keyed by clbit and need no translation.
  const std::vector<Qubit> active = circuit.active_qubits();
  DDRunResult result;
  if (active.empty()) {
    result.counts.shots = shots;  // no gates, no measurements
    return result;
  }
  std::vector<int> level(static_cast<std::size_t>(circuit.num_qubits()), -1);
  for (std::size_t i = 0; i < active.size(); ++i)
    level[static_cast<std::size_t>(active[i])] = static_cast<int>(i);
  QuantumCircuit compact(static_cast<int>(active.size()), circuit.num_clbits());
  // Collect the measurement layer; everything else must be unitary.
  std::vector<std::pair<int, int>> qubit_to_clbit;
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Reset || op.conditioned())
      throw std::invalid_argument(
          "dd::run: reset/conditioned circuits are not supported");
    if (op.kind == OpKind::Barrier) continue;
    Operation relabeled = op;
    for (Qubit& q : relabeled.qubits) q = level[static_cast<std::size_t>(q)];
    if (op.kind == OpKind::Measure)
      qubit_to_clbit.emplace_back(relabeled.qubits[0], op.clbits[0]);
    compact.ops().push_back(std::move(relabeled));
  }
  auto handle = simulate(compact);
  result.final_nodes = handle.package->node_count(handle.state);
  const auto& stats = handle.package->stats();
  result.allocated_nodes =
      stats.vector_nodes_allocated + stats.matrix_nodes_allocated;
  result.gc_runs = stats.gc_runs;
  result.freed_nodes = stats.nodes_freed;
  result.reused_nodes = stats.vector_nodes_reused + stats.matrix_nodes_reused;
  result.peak_live_nodes = stats.peak_live_nodes;
  result.compute_hits = stats.compute_hits;
  result.compute_evictions = stats.add_table.evictions +
                             stats.madd_table.evictions +
                             stats.mulv_table.evictions +
                             stats.mulm_table.evictions;
  if (qubit_to_clbit.empty()) {
    result.counts.shots = shots;
    return result;
  }
  // The per-node norm table is cached inside the package, so the O(nodes)
  // preprocessing is paid once here, then each shot costs O(n).
  const int ncl = circuit.num_clbits();
  for (int s = 0; s < shots; ++s) {
    const std::uint64_t basis = handle.package->sample(handle.state, rng_);
    std::uint64_t clbits = 0;
    for (auto [q, c] : qubit_to_clbit)
      if ((basis >> q) & 1) clbits |= std::uint64_t{1} << c;
    result.counts.record(sim::format_bits(clbits, ncl));
  }
  return result;
}

DDSimulator::UnitaryHandle DDSimulator::unitary(const QuantumCircuit& circuit) {
  auto pkg = std::make_unique<Package>(circuit.num_qubits());
  Package::MRef u = pkg->hold(pkg->make_identity());
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (!op_is_unitary(op.kind) || op.conditioned())
      throw std::invalid_argument("dd::unitary: circuit must be unitary");
    const MEdge gate = pkg->make_gate(op_matrix(op.kind, op.params), op.qubits);
    u = pkg->hold(pkg->multiply(gate, u.edge()));  // later gates from the left
  }
  const MEdge unitary = u.edge();
  return {std::move(pkg), unitary, std::move(u)};
}

}  // namespace qtc::dd
