#pragma once
// Decision-diagram based circuit simulator: the JKU add-on simulator the
// paper presents as a Qiskit "success story" (Sec. V-A, refs [5][40]).
// Functionally a drop-in alternative to sim::StatevectorSimulator, but the
// state is a DD, so memory tracks circuit structure instead of 2^n.
//
// Measurement contract: measurements must form a final layer. A circuit in
// which any gate or another measurement acts on a wire after that wire has
// been measured is rejected with std::invalid_argument by simulate(),
// statevector() and run() — silently skipping a mid-circuit measurement
// would return confidently wrong amplitudes/counts, and the DD engine has
// no collapse path. Reset and classically conditioned operations are
// likewise unsupported.
//
// Memory: the simulator pins its evolving state with a Package ref handle,
// so the package's garbage collector (QTC_DD_GC_THRESHOLD) can reclaim
// spent gate DDs and intermediate states while the run is in flight.

#include <cstdint>
#include <memory>

#include "core/circuit.hpp"
#include "dd/package.hpp"
#include "sim/result.hpp"

namespace qtc::dd {

struct DDRunResult {
  sim::Counts counts;
  /// Nodes in the final state DD — the compactness measure of Fig. 3.
  std::size_t final_nodes = 0;
  /// Total vector/matrix nodes ever constructed during the run (free-list
  /// reuses included).
  std::size_t allocated_nodes = 0;
  // --- bounded-memory telemetry (see PackageStats) -------------------------
  std::size_t gc_runs = 0;
  std::size_t freed_nodes = 0;
  std::size_t reused_nodes = 0;
  /// High-water mark of simultaneously live nodes; with GC enabled this is
  /// bounded by the threshold plus one operation's working set, however
  /// deep the circuit.
  std::size_t peak_live_nodes = 0;
  std::size_t compute_hits = 0;
  std::size_t compute_evictions = 0;
};

class DDSimulator {
 public:
  explicit DDSimulator(std::uint64_t seed = 0xC0FFEE) : rng_(seed) {}

  /// Execute with sampling; measurements must form a final layer (no
  /// classical conditioning — mirror of the array simulator's fast path).
  /// Runs at the circuit's logical width: the DD has one level per active
  /// qubit (QuantumCircuit::active_qubits, ascending), so a sparse circuit
  /// on a wide device fits, and the run statistics describe that DD.
  DDRunResult run(const QuantumCircuit& circuit, int shots = 1024);

  /// Final state as a DD, together with the package that owns it. The
  /// package must outlive the edge; `root` keeps the state pinned across
  /// any further garbage collections in that package.
  struct StateHandle {
    std::unique_ptr<Package> package;
    VEdge state;
    Package::VRef root;
  };
  StateHandle simulate(const QuantumCircuit& circuit);

  /// Dense amplitudes of the final state (n <= 26).
  std::vector<cplx> statevector(const QuantumCircuit& circuit);

  /// Full-circuit operator as a matrix DD (the paper's Fig. 3 object).
  struct UnitaryHandle {
    std::unique_ptr<Package> package;
    MEdge unitary;
    Package::MRef root;
  };
  UnitaryHandle unitary(const QuantumCircuit& circuit);

 private:
  Rng rng_;
};

}  // namespace qtc::dd
