#include "noise/trajectory.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/config.hpp"
#include "core/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/statevector.hpp"

namespace qtc::noise {

namespace {

/// Stochastically apply one Kraus operator: candidate states K_k|psi> are
/// selected with probability ||K_k psi||^2 and renormalized. `candidate` is
/// caller-owned scratch so the per-gate hot loop reuses one allocation
/// across the whole trajectory.
void sample_kraus(sim::Statevector& sv, const KrausChannel& channel,
                  const std::vector<int>& qubits, Rng& rng,
                  sim::Statevector& candidate) {
  const double r = rng.uniform();
  const std::size_t nops = channel.ops.size();
  double acc = 0;
  for (std::size_t k = 0; k + 1 < nops; ++k) {
    candidate = sv;  // copy-assign reuses the scratch buffer's capacity
    candidate.apply_matrix(channel.ops[k], qubits);
    const double norm = candidate.norm();
    acc += norm * norm;
    if (r < acc) {
      candidate.normalize();
      std::swap(sv, candidate);
      return;
    }
  }
  // Fall through to the last operator (also the only one for a 1-op
  // channel): apply in place, no candidate copy needed.
  sv.apply_matrix(channel.ops[nops - 1], qubits);
  sv.normalize();
}

/// Fuse `segment` (a stretch of unconditioned noiseless unitary gates and
/// barriers) and splice the resulting kernels into the plan.
void flush_segment(QuantumCircuit& segment, const sim::FusionConfig& config,
                   TrajectoryPlan& plan) {
  if (segment.ops().empty()) return;
  sim::FusedCircuit fused = sim::fuse_circuit(segment, config);
  if (!fused.ops.empty()) ++plan.fused_segments;
  plan.state_sweeps += fused.state_sweeps;
  for (auto& f : fused.ops)
    plan.steps.push_back(TrajectoryPlan::Step{std::move(f), nullptr});
  segment.ops().clear();
}

/// An unconditioned measurement step: the only kind the final layer of a
/// sample-once plan holds.
bool is_final_measure(const TrajectoryPlan::Step& step) {
  return step.fused.kind == sim::FusedOp::Kind::Op &&
         step.fused.op.kind == OpKind::Measure && !step.fused.op.conditioned();
}

}  // namespace

bool trajectory_parallel() {
  return config::enabled(config::Knob::TrajParallel);
}

void set_trajectory_parallel(int enabled) {
  config::set_flag_override(config::Knob::TrajParallel, enabled);
}

TrajectoryPlan compile_trajectory_plan(const QuantumCircuit& circuit,
                                       const NoiseModel& noise) {
  const sim::FusionConfig config = sim::fusion_config();
  TrajectoryPlan plan;
  plan.physical_qubits = circuit.active_qubits();
  plan.num_qubits = static_cast<int>(plan.physical_qubits.size());
  plan.num_clbits = circuit.num_clbits();
  std::vector<int> plan_index(static_cast<std::size_t>(circuit.num_qubits()),
                              -1);
  for (int i = 0; i < plan.num_qubits; ++i)
    plan_index[static_cast<std::size_t>(plan.physical_qubits[i])] = i;
  QuantumCircuit segment(plan.num_qubits);
  for (const Operation& source : circuit.ops()) {
    if (op_is_unitary(source.kind)) ++plan.source_unitary_gates;
    Operation op = source;
    if (op.kind == OpKind::Barrier) {
      // Idle wires leave the plan, so a barrier keeps only its active ones.
      std::erase_if(op.qubits, [&](Qubit q) { return plan_index[q] < 0; });
      if (op.qubits.empty()) continue;
    }
    for (Qubit& q : op.qubits) q = plan_index[q];
    if (op.kind == OpKind::Barrier && !op.conditioned()) {
      // Barriers only cut fused runs; the planner drops them.
      segment.ops().push_back(std::move(op));
      continue;
    }
    // Channels are keyed by the physical qubits the source op acts on.
    ChannelPtr channel =
        op_is_unitary(op.kind) ? noise.error_for(source) : nullptr;
    if (op_is_unitary(op.kind) && !op.conditioned() && !channel) {
      segment.ops().push_back(std::move(op));  // noiseless: eligible for fusion
      continue;
    }
    // Plan boundary: noisy, conditioned or non-unitary. The channel must
    // fire after this exact gate, so it cannot merge into a fused kernel.
    flush_segment(segment, config, plan);
    if (channel) {
      ++plan.noisy_gates;
      ++plan.state_sweeps;
    } else if (op_is_unitary(op.kind)) {
      ++plan.state_sweeps;  // conditioned noiseless gate
    }
    TrajectoryPlan::Step step;
    step.fused.kind = sim::FusedOp::Kind::Op;
    step.fused.op = std::move(op);
    step.channel = std::move(channel);
    plan.steps.push_back(std::move(step));
  }
  flush_segment(segment, config, plan);

  // Sample-once holds when the steps up to the first measurement are
  // deterministic unitaries and every step from there on is a measurement.
  plan.sample_once = true;
  bool measuring = false;
  for (const TrajectoryPlan::Step& step : plan.steps) {
    if (is_final_measure(step)) {
      measuring = true;
      continue;
    }
    const Operation& op = step.fused.op;
    const bool passthrough = step.fused.kind == sim::FusedOp::Kind::Op;
    if (measuring || step.channel ||
        (passthrough && (!op_is_unitary(op.kind) || op.conditioned()))) {
      plan.sample_once = false;
      break;
    }
  }
  return plan;
}

sim::Counts TrajectorySimulator::run(const QuantumCircuit& circuit,
                                     const NoiseModel& noise, int shots) {
  if (shots <= 0) throw std::invalid_argument("run: shots must be positive");
  const TrajectoryPlan plan = compile_trajectory_plan(circuit, noise);
  const int ncl = plan.num_clbits;
  // Readout errors are keyed by physical qubit, plan qubits are compacted.
  const auto readout = [&](const Operation& measure, int value, Rng& rng) {
    return noise.apply_readout(plan.physical_qubits[measure.qubits[0]], value,
                               rng);
  };

  // Trajectories are independent given their seed-derived RNG streams, so
  // they run in parallel; outcomes are recorded in shot order afterwards,
  // making the Counts identical for a fixed seed whatever the thread count.
  std::vector<std::uint64_t> outcomes(shots, 0);
  const auto body = [&](std::uint64_t s0, std::uint64_t s1) {
    sim::Statevector kraus_scratch(plan.num_qubits);
    for (std::uint64_t s = s0; s < s1; ++s) {
      Rng rng(derive_stream_seed(seed_, s));
      sim::Statevector sv(plan.num_qubits);
      std::vector<int> clbits(ncl, 0);
      for (const TrajectoryPlan::Step& step : plan.steps) {
        const sim::FusedOp& f = step.fused;
        if (f.kind != sim::FusedOp::Kind::Op) {
          sim::apply_fused_op(sv, f);
          continue;
        }
        const Operation& op = f.op;
        if (op.conditioned()) {
          const Register& reg = circuit.cregs()[op.cond_reg];
          if (sim::creg_value(reg, clbits) != op.cond_val) continue;
        }
        switch (op.kind) {
          case OpKind::Measure: {
            const int value = sv.measure(op.qubits[0], rng);
            clbits[op.clbits[0]] = readout(op, value, rng);
            break;
          }
          case OpKind::Reset:
            sv.reset(op.qubits[0], rng);
            break;
          case OpKind::Barrier:
            break;
          default: {
            sv.apply(op);
            if (step.channel)
              sample_kraus(sv, *step.channel, op.qubits, rng, kraus_scratch);
          }
        }
      }
      std::uint64_t value = 0;
      for (int c = 0; c < ncl; ++c)
        if (clbits[c]) value |= std::uint64_t{1} << c;
      outcomes[s] = value;
    }
  };

  // Sample-once: every shot shares the state before the final measurements,
  // so simulate it once; a shot draws its basis state, then its readouts.
  auto first_measure = plan.steps.begin();
  std::vector<double> cdf;
  if (plan.sample_once) {
    sim::Statevector sv(plan.num_qubits);
    for (; first_measure != plan.steps.end() &&
           !is_final_measure(*first_measure);
         ++first_measure) {
      const sim::FusedOp& f = first_measure->fused;
      if (f.kind == sim::FusedOp::Kind::Op)
        sv.apply(f.op);  // noiseless passthrough (fusion off)
      else
        sim::apply_fused_op(sv, f);
    }
    cdf = sv.cumulative_probabilities();
  }
  const auto sample_body = [&](std::uint64_t s0, std::uint64_t s1) {
    for (std::uint64_t s = s0; s < s1; ++s) {
      Rng rng(derive_stream_seed(seed_, s));
      const std::uint64_t basis = sim::sample_cdf(cdf, rng.uniform());
      std::uint64_t value = 0;
      for (auto it = first_measure; it != plan.steps.end(); ++it) {
        const Operation& op = it->fused.op;
        const std::uint64_t bit = std::uint64_t{1} << op.clbits[0];
        const int measured = static_cast<int>((basis >> op.qubits[0]) & 1);
        value = readout(op, measured, rng) ? value | bit : value & ~bit;
      }
      outcomes[s] = value;
    }
  };

  const auto run_shots = [&](const auto& shot_range) {
    if (trajectory_parallel())
      parallel::parallel_for(0, static_cast<std::uint64_t>(shots), shot_range,
                             /*serial_cutoff=*/2);
    else
      shot_range(0, static_cast<std::uint64_t>(shots));
  };
  if (plan.sample_once)
    run_shots(sample_body);
  else
    run_shots(body);

  sim::Counts counts;
  for (int s = 0; s < shots; ++s)
    counts.record(sim::format_bits(outcomes[s], ncl));
  return counts;
}

}  // namespace qtc::noise
