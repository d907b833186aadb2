#pragma once
// Block-product circuits shared by the DD test suites: independent 5-qubit
// blocks side by side (rotate, entangle along a CX chain, rotate, entangle
// again), their exact per-block outcome distributions, and a chi-square
// check of each block's marginal in a joint histogram. The joint state is a
// product, so the DD stays small while every gate on a high block multiplies
// through the shared product below it.

#include <map>
#include <string>
#include <vector>

#include "core/circuit.hpp"
#include "core/rng.hpp"
#include "noise/noise_model.hpp"
#include "noise_stats.hpp"
#include "sim/result.hpp"

namespace qtc::dd_blocks {

constexpr int kBlock = 5;

/// One unmeasured 5-qubit block with angles drawn from `rng`.
inline QuantumCircuit random_block(Rng& rng) {
  QuantumCircuit block(kBlock, kBlock);
  for (int q = 0; q < kBlock; ++q) block.ry(rng.uniform(-PI, PI), q);
  for (int q = 0; q + 1 < kBlock; ++q) block.cx(q, q + 1);
  for (int q = 0; q < kBlock; ++q) block.t(q).rz(rng.uniform(-PI, PI), q);
  block.cx(1, 0).h(1).cx(3, 2).h(3);
  return block;
}

/// `count` blocks; block b acts on qubits [5b, 5b + 5).
inline std::vector<QuantumCircuit> random_blocks(int count,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<QuantumCircuit> blocks;
  for (int b = 0; b < count; ++b) blocks.push_back(random_block(rng));
  return blocks;
}

/// The blocks side by side on 5 * blocks.size() qubits, all measured
/// (qubit q into clbit q) when `measure` is set.
inline QuantumCircuit side_by_side(const std::vector<QuantumCircuit>& blocks,
                                   bool measure) {
  const int n = kBlock * static_cast<int>(blocks.size());
  QuantumCircuit qc(n, n);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (Operation op : blocks[b].ops()) {
      for (Qubit& q : op.qubits) q += kBlock * static_cast<int>(b);
      qc.append(op);
    }
  if (measure) qc.measure_all();
  return qc;
}

/// Check each block's marginal (clbits [5b, 5b + 5) of the histogram)
/// against the block's exact distribution.
inline void expect_block_marginals(const sim::Counts& counts,
                                   const std::vector<QuantumCircuit>& blocks,
                                   int num_clbits) {
  const noise::NoiseModel ideal;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    QuantumCircuit measured = blocks[b];
    measured.measure_all();
    sim::Counts marginal;
    for (const auto& [bits, n] : counts.histogram) {
      marginal.histogram[bits.substr(
          static_cast<std::size_t>(num_clbits) - (b + 1) * kBlock, kBlock)] +=
          n;
      marginal.shots += n;
    }
    SCOPED_TRACE("block " + std::to_string(b));
    noise::expect_statistical_match(
        marginal, noise::exact_distribution(measured, ideal), 0.08);
  }
}

}  // namespace qtc::dd_blocks
