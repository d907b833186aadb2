#pragma once
// Statistical-equivalence helpers shared by the noise test suites: the exact
// outcome distribution of a measure-final circuit under a noise model
// (density-matrix diagonal folded through the readout-error channel) and a
// chi-square plus total-variation check of sampled counts against it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/circuit.hpp"
#include "noise/density_matrix.hpp"
#include "noise/noise_model.hpp"
#include "sim/result.hpp"
#include "sim/statevector.hpp"

namespace qtc::noise {

/// Exact outcome distribution over classical bitstrings: density-matrix
/// diagonal, pushed through the measurement wiring and the per-qubit
/// readout-error channel. Requires a measure-final circuit (no reset or
/// conditionals), which every circuit passed here is.
inline std::map<std::string, double> exact_distribution(
    const QuantumCircuit& qc, const NoiseModel& noise) {
  DensityMatrixSimulator dms;
  const DensityMatrix rho = dms.evolve(qc, noise);
  const std::vector<double> probs = rho.probabilities();
  std::vector<std::pair<int, int>> meas;  // (qubit, clbit)
  for (const auto& op : qc.ops())
    if (op.kind == OpKind::Measure)
      meas.emplace_back(op.qubits[0], op.clbits[0]);
  const int m = static_cast<int>(meas.size());
  const int ncl = qc.num_clbits();
  std::map<std::string, double> dist;
  for (std::size_t b = 0; b < probs.size(); ++b) {
    const double p = probs[b];
    if (p <= 0) continue;
    // Spread this basis state over every readout-flip combination.
    for (std::uint64_t reads = 0; reads < (std::uint64_t{1} << m); ++reads) {
      double weight = p;
      std::uint64_t clbits = 0;
      for (int i = 0; i < m; ++i) {
        const auto [q, c] = meas[i];
        const int state_bit = static_cast<int>((b >> q) & 1);
        const int read_bit = static_cast<int>((reads >> i) & 1);
        const ReadoutError* re = noise.readout_error(q);
        const double p_read_one =
            state_bit ? (re ? 1.0 - re->p0_given_1 : 1.0)
                      : (re ? re->p1_given_0 : 0.0);
        weight *= read_bit ? p_read_one : 1.0 - p_read_one;
        if (read_bit) clbits |= std::uint64_t{1} << c;
      }
      if (weight > 0) dist[sim::format_bits(clbits, ncl)] += weight;
    }
  }
  return dist;
}

struct GoodnessOfFit {
  double chi2 = 0;
  int df = 0;          // pooled bins - 1
  double tv = 0;       // total-variation distance
  double pooled = 0;   // expected mass pooled into the rare-outcome bin
};

/// Pearson chi-square against the exact distribution. Outcomes whose
/// expected count is below 5 are pooled into one rare-outcome bin (the
/// standard validity condition for the chi-square approximation).
inline GoodnessOfFit goodness_of_fit(
    const sim::Counts& counts, const std::map<std::string, double>& expected) {
  GoodnessOfFit g;
  const double shots = counts.shots;
  double rare_expected = 0;
  int rare_observed = 0;
  int bins = 0;
  for (const auto& [bits, p] : expected) {
    const int observed = counts.count(bits);
    g.tv += std::abs(observed / shots - p);
    const double e = p * shots;
    if (e < 5.0) {
      rare_expected += e;
      rare_observed += observed;
      continue;
    }
    g.chi2 += (observed - e) * (observed - e) / e;
    ++bins;
  }
  // Counts outside the expected support belong to the rare bin too (the
  // exact distribution assigns them ~0; a real engine bug lands here).
  for (const auto& [bits, c] : counts.histogram)
    if (!expected.count(bits)) {
      rare_observed += c;
      g.tv += static_cast<double>(c) / shots;
    }
  if (rare_expected > 0 || rare_observed > 0) {
    const double e = std::max(rare_expected, 0.5);  // guard the division
    g.chi2 += (rare_observed - e) * (rare_observed - e) / e;
    ++bins;
    g.pooled = rare_expected / shots;
  }
  g.df = bins > 1 ? bins - 1 : 1;
  g.tv /= 2;
  return g;
}

/// Assert the fit: chi-square below a ~5-sigma band around its mean (df)
/// and total variation below `tv_bound`.
inline void expect_statistical_match(
    const sim::Counts& counts, const std::map<std::string, double>& expected,
    double tv_bound) {
  const GoodnessOfFit g = goodness_of_fit(counts, expected);
  EXPECT_LT(g.chi2, g.df + 5 * std::sqrt(2.0 * g.df) + 10)
      << "chi-square too large (df " << g.df << ", tv " << g.tv << ")";
  EXPECT_LT(g.tv, tv_bound) << "total variation too large (chi2 " << g.chi2
                            << ", df " << g.df << ")";
}

}  // namespace qtc::noise
