#include "arch/backend.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace qtc::arch {

int Backend::pair_edge_index(int control, int target) const {
  // Exact direction first; the reverse orientation is only a fallback for
  // couplers calibrated in one direction. Both probes are O(1) against the
  // coupling map's dense edge-index table (the old implementation scanned
  // the whole edge list and matched either orientation, returning the wrong
  // direction's calibration on directed maps).
  int i = coupling_map().edge_index(control, target);
  if (i < 0) i = coupling_map().edge_index(target, control);
  return i;
}

double Backend::cx_error(int control, int target) const {
  const int i = pair_edge_index(control, target);
  if (i < 0) throw std::invalid_argument("cx_error: pair not in coupling map");
  return calibration().cx_error[i];
}

double Backend::cx_duration(int control, int target) const {
  const int i = pair_edge_index(control, target);
  if (i < 0)
    throw std::invalid_argument("cx_duration: pair not in coupling map");
  if (static_cast<std::size_t>(i) < calibration().cx_duration_us.size())
    return calibration().cx_duration_us[i];
  return calibration().gate_time_cx_us;
}

Calibration default_calibration(const CouplingMap& map) {
  Calibration c;
  const int n = map.num_qubits();
  for (int q = 0; q < n; ++q) {
    // Vary smoothly across the chip so "noise-aware" choices are meaningful.
    c.single_qubit_error.push_back(8e-4 + 2e-4 * ((q * 7) % 5));
    c.readout_error.push_back(0.02 + 0.004 * ((q * 3) % 4));
    c.t1_us.push_back(50.0 + 5.0 * (q % 4));
    c.t2_us.push_back(40.0 + 4.0 * (q % 5));
  }
  for (std::size_t e = 0; e < map.edges().size(); ++e) {
    c.cx_error.push_back(0.015 + 0.003 * (e % 4));
    c.cx_duration_us.push_back(0.25 + 0.025 * (e % 3));
  }
  return c;
}

namespace {

// splitmix64: deterministic, platform-independent index -> pseudo-random
// stream for synthesized calibration.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit(std::uint64_t x) {
  return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

}  // namespace

Calibration heavy_hex_calibration(const CouplingMap& map) {
  Calibration c;
  const int n = map.num_qubits();
  c.gate_time_1q_us = 0.035;  // ~35 ns SX
  c.gate_time_cx_us = 0.45;   // uniform fallback if cx_duration_us is empty
  for (int q = 0; q < n; ++q) {
    c.single_qubit_error.push_back(1.5e-4 + 4e-4 * unit(q * 4 + 0));
    c.readout_error.push_back(0.008 + 0.03 * unit(q * 4 + 1));
    c.t1_us.push_back(120.0 + 180.0 * unit(q * 4 + 2));
    c.t2_us.push_back(80.0 + 140.0 * unit(q * 4 + 3));
  }
  const std::uint64_t kEdgeSalt = 0x9c4e1u;
  for (std::size_t e = 0; e < map.edges().size(); ++e) {
    // Log-uniform over ~a decade, with every 13th coupler a "bad edge" an
    // extra ~4x worse. Median ~1.2e-2, worst ~1e-1: the contrast a
    // fidelity-aware router is supposed to route around.
    double err = 4e-3 * std::pow(10.0, 1.1 * unit(kEdgeSalt + e * 2));
    if (e % 13 == 5) err *= 4.0;
    if (err > 0.25) err = 0.25;
    c.cx_error.push_back(err);
    c.cx_duration_us.push_back(0.30 + 0.35 * unit(kEdgeSalt + e * 2 + 1));
  }
  return c;
}

Backend qx4_backend() {
  CouplingMap map = ibm_qx4();
  Calibration cal = default_calibration(map);
  return Backend(std::move(map), std::move(cal));
}

Backend qx5_backend() {
  CouplingMap map = ibm_qx5();
  Calibration cal = default_calibration(map);
  return Backend(std::move(map), std::move(cal));
}

Backend heavy_hex_backend(int distance) {
  CouplingMap map = heavy_hex(distance);
  Calibration cal = heavy_hex_calibration(map);
  return Backend(std::move(map), std::move(cal), BasisSet::EcrRzSx);
}

}  // namespace qtc::arch
