#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "arch/coupling_map.hpp"
#include "bench.hpp"
#include "core/rng.hpp"
#include "map/noise_aware.hpp"
#include "noise/density_matrix.hpp"
#include "sim/statevector.hpp"
#include "transpiler/direction.hpp"

namespace qtc::perfbench {

// --- report -------------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail(name + " is not a finite number");
    value = 0;
  }
  for (auto& [n, v] : metrics_)
    if (n == name) {
      v = {value, unit};
      return;
    }
  metrics_.push_back({name, {value, unit}});
}

void Report::absent(const std::string& name, const std::string& unit,
                    const std::string& why) {
  metric(name, 0.0, unit);
  note("absent " + name + ": " + why);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& what) {
  ++failures_;
  notes_.push_back("CHECK FAILED: " + what);
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

bool Report::print(
    const std::vector<std::pair<std::string, std::string>>& json_set) {
  std::vector<std::pair<std::string, double>> selected;
  for (const auto& [name, unit] : json_set) {
    bool found = false;
    for (const auto& [n, v] : metrics_)
      if (n == name) {
        found = true;
        check(v.second == unit, name + " has unit " + v.second + ", not " + unit);
        selected.emplace_back(name, v.first);
      }
    if (!found) {
      fail("metric " + name + " was not measured");
      selected.emplace_back(name, 0.0);
    }
  }
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  for (const auto& [name, v] : metrics_)
    std::printf("metric %-38s %18.6f %s\n", name.c_str(), v.first,
                v.second.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < selected.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", selected[i].first.c_str(), selected[i].second,
                json_set[i].second.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
  return correct();
}

// --- statistics -----------------------------------------------------------------

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(status, rest);
  }
  return 0;
}

void LoopStats::report(Report& rep, double seconds, bool trace) const {
  rep.attempted = attempted;
  rep.metric("jobs_per_s", median(round_rate), "1/s");
  rep.metric("job_p50_ms", median(job_ms), "ms");
  const double tail = percentile(job_ms, 90);
  std::size_t beyond = 0;
  for (double x : job_ms) beyond += x > tail ? 1 : 0;
  rep.metric("job_tail_ms", tail, "ms");
  rep.metric("iter_p50_ms", median(iter_ms), "ms");
  const double ok = static_cast<double>(done) / static_cast<double>(attempted);
  rep.metric("ok_ratio", ok, "ratio");
  char line[300];
  std::snprintf(line, sizeof line,
                "loop: %llu jobs attempted, %llu done and verified in %.3f s "
                "(%.3f/s), %zu rounds; failed_ratio %.4f; job_tail_ms is p90 "
                "of %zu samples, %zu beyond it%s",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(verified), seconds,
                static_cast<double>(verified) / seconds, round_rate.size(),
                1.0 - ok, job_ms.size(), beyond,
                beyond < 10 ? " (fewer than 10: read with care)" : "");
  rep.note(line);
  if (!trace) return;
  const auto cache = transpiler::TranspileCache::global().stats();
  const double lookups =
      static_cast<double>(cache.lookups - cache_before.lookups);
  rep.metric("transpiler.cache_hit_ratio",
             lookups > 0
                 ? static_cast<double>(cache.hits() - cache_before.hits()) /
                       lookups
                 : 0.0,
             "ratio");
}

// --- tracer -----------------------------------------------------------------------

int Tracer::open(const std::string& name, int request, int parent,
                 bool shadow) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.shadow = shadow;
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span, const std::string& note) {
  spans_[span].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_[span].note = note;
}

bool Tracer::dump(const std::string& path) const {
  const auto quoted = [](const std::string& text) {
    std::string q = "\"";
    for (char ch : text) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += ch;
    }
    return q + '"';
  };
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << ", \"shadow\": " << (s.shadow ? "true" : "false")
        << ", \"note\": " << quoted(s.note) << "}\n";
  }
  return static_cast<bool>(out);
}

double ns_per_call(const std::function<void()>& fn, int calls_per_batch) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls_per_batch; ++i) fn();
    batches.push_back(1e9 * seconds_since(t0) / calls_per_batch);
  }
  return median(batches);
}

// --- circuits -----------------------------------------------------------------------

QuantumCircuit random_htrzcx(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(n);
  for (int g = 0; g < gates; ++g) {
    const int a = static_cast<int>(rng.index(n));
    switch (rng.index(4)) {
      case 0:
        qc.h(a);
        break;
      case 1:
        qc.t(a);
        break;
      case 2:
        qc.rz(rng.uniform(-PI, PI), a);
        break;
      default:
        qc.cx(a, (a + 1 + static_cast<int>(rng.index(n - 1))) % n);
    }
  }
  return qc;
}

QuantumCircuit qft(int n, const std::vector<double>& input_angles) {
  QuantumCircuit qc(n);
  for (int q = 0; q < n; ++q) qc.ry(input_angles[q], q);
  for (int q = n - 1; q >= 0; --q) {
    qc.h(q);
    for (int k = q - 1; k >= 0; --k) qc.cp(PI / double(1 << (q - k)), k, q);
  }
  return qc;
}

QuantumCircuit ghz(int n) {
  QuantumCircuit qc(n);
  qc.h(0);
  for (int q = 0; q + 1 < n; ++q) qc.cx(q, q + 1);
  return qc;
}

QuantumCircuit ghz_along(int n, int index) {
  std::vector<int> order(n);
  for (int q = 0; q < n; ++q) order[q] = q;
  for (int i = 0; i < index; ++i) std::next_permutation(order.begin(), order.end());
  QuantumCircuit qc(n);
  qc.h(order[0]);
  for (int q = 0; q + 1 < n; ++q) qc.cx(order[q], order[q + 1]);
  return qc;
}

QuantumCircuit ry_full(int n, int depth, const std::vector<double>& angles) {
  QuantumCircuit qc(n);
  int next = 0;
  for (int layer = 0; layer <= depth; ++layer) {
    for (int q = 0; q < n; ++q) qc.ry(angles[next++], q);
    if (layer < depth)
      for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < n; ++b) qc.cx(a, b);
  }
  return qc;
}

QuantumCircuit measured(const QuantumCircuit& body) {
  QuantumCircuit qc(body.num_qubits(), body.num_qubits());
  for (const auto& op : body.ops()) qc.append(op);
  qc.measure_all();
  return qc;
}

QuantumCircuit reangled(const QuantumCircuit& circuit, std::uint64_t seed) {
  Rng rng(seed);
  QuantumCircuit qc(circuit.num_qubits(), circuit.num_clbits());
  for (Operation op : circuit.ops()) {
    for (double& p : op.params) p = rng.uniform(-PI, PI);
    qc.append(std::move(op));
  }
  return qc;
}

arch::Backend linear_backend(int n) {
  arch::CouplingMap map = arch::linear(n);
  arch::Calibration calib = arch::default_calibration(map);
  return arch::Backend(std::move(map), std::move(calib));
}

arch::Backend full_backend(int n) {
  arch::CouplingMap map = arch::fully_connected(n);
  arch::Calibration calib = arch::default_calibration(map);
  return arch::Backend(std::move(map), std::move(calib));
}

arch::Backend eagle_backend() { return arch::heavy_hex_backend(7); }
arch::Backend condor_backend() { return arch::heavy_hex_backend(21); }

// --- checks ---------------------------------------------------------------------------

bool counts_well_formed(const sim::Counts& counts, int shots, int clbits) {
  if (counts.shots != shots) return false;
  long total = 0;
  for (const auto& [bits, c] : counts.histogram) {
    if (static_cast<int>(bits.size()) != clbits || c <= 0) return false;
    total += c;
  }
  return total == shots;
}

bool compiled_legal(const QuantumCircuit& compiled,
                    const arch::Backend& backend) {
  if (!transpiler::satisfies_coupling(compiled, backend.coupling_map()))
    return false;
  if (backend.basis() != arch::BasisSet::EcrRzSx) return true;
  for (const auto& op : compiled.ops())
    if (!backend.is_basis_gate(op.kind)) return false;
  return true;
}

namespace {

/// (qubit, clbit) of each measurement; throws unless every measurement is
/// final on its qubit (the exact references assume it).
std::vector<std::pair<int, int>> final_measurements(
    const QuantumCircuit& circuit) {
  std::vector<std::pair<int, int>> pairs;
  std::set<int> measured_qubits;
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::Barrier) continue;
    if (op.kind == OpKind::Measure) {
      pairs.emplace_back(op.qubits[0], op.clbits[0]);
      measured_qubits.insert(op.qubits[0]);
      continue;
    }
    if (op.kind == OpKind::Reset || op.conditioned())
      throw std::invalid_argument("exact reference: reset/conditional op");
    for (int q : op.qubits)
      if (measured_qubits.count(q))
        throw std::invalid_argument("exact reference: gate after measure");
  }
  return pairs;
}

}  // namespace

std::map<std::string, double> exact_noisy_distribution(
    const QuantumCircuit& compiled, const noise::NoiseModel& model) {
  // Only qubits some op touches can leave |0>; relabel them 0..k-1. A
  // measurement followed by more ops on its qubit (a router SWAP passing
  // through) is deferred: CX onto a fresh ancilla that holds the outcome.
  const auto& ops = compiled.ops();
  std::map<int, int> local;
  for (const auto& op : ops) {
    if (op.kind == OpKind::Reset || op.conditioned())
      throw std::invalid_argument("exact reference: reset/conditional op");
    if (op.kind != OpKind::Barrier)
      for (int q : op.qubits) local.emplace(q, 0);
  }
  int k = 0;
  for (auto& [q, idx] : local) idx = k++;
  struct Readout {
    int qubit;  // physical qubit measured (readout calibration)
    int slot;   // local qubit holding the outcome at the end
    int clbit;
  };
  struct Step {
    Operation op;                      // on local qubits
    const Operation* source = nullptr;  // physical op; null for a copy CX
  };
  std::vector<Readout> readouts;
  std::vector<Step> program;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    if (op.kind == OpKind::Barrier) continue;
    if (op.kind != OpKind::Measure) {
      Operation l = op;
      for (int& q : l.qubits) q = local.at(q);
      program.push_back({std::move(l), &op});
      continue;
    }
    const int q = op.qubits[0];
    bool used_later = false;
    for (std::size_t j = i + 1; j < ops.size() && !used_later; ++j)
      if (ops[j].kind != OpKind::Barrier)
        for (int r : ops[j].qubits) used_later = used_later || r == q;
    int slot = local.at(q);
    if (used_later) {
      slot = k++;
      Operation copy;
      copy.kind = OpKind::CX;
      copy.qubits = {local.at(q), slot};
      program.push_back({std::move(copy), nullptr});
    }
    readouts.push_back({q, slot, op.clbits[0]});
  }
  if (k > 11)
    throw std::invalid_argument("exact reference: too many active qubits");
  // Channels follow the physical ops; the copy CXs are noiseless.
  noise::DensityMatrix rho(std::max(k, 1));
  for (const Step& step : program) {
    rho.apply(step.op);
    if (step.source)
      if (const auto channel = model.error_for(*step.source))
        rho.apply_channel(*channel, step.op.qubits);
  }
  const std::vector<double> p = rho.probabilities();
  std::map<std::uint64_t, double> clbit_dist;
  for (std::size_t basis = 0; basis < p.size(); ++basis) {
    if (p[basis] <= 0) continue;
    std::map<std::uint64_t, double> outcomes{{0, p[basis]}};
    for (const Readout& r : readouts) {
      const int value = static_cast<int>((basis >> r.slot) & 1);
      const noise::ReadoutError* err = model.readout_error(r.qubit);
      const double flip =
          err == nullptr ? 0.0 : (value ? err->p0_given_1 : err->p1_given_0);
      std::map<std::uint64_t, double> next_outcomes;
      for (auto [bits, w] : outcomes) {
        const std::uint64_t one = bits | (std::uint64_t{1} << r.clbit);
        next_outcomes[value ? one : bits] += w * (1 - flip);
        if (flip > 0) next_outcomes[value ? bits : one] += w * flip;
      }
      outcomes = std::move(next_outcomes);
    }
    for (auto [bits, w] : outcomes) clbit_dist[bits] += w;
  }
  std::map<std::string, double> dist;
  for (auto [bits, w] : clbit_dist)
    dist[sim::format_bits(bits, compiled.num_clbits())] += w;
  return dist;
}

std::map<std::string, double> exact_distribution(
    const QuantumCircuit& logical) {
  const auto pairs = final_measurements(logical);
  sim::Statevector state(logical.num_qubits());
  for (const auto& op : logical.ops())
    if (op.kind != OpKind::Barrier && op.kind != OpKind::Measure)
      state.apply(op);
  const std::vector<double> p = state.probabilities();
  std::map<std::string, double> dist;
  for (std::size_t basis = 0; basis < p.size(); ++basis) {
    if (p[basis] <= 1e-15) continue;
    std::uint64_t bits = 0;
    for (auto [q, c] : pairs)
      if ((basis >> q) & 1) bits |= std::uint64_t{1} << c;
    dist[sim::format_bits(bits, logical.num_clbits())] += p[basis];
  }
  return dist;
}

bool chi_square_ok(const sim::Counts& counts,
                   const std::map<std::string, double>& expected,
                   std::string* detail) {
  struct Bin {
    double e = 0;
    double o = 0;
  };
  const double shots = counts.shots;
  std::vector<Bin> bins;
  double unexpected = 0;  // observed outcomes with probability 0
  for (const auto& [bits, p] : expected)
    bins.push_back({shots * p, static_cast<double>(counts.count(bits))});
  for (const auto& [bits, c] : counts.histogram)
    if (!expected.count(bits)) unexpected += c;
  if (unexpected > 0) {
    if (detail) *detail = "outcome outside the exact support";
    return false;
  }
  std::sort(bins.begin(), bins.end(),
            [](const Bin& a, const Bin& b) { return a.e < b.e; });
  std::vector<Bin> merged;
  Bin acc;
  for (const Bin& b : bins) {
    acc.e += b.e;
    acc.o += b.o;
    if (acc.e >= 5) {
      merged.push_back(acc);
      acc = {};
    }
  }
  if (acc.e > 0 || acc.o > 0) {
    if (merged.empty()) {
      merged.push_back(acc);
    } else {
      merged.back().e += acc.e;
      merged.back().o += acc.o;
    }
  }
  double chi2 = 0;
  for (const Bin& b : merged)
    if (b.e > 0) chi2 += (b.o - b.e) * (b.o - b.e) / b.e;
  const double df = std::max<double>(1, static_cast<double>(merged.size()) - 1);
  // Wilson-Hilferty upper quantile at p = 1e-6 (z = 4.753).
  const double a = 2.0 / (9.0 * df);
  const double limit = df * std::pow(1 - a + 4.753 * std::sqrt(a), 3);
  if (detail) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "chi2 %.2f, df %.0f, limit %.2f", chi2, df,
                  limit);
    *detail = buf;
  }
  return chi2 <= limit;
}

bool same_counts(const sim::Counts& a, const sim::Counts& b) {
  return a.shots == b.shots && a.histogram == b.histogram;
}

void report_routing_quality(const std::vector<Request>& suite,
                            Report& report) {
  double swaps = 0, neg_log = 0;
  for (const Request& r : suite) {
    const transpiler::TranspileResult compiled = transpiler::transpile_cached(
        r.circuit, *r.backend, r.options.transpile_options);
    report.check(compiled_legal(compiled.circuit, *r.backend),
                 "routing-suite circuit is not legal on " + r.backend->name());
    swaps += compiled.swaps_inserted;
    neg_log -= std::log(map::estimated_success(compiled.circuit, *r.backend));
  }
  report.metric("swaps_added", swaps, "count");
  report.metric("neg_log_success", neg_log, "nats");
}

namespace {

/// The error text's last clause as a metric-name slug.
std::string failure_reason(const std::string& error) {
  const std::size_t colon = error.rfind(": ");
  const std::string tail =
      colon == std::string::npos ? error : error.substr(colon + 2);
  std::string slug;
  for (char ch : tail) {
    if (std::isalnum(static_cast<unsigned char>(ch)))
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    else if (!slug.empty() && slug.back() != '_')
      slug += '_';
    if (slug.size() >= 40) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "other" : slug;
}

}  // namespace

bool is_known_width_defect(const std::string& error) {
  return failure_reason(error) == "unsupported_qubit_count";
}

}  // namespace qtc::perfbench
