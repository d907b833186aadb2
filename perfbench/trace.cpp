// Traced replay: a fixed sample of a workload's requests runs once untraced
// (exec::execute, or parse + transpile_cached for compile requests) and
// once through the public layer functions in exec::execute's order, with a
// span around each call. The two must agree bitwise; the spans give the
// per-layer numbers and their difference gives the tracing overhead.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "core/parallel.hpp"
#include "dd/simulator.hpp"
#include "noise/trajectory.hpp"
#include "qasm/parser.hpp"
#include "qbin/qbin.hpp"
#include "sim/dispatch.hpp"
#include "sim/simd.hpp"
#include "sim/stabilizer.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc::perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"core.num_threads_ns", "ns"},
      {"sim.simd_select_ns", "ns"},
      {"qbin.decode_us", "us"},
      {"qasm.parse_us", "us"},
      {"service.submit_us", "us"},
      {"service.queue_ms_p50", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.batch_follower_ratio", "ratio"},
      {"transpiler.cache_hit_ratio", "ratio"},
      {"transpiler.cached_us", "us"},
      {"transpiler.lower_ms", "ms"},
      {"map.route_ms", "ms"},
      {"map.trials", "count"},
      {"map.swaps", "count"},
      {"transpiler.finish_ms", "ms"},
      {"arch.backend_build_ms", "ms"},
      {"noise.model_build_ms", "ms"},
      {"noise.plan_compile_ms", "ms"},
      {"noise.plan_sweeps", "count"},
      {"noise.sim_width", "qubits"},
      {"noise.logical_width", "qubits"},
      {"noise.sample_ms", "ms"},
      {"noise.sample_us_per_shot", "us"},
      {"sim.dispatch_us", "us"},
      {"sim.engine_runs.stabilizer", "count"},
      {"sim.engine_runs.dd", "count"},
      {"sim.engine_runs.statevector", "count"},
      {"sim.fused_ops", "count"},
      {"sim.stabilizer.sample_ms", "ms"},
      {"sim.statevector.sample_ms", "ms"},
      {"dd.sample_ms", "ms"},
      {"dd.peak_live_nodes", "count"},
      {"exec.self_ms", "ms"},
      {"exec.failures.unsupported_qubit_count", "count"},
      {"exec.failures.other", "count"},
      {"trace.overhead_us", "us"},
  };
  return metrics;
}

void report_call_costs(Report& report) {
  // The per-call configuration tax: both are resolved on every kernel or
  // parallel_for entry, so their cost multiplies by the call count.
  volatile int sink = 0;
  report.metric("core.num_threads_ns",
                ns_per_call([&] { sink = sink + parallel::num_threads(); },
                            20000),
                "ns");
  report.metric("sim.simd_select_ns",
                ns_per_call(
                    [&] { sink = sink + static_cast<int>(sim::simd::select()); },
                    20000),
                "ns");
}

namespace {

/// Outcome of one request, traced or not, for the bitwise comparison.
struct Outcome {
  bool ok = false;
  std::string error;
  sim::Counts counts;
  QuantumCircuit compiled;
  sim::Engine engine = sim::Engine::Auto;
};

QuantumCircuit ingest(const Request& r) {
  if (!r.qasm.empty()) return qasm::parse(r.qasm);
  if (!r.payload.empty()) return qbin::decode(r.payload);
  return r.circuit;
}

Outcome run_untraced(const Request& r) {
  Outcome out;
  try {
    const QuantumCircuit circuit = ingest(r);
    if (r.compile_only) {
      out.compiled = transpiler::transpile_cached(
                         circuit, *r.backend, r.options.transpile_options)
                         .circuit;
    } else {
      exec::ExecuteResult result =
          exec::execute(circuit, *r.backend, r.options);
      out.counts = std::move(result.counts);
      out.compiled = std::move(result.compiled);
      out.engine = result.engine;
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// Per-request numbers the traced pipeline records beyond its spans.
struct Stats {
  std::optional<int> trials, swaps;
  std::optional<noise::TrajectoryPlan> plan;
  std::optional<std::size_t> dd_peak_nodes;
  bool noisy = false;
};

/// A span over a scope: closed on every exit path, exceptions included.
class Scope {
 public:
  Scope(Tracer& tr, const std::string& name, int request, int parent,
        bool shadow = false)
      : tr_(tr), id_(tr.open(name, request, parent, shadow)) {}
  ~Scope() {
    if (!closed_) tr_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }
  void close(const std::string& note) {
    tr_.close(id_, note);
    closed_ = true;
  }

 private:
  Tracer& tr_;
  int id_;
  bool closed_ = false;
};

/// The cold path inside transpile_cached, stage by stage, as shadow spans
/// under `parent`; it must reproduce `cached` exactly.
void staged_transpile(const Request& r, const QuantumCircuit& circuit,
                      const transpiler::TranspileResult& cached, int id,
                      int parent, Tracer& tr, Stats& stats, Report& report) {
  const transpiler::TranspileOptions opts =
      transpiler::detail::resolve_options(r.options.transpile_options);
  QuantumCircuit lowered(1);
  {
    Scope s(tr, "transpiler.lower", id, parent, true);
    lowered = transpiler::detail::lower_to_router_basis(circuit);
  }
  map::MappingResult mapped;
  {
    Scope s(tr, "map.route", id, parent, true);
    mapped = transpiler::detail::make_mapper(opts, *r.backend)
                 ->run(lowered, r.backend->coupling_map());
  }
  stats.trials = mapped.trials_run;
  stats.swaps = mapped.swaps_inserted;
  QuantumCircuit finished(1);
  {
    Scope s(tr, "transpiler.finish", id, parent, true);
    finished = transpiler::detail::finish_pipeline(
        std::move(mapped.circuit), mapped.swaps_inserted > 0, *r.backend, opts);
  }
  report.check(finished == cached.circuit &&
                   mapped.swaps_inserted == cached.swaps_inserted,
               "staged lower/route/finish differs from transpile_cached");
}

/// exec::execute decomposed into its layer calls (see exec/execute.cpp).
Outcome run_traced(const Request& r, int id, Tracer& tr, Stats& stats,
                   Report& report) {
  Outcome out;
  Scope root(tr, r.compile_only ? "compile" : "exec", id, -1);
  try {
    QuantumCircuit circuit(1);
    if (!r.qasm.empty()) {
      Scope s(tr, "qasm.parse", id, root.id());
      circuit = qasm::parse(r.qasm);
    } else if (!r.payload.empty()) {
      Scope s(tr, "qbin.decode", id, root.id());
      circuit = qbin::decode(r.payload);
    } else {
      circuit = r.circuit;
    }
    if (!r.compile_only &&
        (r.options.shots < 1 || circuit.num_qubits() > r.backend->num_qubits()))
      throw std::invalid_argument("replay: request fails exec validation");

    Scope ts(tr, "transpiler.cached", id, root.id());
    transpiler::TranspileResult compiled = transpiler::transpile_cached(
        circuit, *r.backend, r.options.transpile_options);
    ts.close(compiled.cache_hit ? "hit" : "miss");
    if (!compiled.cache_hit)
      staged_transpile(r, circuit, compiled, id, ts.id(), tr, stats, report);
    out.compiled = std::move(compiled.circuit);
    if (r.compile_only) {
      out.ok = true;
      root.close("ok");
      return out;
    }

    noise::NoiseModel model;
    {
      Scope s(tr, "noise.model_build", id, root.id());
      model = r.options.noise_model ? *r.options.noise_model
                                    : noise::from_backend(*r.backend);
    }
    stats.noisy = model.has_noise();
    if (r.options.engine != sim::Engine::Auto) {
      out.engine = r.options.engine;
    } else if (stats.noisy || !sim::dispatch_enabled()) {
      out.engine = sim::Engine::Statevector;
    } else {
      Scope s(tr, "sim.dispatch", id, root.id());
      out.engine = sim::choose_engine(out.compiled).engine;
    }
    switch (out.engine) {
      case sim::Engine::Stabilizer: {
        Scope s(tr, "sim.stabilizer.sample", id, root.id());
        out.counts = sim::StabilizerSimulator(r.options.seed)
                         .run(out.compiled, r.options.shots);
        break;
      }
      case sim::Engine::DecisionDiagram: {
        Scope s(tr, "dd.sample", id, root.id());
        dd::DDRunResult dd =
            dd::DDSimulator(r.options.seed).run(out.compiled, r.options.shots);
        out.counts = std::move(dd.counts);
        stats.dd_peak_nodes = dd.peak_live_nodes;
        break;
      }
      default: {
        // TrajectorySimulator::run compiles this same plan internally, so
        // the standalone compile is shadow work (a double count if summed).
        {
          Scope s(tr, "noise.plan_compile", id, root.id(), true);
          stats.plan = noise::compile_trajectory_plan(out.compiled, model);
          s.close("repeated inside the sample span");
        }
        Scope s(tr, stats.noisy ? "noise.sample" : "sim.statevector.sample", id,
                root.id());
        out.counts = noise::TrajectorySimulator(r.options.seed)
                         .run(out.compiled, model, r.options.shots);
        s.close("includes a plan compile");
        break;
      }
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  root.close(out.ok ? "ok" : out.error);
  return out;
}

}  // namespace

void replay(const std::vector<Request>& requests, bool cold_cache,
            const Args& args, Report& report) {
  const auto ms = [](double us) { return us / 1e3; };
  std::vector<Outcome> plain;
  std::vector<double> plain_us;
  std::uint64_t runs_before[3] = {
      sim::engine_runs(sim::Engine::Stabilizer),
      sim::engine_runs(sim::Engine::DecisionDiagram),
      sim::engine_runs(sim::Engine::Statevector)};
  if (cold_cache) transpiler::TranspileCache::global().clear();
  for (const Request& r : requests) {
    const auto t0 = Clock::now();
    plain.push_back(run_untraced(r));
    plain_us.push_back(1e6 * seconds_since(t0));
  }
  const std::uint64_t runs[3] = {
      sim::engine_runs(sim::Engine::Stabilizer) - runs_before[0],
      sim::engine_runs(sim::Engine::DecisionDiagram) - runs_before[1],
      sim::engine_runs(sim::Engine::Statevector) - runs_before[2]};

  if (cold_cache) transpiler::TranspileCache::global().clear();
  Tracer tr;
  std::vector<Stats> stats(requests.size());
  std::vector<int> roots;
  int failures_width = 0, failures_other = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    roots.push_back(static_cast<int>(tr.spans().size()));
    const Outcome traced =
        run_traced(requests[i], static_cast<int>(i), tr, stats[i], report);
    const Outcome& p = plain[i];
    const bool agree =
        traced.ok == p.ok && traced.error == p.error &&
        (!p.ok || (traced.compiled == p.compiled &&
                   (requests[i].compile_only ||
                    (traced.engine == p.engine &&
                     same_counts(traced.counts, p.counts)))));
    report.check(agree, "request " + std::to_string(i) +
                            ": decomposed pipeline differs from the "
                            "untraced call (" +
                            (p.ok ? "counts/compiled" : p.error) + ")");
    if (!traced.ok) {
      (is_known_width_defect(traced.error) ? failures_width : failures_other)++;
      report.note("replay request " + std::to_string(i) +
                  " failed: " + traced.error);
    }
  }
  if (!args.trace_out.empty() && !tr.dump(args.trace_out))
    report.note("could not write spans to " + args.trace_out);

  // Per request, the total time of each span name. Each layer metric reads
  // its own span, shadow or not; it is the mean over the requests in which
  // that span ran.
  std::vector<std::map<std::string, double>> span_us(requests.size());
  for (const auto& s : tr.spans()) span_us[s.request][s.name] += s.us();
  const auto report_layer = [&](const std::string& metric,
                                const std::string& span, double scale,
                                const std::string& unit, const char* why) {
    std::vector<double> v;
    for (const auto& per_span : span_us)
      if (const auto it = per_span.find(span); it != per_span.end())
        v.push_back(it->second);
    if (v.empty())
      report.absent(metric, unit, why);
    else
      report.metric(metric, mean(v) * scale, unit);
  };
  const char* warm = "no replayed compile missed the transpile cache";
  report_layer("qbin.decode_us", "qbin.decode", 1, "us",
               "workload ships no QBIN payloads");
  report_layer("qasm.parse_us", "qasm.parse", 1, "us",
               "workload ships no OpenQASM text");
  report_layer("transpiler.lower_ms", "transpiler.lower", 1e-3, "ms", warm);
  report_layer("map.route_ms", "map.route", 1e-3, "ms", warm);
  report_layer("transpiler.finish_ms", "transpiler.finish", 1e-3, "ms", warm);
  report_layer("noise.model_build_ms", "noise.model_build", 1e-3, "ms",
               "workload only compiles");
  report_layer("noise.plan_compile_ms", "noise.plan_compile", 1e-3, "ms",
               "no request reached the array/trajectory engine");
  report_layer("noise.sample_ms", "noise.sample", 1e-3, "ms",
               "no noisy request sampled shots");
  report_layer("sim.dispatch_us", "sim.dispatch", 1, "us",
               "every request is noisy or compile-only: no dispatch");
  report_layer("sim.stabilizer.sample_ms", "sim.stabilizer.sample", 1e-3, "ms",
               "no request ran on the stabilizer engine");
  report_layer("sim.statevector.sample_ms", "sim.statevector.sample", 1e-3,
               "ms", "no noiseless request ran on the array engine");
  report_layer("dd.sample_ms", "dd.sample", 1e-3, "ms",
               "no request ran on the decision-diagram engine");

  std::vector<double> hits;
  for (const auto& s : tr.spans())
    if (s.name == "transpiler.cached" && s.note == "hit") hits.push_back(s.us());
  if (hits.empty())
    report.absent("transpiler.cached_us", "us",
                  "no replayed compile hit the transpile cache");
  else
    report.metric("transpiler.cached_us", median(hits), "us");

  double trials = 0, swaps = 0, sweeps = 0, fused = 0, sim_w = 0, logical_w = 0;
  int plans = 0, routed = 0;
  std::vector<double> per_shot;
  std::size_t dd_peak = 0;
  bool any_dd = false;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Stats& s = stats[i];
    if (s.trials) {
      trials += *s.trials;
      swaps += *s.swaps;
      ++routed;
    }
    if (s.plan) {
      ++plans;
      sweeps += s.plan->state_sweeps;
      for (const auto& step : s.plan->steps)
        fused += step.fused.kind != sim::FusedOp::Kind::Op ? 1 : 0;
      sim_w += s.plan->num_qubits;
      logical_w += requests[i].circuit.num_qubits();
    }
    if (s.dd_peak_nodes) {
      any_dd = true;
      dd_peak = std::max(dd_peak, *s.dd_peak_nodes);
    }
    if (const auto it = span_us[i].find("noise.sample");
        s.noisy && it != span_us[i].end())
      per_shot.push_back(it->second / requests[i].options.shots);
  }
  if (routed) {
    report.metric("map.trials", trials, "count");
    report.metric("map.swaps", swaps, "count");
  } else {
    report.absent("map.trials", "count", warm);
    report.absent("map.swaps", "count", warm);
  }
  if (plans) {
    report.metric("noise.plan_sweeps", sweeps / plans, "count");
    report.metric("sim.fused_ops", fused / plans, "count");
    report.metric("noise.sim_width", sim_w / plans, "qubits");
    report.metric("noise.logical_width", logical_w / plans, "qubits");
  } else {
    const char* why = "no request reached the array/trajectory engine";
    report.absent("noise.plan_sweeps", "count", why);
    report.absent("sim.fused_ops", "count", why);
    report.absent("noise.sim_width", "qubits", why);
    report.absent("noise.logical_width", "qubits", why);
  }
  if (per_shot.empty())
    report.absent("noise.sample_us_per_shot", "us",
                  "no noisy request sampled shots");
  else
    report.metric("noise.sample_us_per_shot", mean(per_shot), "us");
  if (any_dd)
    report.metric("dd.peak_live_nodes", static_cast<double>(dd_peak), "count");
  else
    report.absent("dd.peak_live_nodes", "count",
                  "no request ran on the decision-diagram engine");
  report.metric("sim.engine_runs.stabilizer", static_cast<double>(runs[0]),
                "count");
  report.metric("sim.engine_runs.dd", static_cast<double>(runs[1]), "count");
  report.metric("sim.engine_runs.statevector", static_cast<double>(runs[2]),
                "count");
  report.metric("exec.failures.unsupported_qubit_count", failures_width,
                "count");
  report.metric("exec.failures.other", failures_other, "count");

  // Self time of exec::execute: its untraced wall time minus the layer
  // spans the decomposed pipeline measured for the same request (shadow
  // spans excluded). Overhead: traced wall minus shadow work minus untraced.
  std::vector<double> self_ms, overhead_us;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const int root = roots[i];
    double children = 0, shadow = 0;
    for (const auto& s : tr.spans()) {
      if (s.request != static_cast<int>(i)) continue;
      if (s.shadow) shadow += s.us();
      else if (s.parent == root) children += s.us();
    }
    if (!requests[i].compile_only) self_ms.push_back(ms(plain_us[i] - children));
    overhead_us.push_back(tr.spans()[root].us() - shadow - plain_us[i]);
  }
  if (self_ms.empty())
    report.absent("exec.self_ms", "ms", "workload does not call exec::execute");
  else
    report.metric("exec.self_ms", median(self_ms), "ms");
  report.metric("trace.overhead_us", median(overhead_us), "us");

  char line[200];
  std::snprintf(line, sizeof line,
                "replay: %zu requests compared bitwise with the untraced "
                "call; untraced median %.3f ms",
                requests.size(), ms(median(plain_us)));
  report.note(line);
  report.note(
      "double-count: noise.plan_compile is a shadow span "
      "(TrajectorySimulator::run compiles its plan again inside "
      "noise.sample / sim.statevector.sample); transpiler.lower, map.route "
      "and transpiler.finish are shadow re-runs of the cold path inside "
      "transpiler.cached. Shadow spans are left out of self times, layer "
      "sums and trace.overhead_us.");
}

}  // namespace qtc::perfbench
