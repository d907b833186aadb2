#pragma once
// Runtime knob registry: every QTC_* environment variable the library reads
// is one row of config.cpp's table (name, default, clamp, parser), and is
// read nowhere else. The first get() resolves the whole table from the
// environment; later reads are one relaxed atomic load, cheap enough for
// per-kernel paths. A programmatic override (the modules' set_* functions)
// wins over the environment until cleared. reload() re-reads the
// environment, keeping overrides, for processes that setenv after start-up.
//
// Shared parsing: flags take "0"/"off"/"false"/"no" in any case as off and
// anything else as on; integers take a leading decimal number, and garbage
// or a value below the minimum falls back to the default (QTC_DD_CT_BITS
// and QTC_MAP_TRIALS clamp it up instead) while values above the maximum
// clamp; QTC_MAP_SEED also takes 0x-hex and octal, and the whole value must
// parse. Unset, empty and fallen-back variables report the default.

#include <atomic>
#include <cstdint>
#include <vector>

namespace qtc::config {

/// One per row of the table, in table order. Sentinels: NumThreads and
/// ServiceWorkers 0 = automatic, FusionCost -1 = auto, DdGcThreshold 0 =
/// never collect; MapSeed holds its uint64 bit pattern.
enum class Knob : int {
  NumThreads, Fusion, FusionMaxQubits, FusionCost, TrajParallel, Simd,
  Dispatch, StabPacked, DdGcThreshold, DdCtBits, MapTrials, MapSeed,
  MapFidelity, TranspileCache, Qbin, ServiceWorkers, ServiceQueueCap,
  ServiceResultsCap, ServiceBatch,
};
inline constexpr int kNumKnobs = static_cast<int>(Knob::ServiceBatch) + 1;

namespace detail {
extern std::atomic<bool> g_resolved;
extern std::atomic<std::int64_t> g_values[kNumKnobs];
void resolve();
}  // namespace detail

/// Effective value: the override, else the environment, else the default.
inline std::int64_t get(Knob knob) {
  if (!detail::g_resolved.load(std::memory_order_acquire)) detail::resolve();
  return detail::g_values[static_cast<int>(knob)].load(
      std::memory_order_relaxed);
}
inline bool enabled(Knob knob) { return get(knob) != 0; }

void set_override(Knob knob, std::int64_t value);
void clear_override(Knob knob);
/// The flag setters' convention: enabled < 0 clears the override, anything
/// else forces (enabled != 0).
void set_flag_override(Knob knob, int enabled);

void reload();

enum class Source { Default, Env, Override };
const char* to_string(Source source);

struct Setting {
  const char* name;  // the environment variable, e.g. "QTC_NUM_THREADS"
  std::int64_t value;
  Source source;
};
/// Every knob's effective value and where it came from, in table order.
std::vector<Setting> snapshot();

}  // namespace qtc::config
