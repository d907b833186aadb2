#include "core/config.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>

namespace qtc::config {

std::atomic<bool> detail::g_resolved{false};
std::atomic<std::int64_t> detail::g_values[kNumKnobs];

namespace {

struct Spec;
/// Parse a non-empty value into `out`; false falls back to the default.
using Parser = bool (*)(const char* s, const Spec& spec, std::int64_t& out);

struct Spec {
  const char* name;
  std::int64_t fallback;
  std::int64_t lo, hi;  // integer kinds only
  Parser parse;
};

std::string lower(const char* s) {
  std::string v(s);
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  return v;
}

bool is_off_word(const char* s) {
  const std::string v = lower(s);
  return v == "0" || v == "off" || v == "false" || v == "no";
}

bool parse_flag(const char* s, const Spec&, std::int64_t& out) {
  out = is_off_word(s) ? 0 : 1;
  return true;
}

/// `clamp_low` picks what a value below `lo` does: clamp up or fall back.
template <bool clamp_low>
bool parse_int(const char* s, const Spec& spec, std::int64_t& out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || (!clamp_low && v < spec.lo)) return false;
  out = std::clamp<long long>(v, spec.lo, spec.hi);
  return true;
}

bool parse_seed(const char* s, const Spec&, std::int64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

bool parse_gc_threshold(const char* s, const Spec& spec, std::int64_t& out) {
  out = 0;
  return is_off_word(s) || parse_int<false>(s, spec, out);
}

bool parse_fusion_cost(const char* s, const Spec&, std::int64_t& out) {
  const std::string v = lower(s);
  out = v == "scalar" || v == "0"                   ? 0
        : v == "simd" || v == "vector" || v == "1" ? 1
                                                    : -1;
  return out >= 0 || v == "auto";
}

constexpr std::int64_t kMaxI64 = INT64_MAX;

// The one declaration of every runtime knob, in enum Knob order.
constexpr Spec kTable[kNumKnobs] = {
    {"QTC_NUM_THREADS", 0, 1, 256, parse_int<false>},
    {"QTC_FUSION", 1, 0, 1, parse_flag},
    // hi is sim::kMaxFusionQubits; fusion_config() clamps to it as well.
    {"QTC_FUSION_MAX_QUBITS", 3, 1, 6, parse_int<false>},
    {"QTC_FUSION_COST", -1, -1, 1, parse_fusion_cost},
    {"QTC_TRAJ_PARALLEL", 1, 0, 1, parse_flag},
    {"QTC_SIMD", 1, 0, 1, parse_flag},
    {"QTC_DISPATCH", 1, 0, 1, parse_flag},
    {"QTC_STAB_PACKED", 1, 0, 1, parse_flag},
    {"QTC_DD_GC_THRESHOLD", 131072, 0, kMaxI64, parse_gc_threshold},
    {"QTC_DD_CT_BITS", 15, 4, 20, parse_int<true>},
    {"QTC_MAP_TRIALS", 4, 1, 256, parse_int<true>},
    {"QTC_MAP_SEED", 0xC0FFEE, 0, 0, parse_seed},
    {"QTC_MAP_FIDELITY", 0, 0, 1, parse_flag},
    {"QTC_TRANSPILE_CACHE", 1, 0, 1, parse_flag},
    {"QTC_QBIN", 1, 0, 1, parse_flag},
    {"QTC_SERVICE_WORKERS", 0, 1, 256, parse_int<false>},
    {"QTC_SERVICE_QUEUE_CAP", 64, 1, 1 << 20, parse_int<false>},
    {"QTC_SERVICE_RESULTS_CAP", 1024, 1, 1 << 24, parse_int<false>},
    {"QTC_SERVICE_BATCH", 1, 0, 1, parse_flag},
};
static_assert(kTable[kNumKnobs - 1].name != nullptr, "one row per Knob");

// Writers serialize on g_mu and republish the effective value; readers only
// load detail::g_values.
std::mutex g_mu;
std::array<std::int64_t, kNumKnobs> g_base{};  // environment or default
std::array<Source, kNumKnobs> g_base_source{};
std::array<std::optional<std::int64_t>, kNumKnobs> g_override{};

void publish_locked(int i) {
  detail::g_values[i].store(g_override[i].value_or(g_base[i]),
                            std::memory_order_relaxed);
}

void load_env_locked() {
  for (int i = 0; i < kNumKnobs; ++i) {
    const Spec& spec = kTable[i];
    const char* s = std::getenv(spec.name);
    std::int64_t v = 0;
    const bool from_env = s && *s && spec.parse(s, spec, v);
    g_base[i] = from_env ? v : spec.fallback;
    g_base_source[i] = from_env ? Source::Env : Source::Default;
    publish_locked(i);
  }
  detail::g_resolved.store(true, std::memory_order_release);
}

void ensure_resolved_locked() {
  if (!detail::g_resolved.load(std::memory_order_relaxed)) load_env_locked();
}

void set_override_locked(Knob knob, std::optional<std::int64_t> value) {
  ensure_resolved_locked();
  g_override[static_cast<int>(knob)] = value;
  publish_locked(static_cast<int>(knob));
}

}  // namespace

void detail::resolve() {
  std::lock_guard<std::mutex> lock(g_mu);
  ensure_resolved_locked();
}

void set_override(Knob knob, std::int64_t value) {
  std::lock_guard<std::mutex> lock(g_mu);
  set_override_locked(knob, value);
}

void clear_override(Knob knob) {
  std::lock_guard<std::mutex> lock(g_mu);
  set_override_locked(knob, std::nullopt);
}

void set_flag_override(Knob knob, int enabled) {
  if (enabled < 0)
    clear_override(knob);
  else
    set_override(knob, enabled != 0);
}

void reload() {
  std::lock_guard<std::mutex> lock(g_mu);
  load_env_locked();
}

const char* to_string(Source source) {
  constexpr const char* kNames[] = {"default", "env", "override"};
  return kNames[static_cast<int>(source)];
}

std::vector<Setting> snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  ensure_resolved_locked();
  std::vector<Setting> out;
  for (int i = 0; i < kNumKnobs; ++i)
    out.push_back({kTable[i].name, g_override[i].value_or(g_base[i]),
                   g_override[i] ? Source::Override : g_base_source[i]});
  return out;
}

}  // namespace qtc::config
