// Contracts of the runtime knob registry (core/config.hpp): precedence
// override > environment > default for a flag, an integer and the hex seed;
// resolve-once reads with reload(); snapshot() sources; every knob's
// accepted syntax; and README's knob table naming exactly the registry's
// QTC_* variables.

#include "core/config.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <string>

#include "core/parallel.hpp"
#include "map/mapping.hpp"
#include "qbin/qbin.hpp"
#include "sim/fusion.hpp"
#include "transpiler/transpile_cache.hpp"

namespace qtc {
namespace {

using config::Knob;
using config::Source;

/// Set (or, with nullptr, unset) one variable for the enclosing scope and
/// re-read the registry on entry and exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value)
      setenv(name, value, 1);
    else
      unsetenv(name);
    config::reload();
  }
  ~ScopedEnv() {
    unsetenv(name_);
    config::reload();
  }

 private:
  const char* name_;
};

config::Setting setting(Knob knob) {
  return config::snapshot()[static_cast<int>(knob)];
}

TEST(Config, FlagPrecedenceOverrideEnvDefault) {
  {
    ScopedEnv env("QTC_FUSION", nullptr);
    EXPECT_TRUE(sim::fusion_config().enabled);
    EXPECT_EQ(setting(Knob::Fusion).source, Source::Default);
  }
  ScopedEnv env("QTC_FUSION", "OFF");  // flags ignore case
  EXPECT_FALSE(sim::fusion_config().enabled);
  EXPECT_EQ(setting(Knob::Fusion).source, Source::Env);
  sim::set_fusion_enabled(1);
  EXPECT_TRUE(sim::fusion_config().enabled);
  EXPECT_EQ(setting(Knob::Fusion).source, Source::Override);
  sim::set_fusion_enabled(-1);  // clearing falls back to the environment
  EXPECT_FALSE(sim::fusion_config().enabled);
  EXPECT_EQ(setting(Knob::Fusion).source, Source::Env);
}

TEST(Config, IntPrecedenceOverrideEnvDefault) {
  const int hw = [] {
    ScopedEnv env("QTC_NUM_THREADS", nullptr);
    EXPECT_EQ(setting(Knob::NumThreads).source, Source::Default);
    return parallel::num_threads();
  }();
  EXPECT_GE(hw, 1);
  ScopedEnv env("QTC_NUM_THREADS", "3");
  EXPECT_EQ(parallel::num_threads(), 3);
  EXPECT_EQ(setting(Knob::NumThreads).value, 3);
  EXPECT_EQ(setting(Knob::NumThreads).source, Source::Env);
  parallel::set_num_threads(2);
  EXPECT_EQ(parallel::num_threads(), 2);
  EXPECT_EQ(setting(Knob::NumThreads).source, Source::Override);
  parallel::set_num_threads(0);
  EXPECT_EQ(parallel::num_threads(), 3);
  for (const char* bad : {"garbage", "0", "-3"}) {
    ScopedEnv inner("QTC_NUM_THREADS", bad);
    EXPECT_EQ(parallel::num_threads(), hw) << bad;
    EXPECT_EQ(setting(Knob::NumThreads).source, Source::Default) << bad;
  }
  ScopedEnv huge("QTC_NUM_THREADS", "100000");
  EXPECT_EQ(parallel::num_threads(), 256);
}

TEST(Config, HexSeedPrecedenceOverrideEnvDefault) {
  {
    ScopedEnv env("QTC_MAP_SEED", nullptr);
    EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);
    EXPECT_EQ(setting(Knob::MapSeed).source, Source::Default);
  }
  ScopedEnv env("QTC_MAP_SEED", "0xBEEF");
  EXPECT_EQ(map::default_map_seed(), 0xBEEFu);
  EXPECT_EQ(setting(Knob::MapSeed).source, Source::Env);
  config::set_override(Knob::MapSeed, 7);
  EXPECT_EQ(map::default_map_seed(), 7u);
  EXPECT_EQ(setting(Knob::MapSeed).source, Source::Override);
  config::clear_override(Knob::MapSeed);
  EXPECT_EQ(map::default_map_seed(), 0xBEEFu);
  {
    ScopedEnv partial("QTC_MAP_SEED", "0xBEEFz");  // whole value must parse
    EXPECT_EQ(map::default_map_seed(), 0xC0FFEEu);
    EXPECT_EQ(setting(Knob::MapSeed).source, Source::Default);
  }
}

TEST(Config, KnobsAreReadOnceUntilReload) {
  ScopedEnv env("QTC_MAP_TRIALS", "7");
  EXPECT_EQ(map::default_map_trials(), 7);
  ASSERT_EQ(setenv("QTC_MAP_TRIALS", "9", 1), 0);
  EXPECT_EQ(map::default_map_trials(), 7);  // resolved once
  config::reload();
  EXPECT_EQ(map::default_map_trials(), 9);
  // An override survives reload().
  config::set_override(Knob::MapTrials, 2);
  config::reload();
  EXPECT_EQ(map::default_map_trials(), 2);
  config::clear_override(Knob::MapTrials);
  EXPECT_EQ(map::default_map_trials(), 9);
}

TEST(Config, EachKnobKeepsItsSyntax) {
  {
    ScopedEnv env("QTC_QBIN", "Off");
    EXPECT_FALSE(qbin::fingerprint_enabled());
  }
  EXPECT_TRUE(qbin::fingerprint_enabled());
  {
    ScopedEnv env("QTC_TRANSPILE_CACHE", "NO");
    EXPECT_FALSE(transpiler::TranspileCache::enabled());
  }
  {
    ScopedEnv env("QTC_FUSION_MAX_QUBITS", "99");
    EXPECT_EQ(sim::fusion_config().max_qubits, sim::kMaxFusionQubits);
  }
  {
    ScopedEnv env("QTC_FUSION_COST", "Vector");
    EXPECT_EQ(sim::fusion_config().cost_model, 1);
  }
  {
    ScopedEnv env("QTC_FUSION_COST", "auto");
    EXPECT_EQ(sim::fusion_config().cost_model, -1);
    EXPECT_EQ(setting(Knob::FusionCost).source, Source::Env);
  }
  {
    ScopedEnv env("QTC_MAP_TRIALS", "0");  // clamps up, not to the default
    EXPECT_EQ(map::default_map_trials(), 1);
  }
  {
    ScopedEnv env("QTC_MAP_TRIALS", "junk");
    EXPECT_EQ(map::default_map_trials(), 4);
  }
  {
    ScopedEnv env("QTC_DD_CT_BITS", "2");
    EXPECT_EQ(config::get(Knob::DdCtBits), 4);
  }
  {
    ScopedEnv env("QTC_DD_GC_THRESHOLD", "false");
    EXPECT_EQ(config::get(Knob::DdGcThreshold), 0);
  }
  {
    ScopedEnv env("QTC_SERVICE_QUEUE_CAP", "0");  // below the minimum
    EXPECT_EQ(config::get(Knob::ServiceQueueCap), 64);
  }
}

TEST(Config, SnapshotListsEveryKnobOnceInEnumOrder) {
  const auto snap = config::snapshot();
  ASSERT_EQ(static_cast<int>(snap.size()), config::kNumKnobs);
  std::set<std::string> names;
  for (const config::Setting& s : snap) {
    EXPECT_EQ(std::string(s.name).rfind("QTC_", 0), 0u) << s.name;
    names.insert(s.name);
  }
  EXPECT_EQ(static_cast<int>(names.size()), config::kNumKnobs);
  EXPECT_STREQ(snap[static_cast<int>(Knob::NumThreads)].name,
               "QTC_NUM_THREADS");
  EXPECT_STREQ(snap[static_cast<int>(Knob::ServiceBatch)].name,
               "QTC_SERVICE_BATCH");
  EXPECT_STREQ(config::to_string(Source::Default), "default");
  EXPECT_STREQ(config::to_string(Source::Env), "env");
  EXPECT_STREQ(config::to_string(Source::Override), "override");
}

TEST(Config, ReadmeKnobTableMatchesRegistry) {
  std::ifstream in(QTC_SOURCE_DIR "/README.md");
  ASSERT_TRUE(in) << "README.md not found";
  const std::regex row(R"(^\| `(QTC_[A-Z0-9_]+)` \|)");
  std::set<std::string> documented;
  std::string line;
  while (std::getline(in, line)) {
    std::smatch m;
    if (std::regex_search(line, m, row)) documented.insert(m[1]);
  }
  std::set<std::string> registered;
  for (const config::Setting& s : config::snapshot())
    registered.insert(s.name);
  EXPECT_EQ(documented, registered);
}

}  // namespace
}  // namespace qtc
