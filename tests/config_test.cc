// Tests of the configuration surface (common/config.h): the one table of
// XNFDB_* knobs and its grammar — the only tests that set the process
// environment — and a Database running with a Config it is given.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/config.h"
#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace xnfdb {
namespace {

// Sets (nullptr: unsets) one environment variable for the scope, restoring
// its previous state after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      saved_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_ = false;
  std::string saved_;
};

// Counts the "env"-channel warnings about `var` logged during the scope.
class EnvWarnings {
 public:
  EnvWarnings() : saved_level_(Logger::Default().level()) {
    Logger::Default().set_level(LogLevel::kWarn);
    Logger::Default().SetSink(
        [this](const std::string& line) { lines_.push_back(line); });
    Logger::Default().FlushCoalesced();
  }
  ~EnvWarnings() {
    Logger::Default().SetSink(nullptr);
    Logger::Default().set_level(saved_level_);
  }
  int About(const std::string& var) {
    Logger::Default().FlushCoalesced();
    int n = 0;
    for (const std::string& line : lines_) {
      if (line.find("\"channel\":\"env\"") != std::string::npos &&
          line.find("\"var\":\"" + var + "\"") != std::string::npos) {
        ++n;
      }
    }
    return n;
  }

 private:
  LogLevel saved_level_;
  std::vector<std::string> lines_;
};

Config::Knob KnobOf(const Config& config, const std::string& name) {
  for (const Config::Knob& k : config.Knobs()) {
    if (k.name == name) return k;
  }
  ADD_FAILURE() << "no knob " << name;
  return {};
}

// --- the grammar, through one integer and two boolean knobs -----------------

TEST(ParseEnvIntTest, UnsetYieldsDefault) {
  ScopedEnv env("XNFDB_MATVIEW_MAX", nullptr);
  EXPECT_EQ(Config::FromEnv().matview.max_views, MatViewConfig{}.max_views);
  EXPECT_EQ(MatViewConfig{}.max_views, 32u);
}

TEST(ParseEnvIntTest, ValidValueIsParsed) {
  {
    ScopedEnv env("XNFDB_MATVIEW_MAX", "17");
    EXPECT_EQ(Config::FromEnv().matview.max_views, 17u);
  }
  ScopedEnv env("XNFDB_MATVIEW_MAX", "  23  ");  // whitespace is fine
  EXPECT_EQ(Config::FromEnv().matview.max_views, 23u);
}

TEST(ParseEnvIntTest, OutOfRangeValuesAreClamped) {
  {
    ScopedEnv env("XNFDB_MATVIEW_MAX", "2000000");
    EXPECT_EQ(Config::FromEnv().matview.max_views, size_t{1} << 20);
  }
  ScopedEnv env("XNFDB_MATVIEW_MAX", "-5");
  EXPECT_EQ(Config::FromEnv().matview.max_views, 1u);
}

TEST(ParseEnvIntTest, MalformedValuesYieldDefault) {
  for (const char* bad : {"", "abc", "12abc", "1.5", "0x10"}) {
    ScopedEnv env("XNFDB_MATVIEW_MAX", bad);
    EXPECT_EQ(Config::FromEnv().matview.max_views, 32u)
        << "value: '" << bad << "'";
  }
  // Overflow beyond int64 is malformed, not clamped.
  ScopedEnv env("XNFDB_MATVIEW_MAX", "99999999999999999999999");
  EXPECT_EQ(Config::FromEnv().matview.max_views, 32u);
}

TEST(ParseEnvBoolTest, UnsetAndEmptyYieldDefault) {
  {
    ScopedEnv on("XNFDB_MATVIEWS", nullptr);
    ScopedEnv off("XNFDB_WATCHDOG_CANCEL", nullptr);
    EXPECT_TRUE(Config::FromEnv().matview.enabled);
    EXPECT_FALSE(Config::FromEnv().watchdog.auto_cancel);
  }
  ScopedEnv on("XNFDB_MATVIEWS", "");
  ScopedEnv off("XNFDB_WATCHDOG_CANCEL", "");
  EXPECT_TRUE(Config::FromEnv().matview.enabled);
  EXPECT_FALSE(Config::FromEnv().watchdog.auto_cancel);
}

TEST(ParseEnvBoolTest, RecognizedSpellings) {
  for (const char* yes : {"1", "true", "TRUE", "Yes", "on", " ON "}) {
    ScopedEnv env("XNFDB_WATCHDOG_CANCEL", yes);
    EXPECT_TRUE(Config::FromEnv().watchdog.auto_cancel) << "value: " << yes;
  }
  for (const char* no : {"0", "false", "FALSE", "No", "off", " off "}) {
    ScopedEnv env("XNFDB_MATVIEWS", no);
    EXPECT_FALSE(Config::FromEnv().matview.enabled) << "value: " << no;
  }
}

TEST(ParseEnvBoolTest, UnparsableValuesYieldDefault) {
  for (const char* bad : {"2", "maybe", "enable", "tru"}) {
    ScopedEnv on("XNFDB_MATVIEWS", bad);
    ScopedEnv off("XNFDB_WATCHDOG_CANCEL", bad);
    EXPECT_TRUE(Config::FromEnv().matview.enabled) << "value: " << bad;
    EXPECT_FALSE(Config::FromEnv().watchdog.auto_cancel) << "value: " << bad;
  }
}

// --- the table, row by row ------------------------------------------------

TEST(ConfigTableTest, TwentyFourKnobsWhoseDefaultsAreAConfigsFields) {
  const std::vector<Config::Knob> knobs = Config{}.Knobs();
  ASSERT_EQ(knobs.size(), 24u);
  std::set<std::string> names;
  std::vector<std::unique_ptr<ScopedEnv>> unset;
  for (const Config::Knob& k : knobs) {
    EXPECT_EQ(k.name.rfind("XNFDB_", 0), 0u) << k.name;
    EXPECT_TRUE(names.insert(k.name).second) << "duplicate " << k.name;
    EXPECT_EQ(k.raw, "<unset>");
    unset.push_back(std::make_unique<ScopedEnv>(k.name.c_str(), nullptr));
  }
  // With nothing set, the environment resolves to the defaults.
  const std::vector<Config::Knob> resolved = Config::FromEnv().Knobs();
  for (size_t i = 0; i < knobs.size(); ++i) {
    EXPECT_EQ(resolved[i].resolved, knobs[i].resolved) << knobs[i].name;
  }
  // Where the sampler's own default once disagreed with the knob's (1000
  // vs 0 ms), the knob's won: no background sampling unless asked.
  EXPECT_EQ(Config{}.sampler.interval_ms, 0);
  EXPECT_EQ(obs::MetricsSampler::Options{}.interval_ms, 0);
}

TEST(ConfigTableTest, EveryKnobRoundTripsAValidValue) {
  for (const Config::Knob& k : Config{}.Knobs()) {
    std::string value;
    if (std::string(k.type) == "bool") {
      value = k.resolved == "1" ? "0" : "1";
    } else if (std::string(k.type) == "int") {
      const int64_t v =
          k.resolved == std::to_string(k.min) ? k.min + 1 : k.min;
      value = std::to_string(v);
    } else if (std::string(k.type) == "level") {
      value = "debug";
    } else {
      value = "config_test_" + k.name + ".out";
    }
    ScopedEnv env(k.name.c_str(), value.c_str());
    EnvWarnings warnings;
    const Config::Knob got = KnobOf(Config::FromEnv(), k.name);
    EXPECT_EQ(got.raw, value) << k.name;
    EXPECT_EQ(got.resolved, value) << k.name;
    EXPECT_NE(got.resolved, k.resolved) << k.name << " kept its default";
    EXPECT_EQ(warnings.About(k.name), 0) << k.name;
  }
}

TEST(ConfigTableTest, OutOfRangeIntegersClampWithOneWarning) {
  for (const Config::Knob& k : Config{}.Knobs()) {
    if (std::string(k.type) != "int") continue;
    std::vector<int64_t> bounds{k.min};
    if (k.max < std::numeric_limits<int64_t>::max()) bounds.push_back(k.max);
    for (int64_t bound : bounds) {
      const std::string value =
          std::to_string(bound == k.min ? k.min - 1 : k.max + 1);
      ScopedEnv env(k.name.c_str(), value.c_str());
      EnvWarnings warnings;
      EXPECT_EQ(KnobOf(Config::FromEnv(), k.name).resolved,
                std::to_string(bound))
          << k.name << "=" << value;
      // Resolving again stays quiet: one warning per knob and value.
      EXPECT_EQ(KnobOf(Config::FromEnv(), k.name).resolved,
                std::to_string(bound));
      EXPECT_EQ(warnings.About(k.name), 1) << k.name << "=" << value;
    }
  }
}

TEST(ConfigTableTest, MalformedBoolsKeepTheirDefaultWithOneWarning) {
  int bools = 0;
  for (const Config::Knob& k : Config{}.Knobs()) {
    if (std::string(k.type) != "bool") continue;
    ++bools;
    // A value no other test sets: the warning is once per knob and value.
    ScopedEnv env(k.name.c_str(), "perhaps");
    EnvWarnings warnings;
    EXPECT_EQ(KnobOf(Config::FromEnv(), k.name).resolved, k.resolved)
        << k.name;
    EXPECT_EQ(KnobOf(Config::FromEnv(), k.name).resolved, k.resolved);
    EXPECT_EQ(warnings.About(k.name), 1) << k.name;
  }
  EXPECT_EQ(bools, 4);
}

// The two knobs that used to parse apart from the table.
TEST(ConfigTableTest, EventsSwitchAndRingParseLikeEveryOtherKnob) {
  {
    ScopedEnv env("XNFDB_EVENTS", "off");
    EXPECT_FALSE(Config::FromEnv().events);
  }
  {
    ScopedEnv env("XNFDB_EVENTS", "no");
    EXPECT_FALSE(Config::FromEnv().events);
  }
  EnvWarnings warnings;
  {
    ScopedEnv env("XNFDB_EVENT_RING", "8");
    EXPECT_EQ(Config::FromEnv().event_ring, 16u);
  }
  {
    ScopedEnv env("XNFDB_EVENT_RING", "2000000");
    EXPECT_EQ(Config::FromEnv().event_ring, size_t{1} << 20);
  }
  EXPECT_EQ(warnings.About("XNFDB_EVENT_RING"), 2);  // one per value
}

TEST(ConfigTableTest, TraceSwitchNamesItsDumpFile) {
  {
    ScopedEnv env("XNFDB_TRACE", "1");
    EXPECT_EQ(Config::FromEnv().trace_path, "xnfdb_trace.json");
    EXPECT_TRUE(obs::Tracer::EnvEnabled());
  }
  {
    ScopedEnv env("XNFDB_TRACE", "0");
    EXPECT_EQ(Config::FromEnv().trace_path, "");
    EXPECT_FALSE(obs::Tracer::EnvEnabled());
  }
  ScopedEnv env("XNFDB_TRACE", "run.json");
  EXPECT_EQ(Config::FromEnv().trace_path, "run.json");
  EXPECT_TRUE(obs::Tracer::EnvEnabled());
}

// --- a Database runs with the Config it is given ----------------------------

TEST(DatabaseConfigTest, ProcessWideKnobsApplyAtConstruction) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  const LogLevel saved_level = Logger::Default().level();
  {
    Config config;
    config.events = false;
    config.event_ring = 16;
    config.log_level = LogLevel::kError;
    Database db(Env::Default(), config);
    EXPECT_FALSE(rec.enabled());
    EXPECT_EQ(rec.capacity(), 16u);
    EXPECT_EQ(Logger::Default().level(), LogLevel::kError);
    EXPECT_EQ(db.config().event_ring, 16u);
  }
  Database defaults(Env::Default(), Config{});
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(rec.capacity(), obs::FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(Logger::Default().level(), LogLevel::kWarn);
  Logger::Default().set_level(saved_level);
}

TEST(DatabaseConfigTest, StatementsUseTheConfigNotTheEnvironment) {
  ScopedEnv env("XNFDB_BATCH_SIZE", "64");
  Config config;
  config.batch_size = 1;
  Database db(Env::Default(), config);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INTEGER)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (1), (2), (3)").ok());
  Result<QueryResult> r = db.Query("SELECT A FROM T");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Batches of one: one delivered batch per row.
  EXPECT_EQ(r.value().stats.rows_output.load(), 3);
  EXPECT_EQ(r.value().stats.batches_emitted.load(), 3);
  EXPECT_EQ(Database(Env::Default()).config().batch_size, 64);
}

}  // namespace
}  // namespace xnfdb
