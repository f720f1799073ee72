#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <type_traits>
#include <variant>

#include "common/schema.h"
#include "common/str_util.h"
#include "obs/trace.h"

namespace xnfdb {

namespace {

// The field a knob sets; its type picks the grammar.
using Field =
    std::variant<bool*, int*, int64_t*, size_t*, std::string*, LogLevel*>;

struct Row {
  const char* name;
  Field (*field)(Config&);
  int64_t min = 0;  // integer knobs only
  int64_t max = 0;
};

#define KNOB(name, member, ...) \
  { name, [](Config& c) -> Field { return &c.member; }, __VA_ARGS__ }

constexpr int64_t k2to40 = int64_t{1} << 40;
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// The table: every knob, once. Defaults are the Config field initializers.
const Row kRows[] = {
    KNOB("XNFDB_LOG_LEVEL", log_level),
    KNOB("XNFDB_LOG", log_path),
    KNOB("XNFDB_TRACE", trace_path),
    KNOB("XNFDB_EVENTS", events),
    KNOB("XNFDB_EVENT_RING", event_ring, 16, 1 << 20),
    KNOB("XNFDB_CRASH_DIR", crash_dir),
    KNOB("XNFDB_QUERY_PROFILES", query_profiles),
    KNOB("XNFDB_QERROR_ALERT", qerror_alert, 1, 1 << 30),
    KNOB("XNFDB_METRICS_SAMPLE_MS", sampler.interval_ms, 0, k2to40),
    KNOB("XNFDB_METRICS_RING", sampler.ring_capacity, 1, 1 << 20),
    KNOB("XNFDB_WATCHDOG_STALL_MS", watchdog.stall_ms, 0, k2to40),
    KNOB("XNFDB_WATCHDOG_POLL_MS", watchdog.poll_ms, 1, k2to40),
    KNOB("XNFDB_WATCHDOG_CANCEL", watchdog.auto_cancel),
    KNOB("XNFDB_MAX_CONCURRENT_QUERIES", governor.max_concurrent, 0, 4096),
    KNOB("XNFDB_QUERY_TIMEOUT_MS", governor.default_timeout_ms, 0, kMax),
    KNOB("XNFDB_MAX_RESULT_ROWS", governor.default_max_result_rows, 0, kMax),
    KNOB("XNFDB_MEM_BUDGET_BYTES", governor.default_mem_budget_bytes, 0, kMax),
    KNOB("XNFDB_BATCH_SIZE", batch_size, 1, 1 << 20),
    KNOB("XNFDB_MORSEL_WORKERS", morsel_workers, 1, 256),
    KNOB("XNFDB_MATVIEWS", matview.enabled),
    KNOB("XNFDB_MATVIEW_AUTO_CALLS", matview.auto_calls, 1, 1 << 30),
    KNOB("XNFDB_MATVIEW_AUTO_US", matview.auto_min_avg_us, 0, k2to40),
    KNOB("XNFDB_MATVIEW_MAX", matview.max_views, 1, 1 << 20),
    KNOB("XNFDB_MATVIEW_MAX_ROWS", matview.max_rows, 1, k2to40),
};

#undef KNOB

std::string Render(const Field& field) {
  return std::visit(
      [](auto* p) -> std::string {
        using T = std::remove_pointer_t<decltype(p)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *p;
        } else if constexpr (std::is_same_v<T, LogLevel>) {
          return LogLevelName(*p);
        } else {
          return std::to_string(*p);
        }
      },
      field);
}

// Logs one "env" warning per (knob, raw value) per process.
void Warn(const Row& row, const std::string& raw, const char* what,
          const Field& field) {
  static std::mutex* mu = new std::mutex();
  static std::set<std::string>* warned = new std::set<std::string>();
  {
    std::lock_guard<std::mutex> lock(*mu);
    if (!warned->insert(std::string(row.name) + "=" + raw).second) return;
  }
  Logger::Default().Log(
      LogLevel::kWarn, "env", what,
      {LogField::S("var", row.name), LogField::S("value", raw),
       LogField::S("using", Render(field))});
}

// Parses a set, non-empty `raw` into the row's field, which holds the
// default. Integers clamp to [min, max]; booleans take 1/true/yes/on and
// 0/false/no/off, case-insensitive; a malformed value keeps the default.
// A malformed or clamped value warns.
void Resolve(const Row& row, const std::string& raw, Config* config) {
  const Field field = row.field(*config);
  if (bool* const* b = std::get_if<bool*>(&field)) {
    const std::string word = ToUpperIdent(Trim(raw));
    if (word == "1" || word == "TRUE" || word == "YES" || word == "ON") {
      **b = true;
    } else if (word == "0" || word == "FALSE" || word == "NO" ||
               word == "OFF") {
      **b = false;
    } else {
      Warn(row, raw, "unparsable boolean env var ignored", field);
    }
  } else if (std::string* const* s = std::get_if<std::string*>(&field)) {
    // XNFDB_TRACE is a switch that may name its dump file.
    const bool trace = *s == &config->trace_path;
    **s = trace && raw == "1"   ? "xnfdb_trace.json"
          : trace && raw == "0" ? ""
                                : raw;
  } else if (LogLevel* const* level = std::get_if<LogLevel*>(&field)) {
    **level = ParseLogLevel(raw);
  } else {
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(raw.c_str(), &end, 10);
    while (std::isspace(static_cast<unsigned char>(*end))) ++end;
    if (end == raw.c_str() || *end != '\0' || errno == ERANGE) {
      Warn(row, raw, "unparsable integer env var ignored", field);
      return;
    }
    const int64_t v = std::clamp<int64_t>(parsed, row.min, row.max);
    std::visit(
        [v](auto* p) {
          using T = std::remove_pointer_t<decltype(p)>;
          if constexpr (std::is_integral_v<T>) *p = static_cast<T>(v);
        },
        field);
    if (v != parsed) Warn(row, raw, "env var out of range, clamped", field);
  }
}

}  // namespace

Config Config::FromEnv() {
  Config c;
  for (const Row& row : kRows) {
    const char* raw = std::getenv(row.name);
    if (raw == nullptr) continue;
    c.env[row.name] = raw;
    if (*raw != '\0') Resolve(row, raw, &c);
  }
  return c;
}

const Config& Config::Process() {
  static const Config* process = new Config(FromEnv());
  return *process;
}

std::vector<Config::Knob> Config::Knobs() const {
  Config& self = const_cast<Config&>(*this);  // the fields are only read
  std::vector<Knob> out;
  for (const Row& row : kRows) {
    const Field field = row.field(self);
    const char* type = std::holds_alternative<bool*>(field)          ? "bool"
                       : std::holds_alternative<std::string*>(field) ? "text"
                       : std::holds_alternative<LogLevel*>(field)    ? "level"
                                                                     : "int";
    auto it = env.find(row.name);
    out.push_back({row.name, it == env.end() ? "<unset>" : it->second,
                   Render(field), type, row.min, row.max});
  }
  return out;
}

MatViewConfig MatViewConfig::FromEnv() { return Config::FromEnv().matview; }

GovernorOptions GovernorOptions::FromEnv() {
  return Config::FromEnv().governor;
}

WatchdogOptions WatchdogOptions::FromEnv() {
  return Config::FromEnv().watchdog;
}

// Declared in obs/trace.h; defined beside the table, as obs sits below
// common.
bool obs::Tracer::EnvEnabled() { return !Config::FromEnv().trace_path.empty(); }

}  // namespace xnfdb
