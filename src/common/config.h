// The one configuration surface: every XNFDB_* knob is one row of the
// table in config.cc (its name, its range and the Config field it sets);
// the field's initializer below is its default. Config::FromEnv() walks
// the table and is the only code that reads the environment. Each Database
// resolves one Config and passes it down; DESIGN.md §15 has the knobs.

#ifndef XNFDB_COMMON_CONFIG_H_
#define XNFDB_COMMON_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"

namespace xnfdb {

// Default rows per batch (ExecOptions::batch_size).
inline constexpr int kDefaultBatchSize = 1024;

// Materialized-view policy (matview/matview.h): `enabled` is the kill
// switch; the rest bound the policy.
struct MatViewConfig {
  bool enabled = true;
  // Auto-materialization: capture the result of an execution when the
  // statement shape's call count (including this call) reaches auto_calls
  // and its mean latency so far is at least auto_min_avg_us.
  int64_t auto_calls = 2;
  int64_t auto_min_avg_us = 0;
  size_t max_views = 32;
  // Bounded materialization/refresh: results (and per-DML delta
  // derivations) larger than this are never stored.
  int64_t max_rows = 1 << 20;

  static MatViewConfig FromEnv();  // Config::FromEnv().matview
};

// Resource-governor limits (api/governor.h).
struct GovernorOptions {
  // Maximum concurrently executing queries; 0 = unlimited (no admission
  // control, queries are still registered for SYS$QUERIES / Cancel).
  int64_t max_concurrent = 0;
  // Waiters tolerated beyond the running capacity before new queries are
  // rejected outright.
  int64_t max_queue = 8;
  // Per-query defaults applied when the caller's ExecOptions leave the
  // corresponding knob at -1. 0 = no limit.
  int64_t default_timeout_ms = 0;
  int64_t default_max_result_rows = 0;
  int64_t default_mem_budget_bytes = 0;

  static GovernorOptions FromEnv();  // Config::FromEnv().governor
};

// Stuck-query watchdog (api/watchdog.h).
struct WatchdogOptions {
  // A running query is stalled when its progress fingerprint is unchanged
  // for this long. <= 0 disables the background thread (ScanOnce still
  // works for tests / shell `.watchdog`).
  int64_t stall_ms = 0;
  // Scan cadence of the background thread.
  int64_t poll_ms = 1000;
  // Cancel stalled queries instead of only reporting them.
  bool auto_cancel = false;

  static WatchdogOptions FromEnv();  // Config::FromEnv().watchdog
};

// Every knob's resolved value; the table in config.cc maps knob names to
// these fields.
struct Config {
  // Process-wide: applied by every Database at construction.
  LogLevel log_level = LogLevel::kWarn;
  std::string log_path;  // empty = stderr
  bool events = true;    // the flight recorder records
  size_t event_ring = obs::FlightRecorder::kDefaultCapacity;
  std::string crash_dir;  // empty = no crash handler

  // Per Database.
  std::string trace_path;  // the tracer's dump file; empty = tracing off
  bool query_profiles = true;  // per-statement capture
  int64_t qerror_alert = 100;
  obs::MetricsSampler::Options sampler;
  WatchdogOptions watchdog;
  GovernorOptions governor;
  int batch_size = kDefaultBatchSize;
  int morsel_workers = 1;
  MatViewConfig matview;

  // Raw environment values by knob name (set knobs only).
  std::map<std::string, std::string> env;

  static Config FromEnv();
  // FromEnv(), resolved once on first use: what a direct caller of the
  // executor gets for a batch size or worker count left at 0.
  static const Config& Process();

  struct Knob {  // one row of the table, in table order
    std::string name;
    std::string raw;  // "<unset>" when unset
    std::string resolved;
    const char* type;  // "bool", "int" (in [min, max]), "level" or "text"
    int64_t min = 0;
    int64_t max = 0;
  };
  std::vector<Knob> Knobs() const;
};

}  // namespace xnfdb

#endif  // XNFDB_COMMON_CONFIG_H_
