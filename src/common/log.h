// Leveled structured logging: one JSON object per line, tagged with a
// per-subsystem channel, e.g.
//
//   {"ts_us":1722945612345678,"level":"warn","channel":"slowlog",
//    "msg":"slow query","total_us":15234,"text":"SELECT ..."}
//
// Design goals:
//  * disabled levels cost one relaxed atomic load — instrumenting a hot
//    path with trace/debug lines is free when they are off;
//  * machine-parseable output (JSON lines) so the slow-query log and any
//    diagnostic stream can be grepped/jq'ed without a format parser;
//  * configured by the Database (common/config.h):
//      XNFDB_LOG_LEVEL = trace|debug|info|warn|error|off   (default warn)
//      XNFDB_LOG       = <path>                            (default stderr)
//  * a test sink hook (SetSink) so tests can assert on emitted lines
//    without touching the filesystem.

#ifndef XNFDB_COMMON_LOG_H_
#define XNFDB_COMMON_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace xnfdb {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

// "trace".."error"/"off"; unknown strings parse as the default (warn).
LogLevel ParseLogLevel(const std::string& s);
const char* LogLevelName(LogLevel level);

// One structured field of a log line: either a string or an integer value.
struct LogField {
  std::string key;
  std::string str;
  int64_t num = 0;
  bool is_num = false;

  static LogField S(std::string key, std::string value) {
    LogField f;
    f.key = std::move(key);
    f.str = std::move(value);
    return f;
  }
  static LogField N(std::string key, int64_t value) {
    LogField f;
    f.key = std::move(key);
    f.num = value;
    f.is_num = true;
    return f;
  }
};

class Logger {
 public:
  // The process-wide logger: warn level to stderr until a Database applies
  // its Config's XNFDB_LOG_LEVEL / XNFDB_LOG.
  static Logger& Default();

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  void set_level(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  bool Enabled(LogLevel level) const { return level >= this->level(); }
  // Appends lines to `path` instead of stderr; empty restores stderr.
  void set_file_path(std::string path);

  // Emits one JSON line on `channel`. No-op (one atomic load) when `level`
  // is below the configured threshold.
  void Log(LogLevel level, const std::string& channel, const std::string& msg,
           std::vector<LogField> fields = {});

  // Redirects output to `sink` (tests). Pass nullptr to restore the
  // default destination (XNFDB_LOG path or stderr). Any pending coalesced
  // warn summary is flushed to the previous destination first.
  using Sink = std::function<void(const std::string& line)>;
  void SetSink(Sink sink);

  // Emits the pending `repeated=N` summary line, if any. Identical
  // consecutive warn+ lines (same channel, msg and string-field values)
  // are suppressed after the first; the run ends — and the summary is
  // emitted — when a different line arrives or this is called.
  void FlushCoalesced();

 private:
  // Both require mu_ to be held.
  void EmitLocked(const std::string& line);
  void FlushCoalescedLocked();

  std::atomic<int> level_{static_cast<int>(LogLevel::kWarn)};
  std::mutex mu_;          // serializes emits, coalescing state, sink swaps
  Sink sink_;              // empty => default destination
  std::string file_path_;  // empty => stderr
  std::string last_warn_key_;  // identity of the warn run being coalesced
  std::string pending_line_;   // newest suppressed line of the run
  int64_t suppressed_ = 0;     // lines suppressed in the current run
};

}  // namespace xnfdb

#endif  // XNFDB_COMMON_LOG_H_
