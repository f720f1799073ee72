#include "common/log.h"

#include <cstdio>
#include <fstream>

#include "common/schema.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace xnfdb {

LogLevel ParseLogLevel(const std::string& raw) {
  const std::string s = ToUpperIdent(raw);
  if (s == "TRACE") return LogLevel::kTrace;
  if (s == "DEBUG") return LogLevel::kDebug;
  if (s == "INFO") return LogLevel::kInfo;
  if (s == "WARN" || s == "WARNING") return LogLevel::kWarn;
  if (s == "ERROR") return LogLevel::kError;
  if (s == "OFF" || s == "NONE") return LogLevel::kOff;
  return LogLevel::kWarn;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

Logger& Logger::Default() {
  // Never dies: log sites may run at exit.
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::set_file_path(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  file_path_ = std::move(path);
}

void Logger::SetSink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  FlushCoalescedLocked();  // the summary belongs to the old destination
  sink_ = std::move(sink);
}

void Logger::FlushCoalesced() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushCoalescedLocked();
  last_warn_key_.clear();
}

void Logger::Log(LogLevel level, const std::string& channel,
                 const std::string& msg, std::vector<LogField> fields) {
  const bool is_warn = level >= LogLevel::kWarn && level < LogLevel::kOff;
  if (is_warn) {
    // Warn+ lines feed the flight recorder even when the logger itself is
    // silenced: forensics must survive XNFDB_LOG_LEVEL=off. Only string
    // fields go into the detail — numeric fields (elapsed times, counters)
    // vary per repeat and would defeat the recorder's coalescing.
    std::string detail;
    for (const LogField& f : fields) {
      if (f.is_num) continue;
      if (!detail.empty()) detail += ' ';
      detail += f.key + "=" + f.str;
    }
    obs::FlightRecorder::Default().Record(channel, LogLevelName(level), msg,
                                          detail);
  }
  if (!Enabled(level)) return;
  std::string line;
  line.reserve(128);
  line += "{\"ts_us\":" + std::to_string(obs::WallUs());
  line += ",\"level\":\"";
  line += LogLevelName(level);
  line += "\",\"channel\":\"" + obs::JsonEscape(channel) + "\"";
  line += ",\"msg\":\"" + obs::JsonEscape(msg) + "\"";
  for (const LogField& f : fields) {
    line += ",\"" + obs::JsonEscape(f.key) + "\":";
    if (f.is_num) {
      line += std::to_string(f.num);
    } else {
      line += "\"" + obs::JsonEscape(f.str) + "\"";
    }
  }
  line += "}";

  std::lock_guard<std::mutex> lock(mu_);
  if (is_warn) {
    std::string key;
    key.reserve(64);
    key += LogLevelName(level);
    key += '|';
    key += channel;
    key += '|';
    key += msg;
    for (const LogField& f : fields) {
      if (f.is_num) continue;
      key += '|';
      key += f.key;
      key += '=';
      key += f.str;
    }
    if (key == last_warn_key_) {
      ++suppressed_;
      pending_line_ = std::move(line);  // summary carries the newest numbers
      return;
    }
    FlushCoalescedLocked();
    last_warn_key_ = std::move(key);
  } else {
    // A different (sub-warn) line ends the run: emit the summary first so
    // the stream stays ordered, then forget the run.
    FlushCoalescedLocked();
    last_warn_key_.clear();
  }
  EmitLocked(line);
}

void Logger::FlushCoalescedLocked() {
  if (suppressed_ == 0) return;
  std::string line = std::move(pending_line_);
  line.insert(line.size() - 1, ",\"repeated\":" + std::to_string(suppressed_));
  suppressed_ = 0;
  pending_line_.clear();
  EmitLocked(line);
}

void Logger::EmitLocked(const std::string& line) {
  if (sink_) {
    sink_(line);
    return;
  }
  if (!file_path_.empty()) {
    std::ofstream out(file_path_, std::ios::app);
    if (out) {
      out << line << "\n";
      return;
    }
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace xnfdb
