// Crash diagnostics: when the process dies on a fatal signal (SIGSEGV,
// SIGABRT, SIGBUS, SIGFPE) or an unhandled exception reaches
// std::terminate, write a post-mortem report to XNFDB_CRASH_DIR before
// re-raising — a backtrace, the tail of the flight recorder, the last
// metrics snapshot, and the active-query table, so "what was the engine
// doing when it died?" has an answer on disk.
//
// Async-signal-safety: the handler runs with the world in an unknown state
// (a mutex may be held by the very thread that crashed), so it uses only
// raw open/write/fsync on file descriptors, backtrace_symbols_fd, and a
// hand-rolled integer formatter — no malloc, no locks, no stdio. The
// dynamic pieces (metrics text, active queries) are therefore NOT gathered
// at crash time: normal-context code refreshes two fixed-size seqlock'd
// buffers (SetCrashContextMetrics / SetCrashContextQueries) whenever it is
// cheap to do so — the Database on every sampler tick and rate-limited
// after query completion, the Governor on admission and release — and the
// handler copies whatever consistent content those buffers hold. The
// flight-recorder tail comes from FlightRecorder::DumpTailUnsafe, which is
// designed for exactly this caller.
//
// Installation is explicit and idempotent: the Database constructor calls
// InstallCrashHandler only when its Config names a crash directory
// (XNFDB_CRASH_DIR) — an embedded host that owns its own signal
// disposition is never surprised. After writing the report the original
// disposition is restored and the signal re-raised, so exit codes, core
// dumps, and wait status all behave as if the handler had never existed.

#ifndef XNFDB_COMMON_CRASH_H_
#define XNFDB_COMMON_CRASH_H_

#include <string>
#include <string_view>

namespace xnfdb {

// Installs the signal handlers and std::terminate hook, creating `dir` if
// needed (reports land there as crash_<pid>_<seq>.txt). Idempotent; the
// first successful call wins and later calls return true without changes.
// Returns false when `dir` cannot be created.
bool InstallCrashHandler(const std::string& dir);

bool CrashHandlerInstalled();

// The installed report directory ("" when not installed).
std::string CrashReportDir();

// Refreshes the context buffers the crash handler copies into the report.
// Cheap (one memcpy under a seqlock), safe from any thread, and a no-op
// before installation. Content beyond the fixed buffer size (16 KiB each)
// is truncated.
void SetCrashContextMetrics(std::string_view text);
void SetCrashContextQueries(std::string_view text);

// Number of crash_*.txt reports in `dir` (0 when the directory is missing)
// — feeds the crash.reports_found gauge behind the built-in health rule.
int CountCrashReports(const std::string& dir);

// Renders the same report the signal handler would write (header, flight
// recorder tail, metrics and query context buffers — no backtrace, which
// only makes sense at the point of death). Used by the diagnostic-bundle
// path so a live `.diag` bundle and a post-mortem report line up.
std::string RenderCrashStyleReport(const char* reason);

}  // namespace xnfdb

#endif  // XNFDB_COMMON_CRASH_H_
