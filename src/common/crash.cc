#include "common/crash.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define XNFDB_HAVE_EXECINFO 1
#endif
#if __has_include(<cxxabi.h>)
#include <cxxabi.h>
#define XNFDB_HAVE_CXXABI 1
#endif
#endif

#include "obs/flight_recorder.h"

namespace xnfdb {

namespace {

constexpr size_t kContextBytes = 16384;
constexpr size_t kEventDumpBytes = 24576;
constexpr size_t kMaxTailEvents = 64;

// One normal-context-refreshed, signal-context-read text buffer. Writers
// serialize on ctx_mu (they can lock; they are ordinary threads); the
// crash-time reader validates the seqlock word instead: an even, unchanged
// `seq` across the copy means the content is consistent.
struct ContextBuf {
  std::atomic<uint32_t> seq{0};
  char text[kContextBytes] = {};
};

std::mutex* ContextMutex() {
  static std::mutex* mu = new std::mutex();
  return mu;
}

ContextBuf g_metrics_ctx;
ContextBuf g_queries_ctx;

std::atomic<bool> g_installed{false};
char g_crash_dir[512] = {};
// Cached at install time so the handler never runs the Default() static
// initializer path.
obs::FlightRecorder* g_recorder = nullptr;
std::terminate_handler g_prev_terminate = nullptr;

void SetContext(ContextBuf* buf, std::string_view text) {
  std::lock_guard<std::mutex> lock(*ContextMutex());
  uint32_t s = buf->seq.load(std::memory_order_relaxed);
  buf->seq.store(s + 1, std::memory_order_release);  // odd: mid-update
  size_t n = text.size() < kContextBytes - 1 ? text.size() : kContextBytes - 1;
  std::memcpy(buf->text, text.data(), n);
  buf->text[n] = '\0';
  buf->seq.store(s + 2, std::memory_order_release);
}

// --- async-signal-safe helpers -------------------------------------------

void WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (errno == EINTR) continue;
      return;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

void WriteStr(int fd, const char* s) { WriteAll(fd, s, std::strlen(s)); }

void WriteInt(int fd, int64_t v) {
  char digits[24];
  size_t n = 0;
  bool neg = v < 0;
  uint64_t u = neg ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  do {
    digits[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0 && n < sizeof(digits));
  if (neg) WriteAll(fd, "-", 1);
  while (n > 0) WriteAll(fd, &digits[--n], 1);
}

// Appends an integer to a NUL-terminated buffer (for the report path).
void AppendIntTo(char* buf, size_t cap, int64_t v) {
  size_t len = std::strlen(buf);
  char digits[24];
  size_t n = 0;
  uint64_t u = v < 0 ? 0 : static_cast<uint64_t>(v);
  do {
    digits[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0 && n < sizeof(digits));
  while (n > 0 && len + 1 < cap) buf[len++] = digits[--n];
  buf[len] = '\0';
}

void AppendStrTo(char* buf, size_t cap, const char* s) {
  size_t len = std::strlen(buf);
  while (*s != '\0' && len + 1 < cap) buf[len++] = *s++;
  buf[len] = '\0';
}

// Copies a context buffer under its seqlock; appends a torn-read note when
// the writer raced us. Returns bytes copied.
size_t ReadContext(const ContextBuf& buf, char* out, size_t cap) {
  uint32_t s1 = buf.seq.load(std::memory_order_acquire);
  size_t n = 0;
  while (n + 1 < cap && buf.text[n] != '\0') {
    out[n] = buf.text[n];
    ++n;
  }
  out[n] = '\0';
  uint32_t s2 = buf.seq.load(std::memory_order_acquire);
  if ((s1 & 1) != 0 || s1 != s2) {
    const char* note = "\n(context buffer was mid-update; content may be "
                       "torn)\n";
    size_t note_len = std::strlen(note);
    if (n + note_len + 1 < cap) {
      std::memcpy(out + n, note, note_len + 1);
      n += note_len;
    }
  }
  return n;
}

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    default: return "signal";
  }
}

// Writes the full report body to `fd`. `sig` <= 0 means a non-signal
// reason (std::terminate, or a live `.diag`-style render). Signal-context
// callers must pass `with_backtrace` — the call stack at the point of
// death is the whole point; the live path skips it (its own stack is
// noise).
void WriteReportBody(int fd, const char* reason, int sig,
                     bool with_backtrace) {
  // Static scratch: the handler is single-shot (guarded by the caller), so
  // static buffers are safe and keep the handler stack tiny.
  static char scratch[kContextBytes];
  static char events[kEventDumpBytes];

  WriteStr(fd, "=== xnfdb crash report ===\n");
  WriteStr(fd, "reason: ");
  WriteStr(fd, reason);
  if (sig > 0) {
    WriteStr(fd, " (signal ");
    WriteInt(fd, sig);
    WriteStr(fd, ")");
  }
  WriteStr(fd, "\npid: ");
  WriteInt(fd, static_cast<int64_t>(::getpid()));
  WriteStr(fd, "\ntime_unix: ");
  WriteInt(fd, static_cast<int64_t>(::time(nullptr)));
  WriteStr(fd, "\n\n--- backtrace ---\n");
  if (with_backtrace) {
#if defined(XNFDB_HAVE_EXECINFO)
    void* frames[64];
    int depth = ::backtrace(frames, 64);
    ::backtrace_symbols_fd(frames, depth, fd);
#else
    WriteStr(fd, "(backtrace unavailable on this platform)\n");
#endif
  } else {
    WriteStr(fd, "(not a crash: backtrace omitted)\n");
  }

  WriteStr(fd, "\n--- flight recorder (oldest of tail first) ---\n");
  if (g_recorder != nullptr) {
    size_t n = g_recorder->DumpTailUnsafe(events, sizeof(events),
                                          kMaxTailEvents);
    if (n == 0) {
      WriteStr(fd, "(no events recorded)\n");
    } else {
      WriteAll(fd, events, n);
    }
  } else {
    WriteStr(fd, "(flight recorder not attached)\n");
  }

  WriteStr(fd, "\n--- active queries (SYS$QUERIES at last refresh) ---\n");
  size_t n = ReadContext(g_queries_ctx, scratch, sizeof(scratch));
  if (n == 0) {
    WriteStr(fd, "(no active-query context captured)\n");
  } else {
    WriteAll(fd, scratch, n);
  }

  WriteStr(fd, "\n--- metrics (at last refresh) ---\n");
  n = ReadContext(g_metrics_ctx, scratch, sizeof(scratch));
  if (n == 0) {
    WriteStr(fd, "(no metrics context captured)\n");
  } else {
    WriteAll(fd, scratch, n);
  }
  WriteStr(fd, "\n=== end crash report ===\n");
}

// Opens the report file and writes the body; falls back to stderr when the
// file cannot be created. Everything here is async-signal-safe.
void WriteCrashReport(const char* reason, int sig) {
  char path[640];
  path[0] = '\0';
  AppendStrTo(path, sizeof(path), g_crash_dir);
  AppendStrTo(path, sizeof(path), "/crash_");
  AppendIntTo(path, sizeof(path), static_cast<int64_t>(::getpid()));
  AppendStrTo(path, sizeof(path), "_");
  AppendIntTo(path, sizeof(path), static_cast<int64_t>(::time(nullptr)));
  AppendStrTo(path, sizeof(path), ".txt");

  int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const bool to_file = fd >= 0;
  if (!to_file) fd = 2;
  WriteReportBody(fd, reason, sig, /*with_backtrace=*/true);
  if (to_file) {
    ::fsync(fd);
    ::close(fd);
    WriteStr(2, "xnfdb: fatal ");
    WriteStr(2, reason);
    WriteStr(2, ", crash report written to ");
    WriteStr(2, path);
    WriteStr(2, "\n");
  }
}

std::atomic<bool> g_reporting{false};

void CrashSignalHandler(int sig) {
  // SA_RESETHAND already restored the default disposition, so a second
  // fault inside the handler kills the process instead of recursing; the
  // flag additionally guards against a *different* signal arriving on
  // another thread mid-report.
  if (!g_reporting.exchange(true)) {
    WriteCrashReport(SignalName(sig), sig);
  }
  ::raise(sig);
}

void CrashTerminateHandler() {
  if (!g_reporting.exchange(true)) {
    char reason[256];
    reason[0] = '\0';
    AppendStrTo(reason, sizeof(reason), "std::terminate");
#if defined(XNFDB_HAVE_CXXABI)
    if (std::type_info* type = abi::__cxa_current_exception_type()) {
      AppendStrTo(reason, sizeof(reason), " (uncaught exception of type ");
      AppendStrTo(reason, sizeof(reason), type->name());
      AppendStrTo(reason, sizeof(reason), ")");
    }
#endif
    WriteCrashReport(reason, /*sig=*/0);
  }
  // abort() raises SIGABRT; restore the default disposition first so the
  // SIGABRT handler does not write a second report for the same death.
  ::signal(SIGABRT, SIG_DFL);
  std::abort();
}

}  // namespace

bool InstallCrashHandler(const std::string& dir) {
  static std::mutex* mu = new std::mutex();
  std::lock_guard<std::mutex> lock(*mu);
  if (g_installed.load(std::memory_order_acquire)) return true;
  if (dir.empty()) return false;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return false;
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  std::strncpy(g_crash_dir, dir.c_str(), sizeof(g_crash_dir) - 1);
  g_crash_dir[sizeof(g_crash_dir) - 1] = '\0';
  g_recorder = &obs::FlightRecorder::Default();

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::sigaction(sig, &sa, nullptr);
  }
  g_prev_terminate = std::set_terminate(CrashTerminateHandler);
  g_installed.store(true, std::memory_order_release);
  return true;
}

bool CrashHandlerInstalled() {
  return g_installed.load(std::memory_order_acquire);
}

std::string CrashReportDir() {
  return CrashHandlerInstalled() ? std::string(g_crash_dir) : std::string();
}

void SetCrashContextMetrics(std::string_view text) {
  SetContext(&g_metrics_ctx, text);
}

void SetCrashContextQueries(std::string_view text) {
  SetContext(&g_queries_ctx, text);
}

int CountCrashReports(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  int count = 0;
  while (struct dirent* e = ::readdir(d)) {
    const char* name = e->d_name;
    size_t len = std::strlen(name);
    if (len > 10 && std::strncmp(name, "crash_", 6) == 0 &&
        std::strcmp(name + len - 4, ".txt") == 0) {
      ++count;
    }
  }
  ::closedir(d);
  return count;
}

std::string RenderCrashStyleReport(const char* reason) {
  // Render through the same body writer the handler uses, via a pipe —
  // one formatter, two consumers, no drift between the live and the
  // post-mortem report layout.
  int fds[2];
  if (::pipe(fds) != 0) return "";
  // The body is bounded well below typical pipe capacity (64 KiB), but
  // write from a fork-free helper anyway: fill, close, then drain.
  // To stay simple and deadlock-free, cap the render at the pipe buffer.
  if (g_recorder == nullptr) g_recorder = &obs::FlightRecorder::Default();
  WriteReportBody(fds[1], reason, /*sig=*/0, /*with_backtrace=*/false);
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  return out;
}

}  // namespace xnfdb
