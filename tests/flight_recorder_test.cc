// Tests of the incident flight recorder (obs/flight_recorder.h): ring
// semantics, coalescing of identical consecutive events, the async-signal-
// safe tail dump, and the logger feed — warn+ lines become events, with
// identical consecutive warn lines coalesced into one `repeated=N` line.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "obs/flight_recorder.h"

namespace xnfdb {
namespace obs {
namespace {

TEST(FlightRecorderTest, RecordsInSequenceOrder) {
  FlightRecorder rec(8);
  rec.Record("query", "info", "query start", "digest=abc");
  rec.Record("governor", "warn", "admission rejected", "running=4 queued=2");
  rec.Record("query", "info", "query end");

  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1);
  EXPECT_EQ(events[1].seq, 2);
  EXPECT_EQ(events[2].seq, 3);
  EXPECT_EQ(events[0].category, "query");
  EXPECT_EQ(events[0].severity, "info");
  EXPECT_EQ(events[0].message, "query start");
  EXPECT_EQ(events[0].detail, "digest=abc");
  EXPECT_EQ(events[1].category, "governor");
  EXPECT_EQ(events[2].detail, "");
  EXPECT_GT(events[0].ts_us, 0);
  EXPECT_EQ(rec.last_seq(), 3);
  EXPECT_EQ(rec.recorded(), 3);
  EXPECT_EQ(rec.coalesced(), 0);
}

TEST(FlightRecorderTest, RingKeepsOnlyNewestEvents) {
  FlightRecorder rec(4);
  for (int i = 1; i <= 10; ++i) {
    rec.Record("test", "info", "event " + std::to_string(i));
  }
  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 7);
  EXPECT_EQ(events.back().seq, 10);
  EXPECT_EQ(events.back().message, "event 10");
  EXPECT_EQ(rec.recorded(), 10);
}

TEST(FlightRecorderTest, LongFieldsTruncateNotCorrupt) {
  FlightRecorder rec(4);
  std::string long_msg(500, 'm');
  std::string long_detail(500, 'd');
  rec.Record("a-category-longer-than-the-slot", "warning!", long_msg,
             long_detail);
  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category.size(), FlightRecorder::kCategoryBytes - 1);
  EXPECT_EQ(events[0].severity.size(), FlightRecorder::kSeverityBytes - 1);
  EXPECT_EQ(events[0].message.size(), FlightRecorder::kMessageBytes - 1);
  EXPECT_EQ(events[0].detail.size(), FlightRecorder::kDetailBytes - 1);
  EXPECT_EQ(events[0].message, long_msg.substr(
      0, FlightRecorder::kMessageBytes - 1));
}

TEST(FlightRecorderTest, IdenticalConsecutiveEventsCoalesce) {
  FlightRecorder rec(8);
  rec.Record("writeback", "warn", "transient failure, retrying", "io");
  rec.Record("writeback", "warn", "transient failure, retrying", "io");
  rec.Record("writeback", "warn", "transient failure, retrying", "io");
  // A different detail breaks the run.
  rec.Record("writeback", "warn", "transient failure, retrying", "other");
  rec.Record("writeback", "warn", "transient failure, retrying", "io");

  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].repeated, 3);
  EXPECT_EQ(events[0].detail, "io");
  EXPECT_EQ(events[1].repeated, 1);
  EXPECT_EQ(events[1].detail, "other");
  EXPECT_EQ(events[2].repeated, 1);
  // Coalesced occurrences consume no sequence numbers or slots.
  EXPECT_EQ(rec.last_seq(), 3);
  EXPECT_EQ(rec.recorded(), 5);
  EXPECT_EQ(rec.coalesced(), 2);
}

TEST(FlightRecorderTest, DisabledRecorderDropsEverything) {
  FlightRecorder rec(4);
  rec.set_enabled(false);
  rec.Record("test", "info", "dropped");
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_EQ(rec.recorded(), 0);
  rec.set_enabled(true);
  rec.Record("test", "info", "kept");
  EXPECT_EQ(rec.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, DumpTailUnsafeRendersNewestEvents) {
  FlightRecorder rec(16);
  for (int i = 1; i <= 6; ++i) {
    rec.Record("cat", i % 2 ? "info" : "warn",
               "event " + std::to_string(i), "k=" + std::to_string(i));
  }
  char buf[4096];
  size_t n = rec.DumpTailUnsafe(buf, sizeof(buf), 4);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(buf[n], '\0');
  EXPECT_EQ(std::strlen(buf), n);
  std::string text(buf);
  // Only the newest four events, oldest of them first.
  EXPECT_EQ(text.find("event 2"), std::string::npos) << text;
  EXPECT_NE(text.find("event 3"), std::string::npos) << text;
  EXPECT_NE(text.find("event 6"), std::string::npos) << text;
  EXPECT_LT(text.find("event 3"), text.find("event 6")) << text;
  EXPECT_NE(text.find("k=6"), std::string::npos) << text;
}

TEST(FlightRecorderTest, DumpTailUnsafeOnEmptyAndTinyBuffers) {
  FlightRecorder rec(4);
  char buf[8];
  size_t n = rec.DumpTailUnsafe(buf, sizeof(buf), 4);
  EXPECT_EQ(buf[n], '\0');
  rec.Record("cat", "info", "a message that cannot possibly fit");
  n = rec.DumpTailUnsafe(buf, sizeof(buf), 4);
  EXPECT_LT(n, sizeof(buf));
  EXPECT_EQ(buf[n], '\0');
}

TEST(FlightRecorderTest, ConcurrentWritersKeepTheRingConsistent) {
  FlightRecorder rec(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Record("thread", "info",
                   "t" + std::to_string(t) + " e" + std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rec.recorded(), kThreads * kPerThread);
  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Strictly increasing, gap-free sequence numbers across the ring.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().seq, rec.last_seq());
}

// Resizing keeps the newest events that fit, with their sequence numbers,
// and recording carries on from there.
TEST(FlightRecorderTest, ResizeKeepsTheNewestEvents) {
  FlightRecorder rec(4);
  for (int i = 1; i <= 6; ++i) {
    rec.Record("t", "info", "e" + std::to_string(i));
  }
  rec.Resize(8);
  EXPECT_EQ(rec.capacity(), 8u);
  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().seq, 3);
  EXPECT_EQ(events.front().message, "e3");
  EXPECT_EQ(events.back().message, "e6");
  rec.Record("t", "info", "e7");
  EXPECT_EQ(rec.Snapshot().size(), 5u);

  rec.Resize(2);
  events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].message, "e6");
  EXPECT_EQ(events[1].message, "e7");
  EXPECT_EQ(events[1].seq, rec.last_seq());
  char buf[256];
  rec.DumpTailUnsafe(buf, sizeof(buf), 16);
  EXPECT_NE(std::strstr(buf, "e7"), nullptr) << buf;
  EXPECT_EQ(std::strstr(buf, "e5"), nullptr) << buf;
}

TEST(FlightRecorderTest, ResizeUnderConcurrentWritersStaysConsistent) {
  FlightRecorder rec(16);
  std::thread writer([&rec] {
    for (int i = 0; i < 2000; ++i) rec.Record("w", "info", std::to_string(i));
  });
  for (int i = 0; i < 50; ++i) rec.Resize(i % 2 == 0 ? 64 : 16);
  writer.join();
  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  EXPECT_EQ(events.back().seq, rec.last_seq());
  EXPECT_EQ(events.back().message, "1999");
}

// --- the logger feed ------------------------------------------------------

class ScopedLogCapture {
 public:
  ScopedLogCapture() : saved_level_(Logger::Default().level()) {
    Logger::Default().SetSink(
        [this](const std::string& line) { lines_.push_back(line); });
    Logger::Default().FlushCoalesced();  // forget any previous warn run
  }
  ~ScopedLogCapture() {
    Logger::Default().SetSink(nullptr);
    Logger::Default().set_level(saved_level_);
  }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  LogLevel saved_level_;
  std::vector<std::string> lines_;
};

TEST(LoggerFeedTest, WarnLinesBecomeFlightEvents) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.set_enabled(true);
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);

  const int64_t before = rec.last_seq();
  Logger::Default().Log(LogLevel::kWarn, "watchdog", "query stalled",
                        {LogField::S("state", "running"), LogField::N("id", 7)});
  ASSERT_GT(rec.last_seq(), before);
  std::vector<FlightRecorder::Event> events = rec.Snapshot();
  const FlightRecorder::Event& e = events.back();
  EXPECT_EQ(e.category, "watchdog");
  EXPECT_EQ(e.severity, "warn");
  EXPECT_EQ(e.message, "query stalled");
  // String fields ride along as detail; numeric fields (which vary per
  // occurrence) do not, so repeats coalesce.
  EXPECT_EQ(e.detail, "state=running");
}

TEST(LoggerFeedTest, InfoLinesDoNotFeedTheRecorder) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.set_enabled(true);
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kInfo);
  const int64_t before = rec.last_seq();
  Logger::Default().Log(LogLevel::kInfo, "test", "not an incident");
  EXPECT_EQ(rec.last_seq(), before);
}

TEST(LoggerFeedTest, FeedSurvivesLogLevelOff) {
  FlightRecorder& rec = FlightRecorder::Default();
  rec.set_enabled(true);
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kOff);
  const int64_t before = rec.last_seq();
  Logger::Default().Log(LogLevel::kError, "test", "silent but recorded");
  EXPECT_TRUE(capture.lines().empty());
  EXPECT_GT(rec.last_seq(), before);
  EXPECT_EQ(rec.Snapshot().back().message, "silent but recorded");
}

TEST(LoggerCoalesceTest, IdenticalConsecutiveWarnLinesCollapse) {
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);
  for (int i = 0; i < 4; ++i) {
    Logger::Default().Log(LogLevel::kWarn, "retry", "transient failure",
                          {LogField::S("op", "sync"), LogField::N("try", i)});
  }
  // The first line of a run is emitted immediately; the repeats are held.
  ASSERT_EQ(capture.lines().size(), 1u);
  // A different line flushes the held summary before itself.
  Logger::Default().Log(LogLevel::kWarn, "retry", "gave up");
  ASSERT_EQ(capture.lines().size(), 3u);
  EXPECT_NE(capture.lines()[1].find("\"repeated\":3"), std::string::npos)
      << capture.lines()[1];
  EXPECT_NE(capture.lines()[1].find("transient failure"), std::string::npos);
  EXPECT_NE(capture.lines()[2].find("gave up"), std::string::npos);
}

TEST(LoggerCoalesceTest, FlushCoalescedDrainsTheHeldLine) {
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);
  Logger::Default().Log(LogLevel::kWarn, "retry", "transient failure");
  Logger::Default().Log(LogLevel::kWarn, "retry", "transient failure");
  ASSERT_EQ(capture.lines().size(), 1u);
  Logger::Default().FlushCoalesced();
  ASSERT_EQ(capture.lines().size(), 2u);
  EXPECT_NE(capture.lines()[1].find("\"repeated\":1"), std::string::npos)
      << capture.lines()[1];
  // Nothing further held; a new identical line starts a fresh run.
  Logger::Default().Log(LogLevel::kWarn, "retry", "transient failure");
  EXPECT_EQ(capture.lines().size(), 3u);
}

TEST(LoggerCoalesceTest, DistinctLinesPassThroughUncoalesced) {
  ScopedLogCapture capture;
  Logger::Default().set_level(LogLevel::kWarn);
  Logger::Default().Log(LogLevel::kWarn, "a", "one");
  Logger::Default().Log(LogLevel::kWarn, "b", "two");
  Logger::Default().Log(LogLevel::kError, "b", "two");  // level differs
  EXPECT_EQ(capture.lines().size(), 3u);
}

}  // namespace
}  // namespace obs
}  // namespace xnfdb
