#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "util/string_utils.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sfl::util {
namespace {

TEST(StringUtilsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("xy", ','), (std::vector<std::string>{"xy"}));
}

TEST(StringUtilsTest, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nhi"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtilsTest, StartsWith) {
  EXPECT_TRUE(starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(starts_with("pre", "prefix"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringUtilsTest, JoinAndPad) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(pad_left("long", 2), "long");
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(2.0, 4), "2.0000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.row("short", 1.0);
  table.row("a-much-longer-name", 23.5);
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(text.find("23.5000"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(TablePrinterTest, RejectsWidthMismatch) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  // Busy-wait a tiny amount; elapsed must be non-negative and monotone.
  const double t1 = timer.elapsed_seconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
  const double t2 = timer.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.restart();
  EXPECT_LT(timer.elapsed_seconds(), t2 + 1.0);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, RejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit({}), std::invalid_argument);
}

}  // namespace
}  // namespace sfl::util
