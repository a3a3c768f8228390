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
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double t2 = timer.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.restart();
  EXPECT_LT(timer.elapsed_seconds(), t2 + 1.0);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  // parallel_for_chunks runs every chunk exactly once over its stable
  // chunk_range, so every index is visited exactly once — with uneven
  // chunks, and with one chunk per index (the local-training layout).
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  for (const std::size_t chunks : {std::size_t{7}, std::size_t{64}}) {
    std::vector<std::atomic<int>> chunk_hits(chunks);
    std::vector<std::atomic<int>> index_hits(64);
    pool.parallel_for_chunks(
        64, chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          const auto expected = ThreadPool::chunk_range(64, chunks, chunk);
          EXPECT_EQ(begin, expected.first);
          EXPECT_EQ(end, expected.second);
          chunk_hits[chunk].fetch_add(1);
          for (std::size_t i = begin; i < end; ++i) index_hits[i].fetch_add(1);
        });
    for (const auto& h : chunk_hits) EXPECT_EQ(h.load(), 1) << chunks;
    for (const auto& h : index_hits) EXPECT_EQ(h.load(), 1) << chunks;
  }
}

}  // namespace
}  // namespace sfl::util
