#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/config.h"

namespace sfl::util {
namespace {

TEST(CsvWriterTest, WritesHeaderImmediately) {
  std::ostringstream out;
  CsvWriter csv(out, {"a", "b"});
  EXPECT_EQ(out.str(), "a,b\n");
  EXPECT_EQ(csv.columns(), 2u);
  EXPECT_EQ(csv.rows_written(), 0u);
}

TEST(CsvWriterTest, WritesRowsWithMatchingWidth) {
  std::ostringstream out;
  CsvWriter csv(out, {"x", "y", "z"});
  csv.write_row({"1", "2", "3"});
  csv.row(4, 5.5, "six");
  EXPECT_EQ(csv.rows_written(), 2u);
  EXPECT_EQ(out.str(), "x,y,z\n1,2,3\n4,5.5,six\n");
}

TEST(CsvWriterTest, RejectsWrongWidth) {
  std::ostringstream out;
  CsvWriter csv(out, {"a", "b"});
  EXPECT_THROW(csv.write_row({"only-one"}), std::invalid_argument);
}

TEST(CsvWriterTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("has,comma"), "\"has,comma\"");
  EXPECT_EQ(CsvWriter::escape("has\"quote"), "\"has\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("has\nnewline"), "\"has\nnewline\"");
}

TEST(CsvWriterTest, RejectsEmptyHeader) {
  std::ostringstream out;
  EXPECT_THROW(CsvWriter(out, {}), std::invalid_argument);
}

TEST(ConfigTest, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "rounds=100", "budget=2.5", "name=test"};
  const Config config = Config::from_args(4, argv);
  EXPECT_EQ(config.get_int("rounds", 0), 100);
  EXPECT_DOUBLE_EQ(config.get_double("budget", 0.0), 2.5);
  EXPECT_EQ(config.get_string("name", ""), "test");
}

TEST(ConfigTest, FallbacksApplyWhenKeyMissing) {
  const Config config;
  EXPECT_EQ(config.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(config.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(config.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(config.get_bool("missing", true));
  EXPECT_EQ(config.get_size("missing", 3u), 3u);
}

TEST(ConfigTest, RejectsMalformedTokens) {
  const char* argv[] = {"prog", "no-equals"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
  const char* argv2[] = {"prog", "=value"};
  EXPECT_THROW(Config::from_args(2, argv2), std::invalid_argument);
}

TEST(ConfigTest, TypedGettersValidate) {
  Config config;
  config.set("num", "12x");
  EXPECT_THROW((void)config.get_int("num", 0), std::invalid_argument);
  EXPECT_THROW((void)config.get_double("num", 0.0), std::invalid_argument);
  config.set("flag", "maybe");
  EXPECT_THROW((void)config.get_bool("flag", false), std::invalid_argument);
  config.set("neg", "-5");
  EXPECT_THROW((void)config.get_size("neg", 0), std::invalid_argument);
}

TEST(ConfigTest, BooleanSpellings) {
  Config config;
  for (const char* truthy : {"1", "true", "yes", "on"}) {
    config.set("b", truthy);
    EXPECT_TRUE(config.get_bool("b", false)) << truthy;
  }
  for (const char* falsy : {"0", "false", "no", "off"}) {
    config.set("b", falsy);
    EXPECT_FALSE(config.get_bool("b", true)) << falsy;
  }
}

TEST(ConfigTest, FromTextParsesLinesAndComments) {
  const Config config = Config::from_text(
      "rounds = 50\n"
      "# a comment line\n"
      "budget = 3.0   # trailing comment\n"
      "\n"
      "name = run-a\n");
  EXPECT_EQ(config.get_int("rounds", 0), 50);
  EXPECT_DOUBLE_EQ(config.get_double("budget", 0.0), 3.0);
  EXPECT_EQ(config.get_string("name", ""), "run-a");
  EXPECT_EQ(config.keys().size(), 3u);
}

TEST(ConfigTest, LaterDuplicatesOverride) {
  const char* argv[] = {"prog", "k=1", "k=2"};
  const Config config = Config::from_args(3, argv);
  EXPECT_EQ(config.get_int("k", 0), 2);
}

TEST(ConfigTest, UnreadKeysNameEverySetKeyNoLookupTouched) {
  const char* argv[] = {"prog", "rounds=5", "rouns=500", "seed=3", "csv="};
  const Config config = Config::from_args(5, argv);
  EXPECT_EQ(config.unread_keys(),
            (std::vector<std::string>{"csv", "rounds", "rouns", "seed"}));
  // Every lookup style marks its key read, whether or not it was set.
  EXPECT_EQ(config.get_size("rounds", 200), 5u);
  EXPECT_TRUE(config.contains("seed"));
  EXPECT_EQ(config.raw("csv"), std::optional<std::string>(""));
  EXPECT_EQ(config.get_double("budget", 6.0), 6.0);
  EXPECT_EQ(config.unread_keys(), (std::vector<std::string>{"rouns"}));
  // A lookup that throws on a bad value still counts as read.
  Config typed;
  typed.set("flag", "maybe");
  EXPECT_THROW((void)typed.get_bool("flag", false), std::invalid_argument);
  EXPECT_TRUE(typed.unread_keys().empty());
}

TEST(FastModeTest, FollowsEnvironmentVariable) {
  unsetenv("REPRO_FAST");
  EXPECT_FALSE(fast_mode_enabled());
  setenv("REPRO_FAST", "1", 1);
  EXPECT_TRUE(fast_mode_enabled());
  setenv("REPRO_FAST", "yes", 1);
  EXPECT_TRUE(fast_mode_enabled());
  setenv("REPRO_FAST", "0", 1);
  EXPECT_FALSE(fast_mode_enabled());
  setenv("REPRO_FAST", "garbage", 1);
  EXPECT_FALSE(fast_mode_enabled());
  unsetenv("REPRO_FAST");
}

}  // namespace
}  // namespace sfl::util
