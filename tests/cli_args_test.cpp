#include "tools/cli_args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace autosens::cli {
namespace {

Args parse(std::vector<const char*> argv, const std::set<std::string>& flags = {}) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data(), 1, flags);
}

TEST(CliArgsTest, ParsesValues) {
  const auto args = parse({"--in", "file.csv", "--ref", "300"});
  EXPECT_EQ(args.require("in"), "file.csv");
  EXPECT_EQ(args.get_or("ref", "0"), "300");
  EXPECT_FALSE(args.has("out"));
  EXPECT_EQ(args.get("out"), std::nullopt);
}

TEST(CliArgsTest, BooleanFlagsTakeNoValue) {
  const auto args = parse({"--mc", "--in", "x"}, {"mc"});
  EXPECT_TRUE(args.has("mc"));
  EXPECT_EQ(args.require("in"), "x");
}

TEST(CliArgsTest, MissingValueThrows) {
  EXPECT_THROW(parse({"--in"}), std::invalid_argument);
}

TEST(CliArgsTest, NonFlagTokenThrows) {
  EXPECT_THROW(parse({"positional"}), std::invalid_argument);
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
}

TEST(CliArgsTest, RequireThrowsWhenAbsent) {
  const auto args = parse({});
  EXPECT_THROW(args.require("in"), std::invalid_argument);
}

TEST(CliArgsTest, NumericParsing) {
  const auto args = parse({"--n", "42", "--x", "2.5"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(CliArgsTest, BadNumbersThrow) {
  const auto args = parse({"--n", "abc", "--x", "1.2.3"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("x", 0.0), std::invalid_argument);
}

/// The what() of the std::invalid_argument thrown by `fn` ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(CliArgsTest, RangeCheckedIntsConvertInRangeValues) {
  const auto args = parse({"--port", "65535", "--deadline", "-1", "--count", "0"});
  EXPECT_EQ(args.get_int<std::uint16_t>("port", 0), 65535);
  EXPECT_EQ(args.get_int<int>("deadline", 5, -1), -1);
  EXPECT_EQ(args.get_int<std::size_t>("count", 7), 0u);
  EXPECT_EQ(args.get_int<std::size_t>("missing", 7), 7u);
  EXPECT_EQ(args.get_int<std::uint64_t>("missing", 42), 42u);
}

TEST(CliArgsTest, RangeCheckedIntsRejectValuesThatWouldWrap) {
  // Cast unchecked, port 70000 would wrap to 4464 and a count of -1 to
  // 2^64 - 1; both must fail with the flag named.
  const auto args = parse({"--port", "70000", "--low-port", "-1", "--shards", "-1",
                           "--expect", "-1", "--deadline", "-2", "--batch", "4294967296"});
  EXPECT_EQ(invalid_argument_message([&] { args.get_int<std::uint16_t>("port", 0); }),
            "flag --port must be in [0, 65535], got: 70000");
  EXPECT_NE(invalid_argument_message([&] { args.get_int<std::uint16_t>("low-port", 0); })
                .find("flag --low-port"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&] { args.get_int<std::size_t>("shards", 1); })
                .find("flag --shards must be in [0, "),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&] { args.get_int<std::size_t>("expect", 1); })
                .find("flag --expect"),
            std::string::npos);
  EXPECT_EQ(invalid_argument_message([&] { args.get_int<int>("deadline", -1, -1); }),
            "flag --deadline must be in [-1, 2147483647], got: -2");
  EXPECT_NE(invalid_argument_message([&] { args.get_int<std::uint32_t>("batch", 1); })
                .find("flag --batch"),
            std::string::npos);
  // Non-integers still fail as before, through the same flag name.
  const auto bad = parse({"--port", "80x"});
  EXPECT_THROW(bad.get_int<std::uint16_t>("port", 0), std::invalid_argument);
}

TEST(CliArgsTest, AllowOnlyRejectsUnknown) {
  const auto args = parse({"--in", "x", "--typo", "y"});
  EXPECT_THROW(args.allow_only({"in"}), std::invalid_argument);
  EXPECT_NO_THROW(args.allow_only({"in", "typo"}));
}

TEST(CliArgsTest, AllowOnlyChecksBooleanFlagsToo) {
  const auto args = parse({"--verbose"}, {"verbose"});
  EXPECT_THROW(args.allow_only({"in"}), std::invalid_argument);
  EXPECT_NO_THROW(args.allow_only({"verbose"}));
}

}  // namespace
}  // namespace autosens::cli
