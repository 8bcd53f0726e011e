#include "telemetry/csv.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>

namespace autosens::telemetry {
namespace {

Dataset sample_dataset() {
  Dataset d;
  d.add({.time_ms = 1000,
         .user_id = 42,
         .latency_ms = 123.45,
         .action = ActionType::kSelectMail,
         .user_class = UserClass::kBusiness,
         .status = ActionStatus::kSuccess});
  d.add({.time_ms = 2000,
         .user_id = 43,
         .latency_ms = 678.9,
         .action = ActionType::kSearch,
         .user_class = UserClass::kConsumer,
         .status = ActionStatus::kError});
  return d;
}

TEST(CsvTest, WriteProducesHeaderAndRows) {
  std::ostringstream out;
  write_csv(out, sample_dataset());
  const std::string text = out.str();
  EXPECT_NE(text.find(kCsvHeader), std::string::npos);
  EXPECT_NE(text.find("1000,42,SelectMail,123.45,Business,Success"), std::string::npos);
  EXPECT_NE(text.find("2000,43,Search,678.9,Consumer,Error"), std::string::npos);
}

TEST(CsvTest, Roundtrip) {
  const auto original = sample_dataset();
  std::stringstream stream;
  write_csv(stream, original);
  const auto result = read_csv(stream);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.dataset[i], original[i]);
  }
}

TEST(CsvTest, EmptyInputThrows) {
  std::istringstream in("");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(CsvTest, WrongHeaderThrows) {
  std::istringstream in("a,b,c\n1,2,3\n");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(CsvTest, HeaderOnlyGivesEmptyDataset) {
  std::istringstream in(std::string(kCsvHeader) + "\n");
  const auto result = read_csv(in);
  EXPECT_TRUE(result.dataset.empty());
  EXPECT_TRUE(result.errors.empty());
}

TEST(CsvTest, MalformedRowsAreReportedWithLineNumbers) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\n"
                        "1000,42,SelectMail,123.45,Business,Success\n"
                        "not_a_number,42,SelectMail,1,Business,Success\n"
                        "1000,42,UnknownAction,1,Business,Success\n"
                        "1000,42,SelectMail,xyz,Business,Success\n"
                        "1000,42,SelectMail,1,Alien,Success\n"
                        "1000,42,SelectMail,1,Business,Maybe\n"
                        "1000,42,SelectMail,1,Business\n"
                        "2000,43,Search,5,Consumer,Success\n");
  const auto result = read_csv(in);
  EXPECT_EQ(result.dataset.size(), 2u);
  ASSERT_EQ(result.errors.size(), 6u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_EQ(result.errors[0].message, "bad time_ms");
  EXPECT_EQ(result.errors[1].message, "unknown action type");
  EXPECT_EQ(result.errors[2].message, "bad latency_ms");
  EXPECT_EQ(result.errors[3].message, "unknown user class");
  EXPECT_EQ(result.errors[4].message, "unknown status");
  EXPECT_NE(result.errors[5].message.find("expected 6 fields"), std::string::npos);
}

TEST(CsvTest, BlankLinesAreSkipped) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\n\n1000,42,SelectMail,1,Business,Success\n\n");
  const auto result = read_csv(in);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_TRUE(result.errors.empty());
}

TEST(CsvTest, WhitespaceAndCrlfTolerated) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\r\n 1000 , 42 , SelectMail , 1.5 , Business , Success \r\n");
  const auto result = read_csv(in);
  ASSERT_EQ(result.dataset.size(), 1u);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_DOUBLE_EQ(result.dataset[0].latency_ms, 1.5);
}

TEST(CsvTest, ResultIsSortedByTime) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\n"
                        "2000,1,SelectMail,1,Business,Success\n"
                        "1000,2,SelectMail,1,Business,Success\n");
  const auto result = read_csv(in);
  ASSERT_EQ(result.dataset.size(), 2u);
  EXPECT_EQ(result.dataset[0].time_ms, 1000);
  EXPECT_TRUE(result.dataset.is_sorted());
}

TEST(CsvTest, FileRoundtrip) {
  const auto original = sample_dataset();
  const std::string path = ::testing::TempDir() + "/autosens_csv_test.csv";
  write_csv_file(path, original);
  const auto result = read_csv_file(path);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), original.size());
  EXPECT_EQ(result.dataset[0], original[0]);
}

/// Rows whose latencies probe every branch of "%g" formatting: zero, tiny,
/// fractional, rounding at six digits, the switch to exponent form, huge,
/// negative, the smallest denormal, infinities and NaN — and the extreme
/// integers. Enough of them to flush the writer's buffer several times.
Dataset edge_dataset() {
  const double latencies[] = {0.0,
                              1e-7,
                              0.1,
                              123456.5,
                              1234567.0,
                              1e21,
                              -42.125,
                              -0.0,
                              std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::max(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::quiet_NaN(),
                              999999.5,
                              0.000123456789};
  Dataset d;
  d.add({.time_ms = std::numeric_limits<std::int64_t>::min(),
         .user_id = std::numeric_limits<std::uint64_t>::max(),
         .latency_ms = 1.0});
  d.add({.time_ms = std::numeric_limits<std::int64_t>::max(), .user_id = 0, .latency_ms = 2.0});
  for (std::int64_t i = 0; i < 40'000; ++i) {
    d.add({.time_ms = i * 7919 - 1'000'000,
           .user_id = static_cast<std::uint64_t>(i) * 104729,
           .latency_ms = latencies[i % std::size(latencies)] * (i < 16 ? 1.0 : 1.0 + i * 1e-5),
           .action = static_cast<ActionType>(i % kActionTypeCount),
           .user_class = static_cast<UserClass>(i % kUserClassCount),
           .status = i % 3 == 0 ? ActionStatus::kError : ActionStatus::kSuccess});
  }
  return d;
}

TEST(CsvTest, WriterMatchesStreamFormattingByteForByte) {
  const Dataset dataset = edge_dataset();
  std::ostringstream expected;
  expected << kCsvHeader << '\n';
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const ActionRecord r = dataset[i];
    expected << r.time_ms << ',' << r.user_id << ',' << to_string(r.action) << ','
             << r.latency_ms << ',' << to_string(r.user_class) << ',' << to_string(r.status)
             << '\n';
  }
  std::ostringstream written;
  write_csv(written, dataset);
  ASSERT_EQ(written.str().size(), expected.str().size());
  EXPECT_TRUE(written.str() == expected.str());
  EXPECT_NE(written.str().find(",1e-07,"), std::string::npos);
  EXPECT_NE(written.str().find(",4.94066e-324,"), std::string::npos);
  EXPECT_NE(written.str().find(",-inf,"), std::string::npos);
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace autosens::telemetry
