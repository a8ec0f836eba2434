// QuarantineReport mechanics plus the lenient ingest path: dirty CSV rows
// must land in the quarantine with the right typed reason while every
// clean row survives.
#include "core/quarantine.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/error.h"
#include "dataset/csv.h"
#include "dataset/user_record.h"

namespace bblab {
namespace {

using core::QuarantineReport;

TEST(QuarantineReport, CountsAndRates) {
  QuarantineReport report;
  EXPECT_TRUE(report.empty());
  EXPECT_DOUBLE_EQ(report.failure_rate(), 0.0);

  report.note_admitted(8);
  report.add(3, QuarantineReason::kMalformedRow, "raw-a", "broken quote");
  report.add(7, QuarantineReason::kBadValue, "raw-b", "not a number");
  report.add(9, QuarantineReason::kBadValue, "raw-c", "not a number");

  EXPECT_FALSE(report.empty());
  EXPECT_EQ(report.quarantined(), 3u);
  EXPECT_EQ(report.admitted, 8u);
  EXPECT_EQ(report.total(), 11u);
  EXPECT_EQ(report.count(QuarantineReason::kBadValue), 2u);
  EXPECT_EQ(report.count(QuarantineReason::kDuplicateKey), 0u);
  EXPECT_DOUBLE_EQ(report.failure_rate(), 3.0 / 11.0);
}

TEST(QuarantineReport, TruncatesOversizedRaw) {
  QuarantineReport report;
  const std::string huge(10 * QuarantineReport::kMaxRawBytes, 'x');
  report.add(0, QuarantineReason::kMalformedRow, huge, "");
  EXPECT_LE(report.rows[0].raw.size(), QuarantineReport::kMaxRawBytes + 3);
  EXPECT_LT(report.rows[0].raw.size(), huge.size());
}

TEST(QuarantineReport, MergeAccumulates) {
  QuarantineReport a;
  a.note_admitted(5);
  a.add(1, QuarantineReason::kHouseholdFailure, "stream 1", "boom");
  QuarantineReport b;
  b.note_admitted(2);
  b.add(4, QuarantineReason::kInjectedFault, "stream 4", "planted");
  a.merge(b);
  EXPECT_EQ(a.admitted, 7u);
  EXPECT_EQ(a.quarantined(), 2u);
  EXPECT_EQ(a.rows[1].index, 4u);
  EXPECT_EQ(a.rows[1].reason, QuarantineReason::kInjectedFault);
}

TEST(QuarantineReport, SummaryNamesReasons) {
  QuarantineReport report;
  report.note_admitted(10);
  report.add(0, QuarantineReason::kMalformedRow, "", "");
  report.add(1, QuarantineReason::kMalformedRow, "", "");
  report.add(2, QuarantineReason::kBadValue, "", "");
  const auto s = report.summary();
  EXPECT_NE(s.find("3/13 quarantined"), std::string::npos) << s;
  EXPECT_NE(s.find("malformed-row: 2"), std::string::npos) << s;
  EXPECT_NE(s.find("bad-value: 1"), std::string::npos) << s;
  // Reasons with zero hits stay out of the summary.
  EXPECT_EQ(s.find("duplicate-key"), std::string::npos) << s;
}

TEST(ParseCsvLenient, QuarantinesMalformedRecords) {
  // The bad record closes its stray quote so it cannot swallow row 3.
  const std::string text = "h1,h2\n1,2\nab\"cd\",x\n3,4\n";
  const auto result = dataset::parse_csv_lenient(text);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[1], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(result.rows[2], (std::vector<std::string>{"3", "4"}));
  // Original record indices survive so diagnostics point at the file.
  EXPECT_EQ(result.row_indices, (std::vector<std::size_t>{0, 1, 3}));
  ASSERT_EQ(result.quarantine.quarantined(), 1u);
  EXPECT_EQ(result.quarantine.rows[0].index, 2u);
  EXPECT_EQ(result.quarantine.rows[0].reason, QuarantineReason::kMalformedRow);
  EXPECT_EQ(result.quarantine.rows[0].raw, "ab\"cd\",x");
}

TEST(ParseCsvLenient, CleanInputHasEmptyQuarantine) {
  const auto result = dataset::parse_csv_lenient("a,b\n1,2\n");
  EXPECT_EQ(result.rows.size(), 2u);
  EXPECT_TRUE(result.quarantine.empty());
  EXPECT_EQ(result.quarantine.admitted, 2u);
}

/// Two valid serialized user records to mangle.
std::string valid_user_csv() {
  std::vector<dataset::UserRecord> records(2);
  records[0].user_id = 100;
  records[0].country_code = "us";
  records[0].year = 2011;
  records[0].capacity = Rate::from_mbps(10.0);
  records[0].usage.samples = 50;
  records[1] = records[0];
  records[1].user_id = 101;
  std::ostringstream os;
  dataset::write_user_records(os, records);
  return os.str();
}

/// The i-th data line (0-based) of the serialized records, sans newline.
std::string data_line(const std::string& csv, std::size_t i) {
  std::size_t begin = csv.find('\n') + 1;
  for (; i > 0; --i) begin = csv.find('\n', begin) + 1;
  return csv.substr(begin, csv.find('\n', begin) - begin);
}

TEST(ReadUserRecordsLenient, TypedReasonsPerFailureMode) {
  std::string csv = valid_user_csv();
  const std::string good = data_line(csv, 0);
  csv += good + ",extra\n";          // row 3: wrong field count
  std::string bad_value = good;
  bad_value.replace(0, 3, "xx");     // row 4: user_id not an integer
  csv += bad_value + "\n";
  csv += data_line(csv, 1) + "\n";   // row 5: duplicate of user 101
  csv += "ab\"cd\n";                 // row 6: malformed record

  const auto result = dataset::read_user_records_lenient(csv);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].user_id, 100u);
  EXPECT_EQ(result.records[1].user_id, 101u);
  EXPECT_EQ(result.quarantine.admitted, 2u);
  ASSERT_EQ(result.quarantine.quarantined(), 4u);
  EXPECT_EQ(result.quarantine.count(QuarantineReason::kWrongFieldCount), 1u);
  EXPECT_EQ(result.quarantine.count(QuarantineReason::kBadValue), 1u);
  EXPECT_EQ(result.quarantine.count(QuarantineReason::kDuplicateKey), 1u);
  EXPECT_EQ(result.quarantine.count(QuarantineReason::kMalformedRow), 1u);
}

TEST(ReadUserRecordsLenient, HeaderMismatchStillThrows) {
  EXPECT_THROW(dataset::read_user_records_lenient("not,the,header\n1,2,3\n"),
               InvalidArgument);
  EXPECT_THROW(dataset::read_user_records_lenient(""), InvalidArgument);
}

}  // namespace
}  // namespace bblab
