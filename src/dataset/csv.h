// CSV import/export for the generated datasets.
//
// `bblab generate` and the examples can persist datasets so downstream tooling
// (plotting scripts, spreadsheets) can consume them, and regression tests
// round-trip records through the format. RFC-4180-style quoting.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/quarantine.h"
#include "dataset/user_record.h"
#include "market/plan.h"

namespace bblab::dataset {

/// Minimal CSV encoder: quotes fields containing separators/quotes.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_{out} {}

  void row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
};

/// Parse CSV content into rows of fields (handles quoted fields with
/// embedded commas/newlines; accepts a UTF-8 BOM, CRLF or bare-CR line
/// endings, and a missing trailing newline). Throws IoError/
/// InvalidArgument on the first malformed record — strict mode, the
/// default everywhere.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(const std::string& text);

/// Result of a lenient parse: every record that tokenizes cleanly is in
/// `rows` (with its original record index in `row_indices`, 0-based,
/// header included); malformed records land in `quarantine` instead of
/// aborting the parse.
struct CsvParseResult {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::size_t> row_indices;
  core::QuarantineReport quarantine;
};

/// Like parse_csv, but never throws on malformed records: they are
/// quarantined (QuarantineReason::kMalformedRow) and parsing continues.
[[nodiscard]] CsvParseResult parse_csv_lenient(const std::string& text);

/// User records <-> CSV.
void write_user_records(std::ostream& out, const std::vector<UserRecord>& records);
[[nodiscard]] std::vector<UserRecord> read_user_records(const std::string& csv_text);

/// Lenient typed readers: a header mismatch still throws (nothing can be
/// recovered from a wrong file), but each bad data row is quarantined
/// with a typed reason — malformed-row, wrong-field-count, bad-value,
/// duplicate-key — and reading continues. `quarantine.admitted` counts
/// the rows that survived.
struct UserReadResult {
  std::vector<UserRecord> records;
  core::QuarantineReport quarantine;
};
[[nodiscard]] UserReadResult read_user_records_lenient(const std::string& csv_text);

/// Plan catalogs <-> CSV.
void write_plans(std::ostream& out, const std::vector<market::ServicePlan>& plans);
[[nodiscard]] std::vector<market::ServicePlan> read_plans(const std::string& csv_text);

/// Upgrade observations <-> CSV.
void write_upgrades(std::ostream& out, const std::vector<UpgradeObservation>& upgrades);
[[nodiscard]] std::vector<UpgradeObservation> read_upgrades(const std::string& csv_text);

struct UpgradeReadResult {
  std::vector<UpgradeObservation> records;
  core::QuarantineReport quarantine;
};
[[nodiscard]] UpgradeReadResult read_upgrades_lenient(const std::string& csv_text);

}  // namespace bblab::dataset
