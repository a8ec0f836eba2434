// CSV export of the generated datasets, and the one reader for what comes
// back in.
//
// `bblab generate` and the examples persist datasets so downstream tooling
// (plotting scripts, spreadsheets) can consume them; `bblab ingest` reads a
// user-records file back through read_user_records_lenient, the only CSV
// decoder. RFC-4180-style quoting.
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

/// Result of tokenizing CSV text: every record that tokenizes cleanly is
/// in `rows` (with its original record index in `row_indices`, 0-based,
/// header included); malformed records land in `quarantine` instead.
struct CsvParseResult {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::size_t> row_indices;
  core::QuarantineReport quarantine;
};

/// Split CSV text into records and tokenize each one. Handles quoted
/// fields with embedded commas/newlines; accepts a UTF-8 BOM, CRLF or
/// bare-CR line endings, and a missing trailing newline. Never throws on
/// a malformed record (a quote opening mid-field, an unterminated quoted
/// field): it is quarantined (QuarantineReason::kMalformedRow) and parsing
/// continues.
[[nodiscard]] CsvParseResult parse_csv_lenient(const std::string& text);

/// Writers. A double is written as the shortest decimal that reads back
/// to the same bits.
void write_user_records(std::ostream& out, const std::vector<UserRecord>& records);
void write_plans(std::ostream& out, const std::vector<market::ServicePlan>& plans);
void write_upgrades(std::ostream& out, const std::vector<UpgradeObservation>& upgrades);

/// The user-records reader. A missing or mismatched header throws
/// InvalidArgument: nothing can be recovered from the wrong file. Each bad
/// data row is quarantined with a typed reason and reading continues:
/// malformed-row, wrong-field-count, duplicate-key on (user_id, year), or
/// bad-value for any field write_user_records cannot have written — a
/// number that is not one whole decimal token, a label outside the
/// writer's set, a year outside `int`, a cap that is not a non-negative
/// byte count, or a non-finite value anywhere but `upgrade_cost` (NaN when
/// a market's price-capacity fit is too weak). `quarantine.admitted`
/// counts the rows that survived.
struct UserReadResult {
  std::vector<UserRecord> records;
  core::QuarantineReport quarantine;
};
[[nodiscard]] UserReadResult read_user_records_lenient(const std::string& csv_text);

}  // namespace bblab::dataset
