// Structure-of-arrays column kernels.
//
// The paper's headline results are distributional — usage ECDFs,
// prime-time percentiles, capacity/demand quantile contrasts — and at
// M-Lab scale they are computed over millions of values, not thousands.
// This header is the batched core those analyses share: a NaN-filtered
// sorted column type, branchless merge kernels over sorted data, and an
// LSD radix sort for doubles and u64 keys (user ids, group keys). The
// in-memory layout deliberately mirrors the column-major `.bbs` snapshot
// sections, so a loaded snapshot column can be adopted without a copy
// (SortedColumn::adopt_sorted) and fed straight into the kernels.
//
// Policy (from PR 1): NaN means "missing" and is dropped before any
// order statistic; kernels that must read at least one value throw the
// typed EmptyColumn error on an empty (or all-NaN) column instead of
// reading element 0 of nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace bblab::stats {

/// Move the non-NaN elements of `xs` to its front, keeping their order,
/// and return how many there are (std::remove for NaN, branchless).
[[nodiscard]] std::size_t remove_nan(std::span<double> xs);

/// Copy `xs` dropping NaNs, sorted ascending. Branchless compaction +
/// radix sort for large columns. `dropped`, when given, receives the
/// number of NaN elements removed.
[[nodiscard]] std::vector<double> sorted_finite(std::span<const double> xs,
                                                std::size_t* dropped = nullptr);

/// In-place LSD radix sort of finite doubles via the order-preserving
/// bit mapping (sign-flipped IEEE-754). Total order places -0.0 before
/// +0.0; NaNs are a precondition violation (filter them first). Used by
/// sorted_finite above a size threshold; exposed for direct use on
/// already-filtered columns.
void radix_sort(std::vector<double>& xs);
void radix_sort(std::vector<std::uint64_t>& xs);

/// Stable sort permutation of u64 keys (LSD radix over the bytes that
/// actually vary): `keys[perm[0]] <= keys[perm[1]] <= ...`. The batched
/// path for user-id merges and group-bys — O(n) versus comparison
/// sorting, and stability keeps record order deterministic within ties.
[[nodiscard]] std::vector<std::uint32_t> sort_permutation(
    std::span<const std::uint64_t> keys);

/// Rows grouped by key: rows carrying `keys[k]` are
/// `order[offsets[k] .. offsets[k+1])`, groups ascending by key, row
/// order within a group preserved (stable).
struct GroupBy {
  std::vector<std::uint64_t> keys;       ///< distinct keys, ascending
  std::vector<std::uint32_t> offsets;    ///< keys.size() + 1 fence posts
  std::vector<std::uint32_t> order;      ///< permutation of [0, n)
};
[[nodiscard]] GroupBy group_by_key(std::span<const std::uint64_t> keys);

/// Batched ECDF evaluation: out[i] = |{x in sample : x <= queries[i]}| /
/// |sample| for ASCENDING queries over an ASCENDING sample. One linear
/// merge instead of a binary search per query — O(n + m), branch-
/// predictable. Throws EmptyColumn when the sample is empty and
/// InvalidArgument when out.size() != queries.size().
void ecdf_eval_sorted(std::span<const double> sorted_sample,
                      std::span<const double> sorted_queries,
                      std::span<double> out);

/// A NaN-filtered, sorted, contiguous numeric column: the unit of
/// batched analysis. Construction is the only pass over the raw data;
/// every order statistic afterwards is O(1) or a merge.
class SortedColumn {
 public:
  SortedColumn() = default;
  /// Filter + sort. One allocation, NaNs counted into dropped().
  explicit SortedColumn(std::span<const double> xs);
  /// Adopt an already-sorted column without copying — the copy-free path
  /// from a `.bbs` section or any presorted buffer. Sortedness is the
  /// caller's contract (checked in debug builds only).
  [[nodiscard]] static SortedColumn adopt_sorted(std::vector<double> sorted);

  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  /// NaN elements removed at construction (0 for adopt_sorted).
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// R type 7 quantile; throws EmptyColumn on an empty column.
  [[nodiscard]] double quantile(double q) const;
  /// Several quantiles without re-sorting; throws EmptyColumn on empty.
  [[nodiscard]] std::vector<double> quantiles(std::span<const double> qs) const;

  [[nodiscard]] double min() const;  ///< throws EmptyColumn on empty
  [[nodiscard]] double max() const;  ///< throws EmptyColumn on empty

  /// Move the storage out (e.g. into an Ecdf) — the column is empty after.
  [[nodiscard]] std::vector<double> take() && { return std::move(values_); }

 private:
  std::vector<double> values_;
  std::size_t dropped_{0};
};

}  // namespace bblab::stats
