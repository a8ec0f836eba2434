// The artifact registry: every figure and table of the paper's
// evaluation, addressable by the short names the CLI has always used
// ("fig1", "tab5", ...), in one table of {name, kind, render}.
//
// The CLI, the serve daemon's query executor and perfbench all look
// names up here, which is what makes "a served response is
// byte-identical to the CLI" a structural guarantee instead of a
// test-enforced coincidence: both run literally the same rendering code
// on the same dataset.
//
// Render functions write only the analysis text (what the CLI prints to
// stdout) — no progress chatter, no dataset-generation notes. They take
// a fully-loaded dataset; how it was obtained (fresh simulation, cache
// hit, mmapped snapshot view) is the caller's business.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "dataset/generator.h"

namespace bblab::analysis {

enum class ArtifactKind { kFigure, kTable };

struct Artifact {
  const char* name;
  ArtifactKind kind;
  /// Listed by figure_names()/experiment_names(). perfbench's `study`
  /// workload renders exactly that list and CI pins the md5 of its
  /// output, so flipping this flag changes the benchmark's workload.
  bool benchmarked;
  void (*render)(std::ostream& out, const dataset::StudyDataset& ds);
};

/// All 20 paper artifacts: the 12 figures, then the 8 tables.
[[nodiscard]] std::span<const Artifact> artifacts();

/// The artifact `name` of `kind`, or nullptr when there is none (unknown
/// name, or a name of the other kind).
[[nodiscard]] const Artifact* find_artifact(const std::string& name,
                                            ArtifactKind kind);

/// The benchmarked figure names, in presentation order.
[[nodiscard]] const std::vector<std::string>& figure_names();

/// The benchmarked table names, in presentation order.
[[nodiscard]] const std::vector<std::string>& experiment_names();

/// Print figure `name` for `ds`. Returns false (writing nothing) when
/// no figure has that name.
bool render_figure(std::ostream& out, const std::string& name,
                   const dataset::StudyDataset& ds);

/// Print table `name` for `ds`. Returns false (writing nothing) when no
/// table has that name.
bool render_experiment(std::ostream& out, const std::string& name,
                       const dataset::StudyDataset& ds);

/// Run every scorecard check and print the card (markdown or plain).
/// Returns the pass rate in [0, 1] so callers can apply their own gate.
double render_scorecard(std::ostream& out, const dataset::StudyDataset& ds,
                        bool markdown);

}  // namespace bblab::analysis
