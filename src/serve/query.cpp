#include "serve/query.h"

#include <filesystem>
#include <sstream>

#include "analysis/render.h"
#include "core/error.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "store/bbs.h"

namespace bblab::serve {

namespace {

void check_deadline(const core::Deadline& deadline, const char* stage) {
  if (deadline.expired()) {
    throw DeadlineExceeded{std::string{"query deadline exceeded ("} + stage +
                           ")"};
  }
}

Response run(const Request& request, DatasetLru& lru,
             const core::Deadline& deadline) {
  switch (request.kind) {
    case RequestKind::kPing:
      return Response{Status::kOk, "pong"};
    case RequestKind::kInfo: {
      const auto stats = lru.stats();
      std::ostringstream out;
      const auto list = [&](const char* label, analysis::ArtifactKind kind) {
        out << label;
        for (const auto& a : analysis::artifacts()) {
          if (a.kind == kind) out << " " << a.name;
        }
        out << "\n";
      };
      list("figures:", analysis::ArtifactKind::kFigure);
      list("experiments:", analysis::ArtifactKind::kTable);
      out << "lru: entries=" << stats.entries
          << " open_bytes=" << stats.open_bytes << " max_bytes="
          << lru.max_bytes() << " hits=" << stats.hits
          << " misses=" << stats.misses << " evictions=" << stats.evictions
          << "\n";
      return Response{Status::kOk, out.str()};
    }
    case RequestKind::kFigure:
    case RequestKind::kExperiment:
    case RequestKind::kScorecard:
      break;
  }

  // Name validation is free — do it before paying for a snapshot load.
  const analysis::Artifact* artifact = nullptr;
  if (request.kind != RequestKind::kScorecard) {
    const bool figure = request.kind == RequestKind::kFigure;
    artifact = analysis::find_artifact(
        request.name,
        figure ? analysis::ArtifactKind::kFigure : analysis::ArtifactKind::kTable);
    if (artifact == nullptr) {
      return Response{Status::kNotFound,
                      (figure ? "unknown figure: " : "unknown experiment: ") +
                          request.name};
    }
  }
  if (request.snapshot.empty()) {
    return Response{Status::kBadRequest, "request names no snapshot"};
  }
  if (!std::filesystem::exists(request.snapshot)) {
    return Response{Status::kNotFound, "no such snapshot: " + request.snapshot};
  }

  check_deadline(deadline, "before load");
  std::shared_ptr<const dataset::StudyDataset> ds;
  {
    OBS_SPAN("serve.load");
    ds = lru.get(request.snapshot);
  }
  check_deadline(deadline, "after load");

  std::ostringstream out;
  {
    OBS_SPAN("serve.render");
    if (artifact != nullptr) {
      artifact->render(out, *ds);
    } else {
      analysis::render_scorecard(out, *ds, request.name == "markdown");
    }
  }
  check_deadline(deadline, "after render");
  return Response{Status::kOk, out.str()};
}

}  // namespace

Response execute(const Request& request, DatasetLru& lru,
                 const core::Deadline& deadline) {
  static obs::Counter& errors =
      obs::Registry::instance().counter("serve.errors");
  static obs::Counter& deadline_exceeded =
      obs::Registry::instance().counter("serve.deadline_exceeded");
  try {
    return run(request, lru, deadline);
  } catch (const DeadlineExceeded& e) {
    deadline_exceeded.add();
    return Response{Status::kDeadlineExceeded, e.what()};
  } catch (const store::SnapshotError& e) {
    errors.add();
    return Response{Status::kCorruptSnapshot, e.what()};
  } catch (const std::exception& e) {
    errors.add();
    return Response{Status::kError, e.what()};
  }
}

}  // namespace bblab::serve
