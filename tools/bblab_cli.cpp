// bblab — command-line driver for the broadband-lab library.
//
//   bblab markets [CC...]             market summaries (plans, prices, slopes)
//   bblab generate [options]          synthesize a study dataset to CSV
//   bblab ingest <users.csv>          lenient CSV ingest with a QC report
//   bblab experiment <name> [options] run one of the paper's experiments
//   bblab figure <name> [options]     print one of the paper's figures
//   bblab pack <out.bbs> [options]    synthesize a dataset to a binary snapshot
//   bblab cat <file.bbs>              inspect and verify a binary snapshot
//   bblab cache <ls|rm KEY...|rm all> manage the simulation artifact cache
//
// Common options (numeric values must parse whole and be in range, or
// the command is a usage error before any work starts):
//   --seed N        generator seed            (default 2014)
//   --threads N     worker threads, 0 = all cores (default 0; at most
//                   core::kMaxThreads)
//   --scale X       population scale, > 0     (default 0.1)
//   --days X        observation window days, > 0 (default 1.0)
//   --out DIR       output directory for `generate` (default bblab_out)
//   --faults SPEC   fault-injection plan, e.g. "churn=0.2,corrupt=0.05"
//   --qc-report     print the quarantine/QC table after generation
//   --placebo       disable all planted causal effects
//   --cache         reuse/publish simulated shards in the content-addressed
//                   cache (a killed run resumes where it stopped)
//   --cache-dir DIR cache root, implies --cache (default $BBLAB_CACHE_DIR
//                   or ~/.cache/bblab)
//   --deadline X    per-shard watchdog deadline in seconds, >= 0 (0 = off)
//   --retries N     attempts per cache publish on transient I/O (default 4)
//   --fs-faults SPEC filesystem fault plan, e.g. "eio@3x2,crash@7"
//                   (also read from $BBLAB_FS_FAULTS)
//   --log-level L   debug|info|warn|error|off (default warn; also
//                   $BBLAB_LOG_LEVEL, flag wins)
//   --metrics-out F write a schema-versioned JSON run report to F
//   --trace-out F   record tracing spans, write Chrome trace JSON to F
//
// Exit codes: 0 success, 1 error, 2 usage, 4 completed degraded (one or
// more shards quarantined; dataset is partial), 64 injected crash.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/render.h"
#include "analysis/report.h"
#include "core/fs.h"
#include "core/logging.h"
#include "core/parse.h"
#include "core/signal.h"
#include "core/thread_pool.h"
#include "dataset/csv.h"
#include "dataset/generator.h"
#include "faults/fault_plan.h"
#include "faults/fs_faults.h"
#include "market/catalog.h"
#include "obs/report.h"
#include "obs/span.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/bbs.h"
#include "store/cache.h"
#include "store/fingerprint.h"

namespace {

using namespace bblab;

struct CliOptions {
  std::uint64_t seed{2014};
  std::size_t threads{0};
  double scale{0.1};
  double days{1.0};
  std::string out{"bblab_out"};
  std::string faults;  ///< FaultPlan::parse spec; empty = clean run
  bool qc_report{false};
  bool cache{false};
  std::string cache_dir;  ///< empty = ArtifactCache::default_root()
  bool placebo{false};
  bool markdown{false};
  double deadline_s{0.0};  ///< per-shard deadline; <= 0 disables
  int retries{0};          ///< 0 = RetryPolicy default
  std::string fs_faults;   ///< FsFaultPlan::parse spec; empty = clean
  std::string log_level;   ///< empty = $BBLAB_LOG_LEVEL or "warn"
  std::string metrics_out; ///< run-report JSON path; empty = off
  std::string trace_out;   ///< Chrome trace JSON path; empty = tracing off
  std::string socket;      ///< unix socket path for serve/query
  std::string snapshot;    ///< .bbs path a query runs against
  std::uint64_t max_open_bytes{2ull << 30};  ///< serve dataset LRU budget
  std::optional<std::uint64_t> max_cache_bytes;  ///< cache trim target
  bool by_age{false};      ///< cache ls: oldest-accessed first
  std::vector<std::string> positional;
};

/// Exit code for a run that completed but lost shards to quarantine:
/// the output exists and is honest about what is missing, and scripts
/// can tell "partial" from both success (0) and failure (1).
constexpr int kExitDegraded = 4;
/// Exit code for an injected crash (fault plan `crash@N`): distinct from
/// everything a real bblab failure produces, so crash/resume tests can
/// assert the crash actually fired.
constexpr int kExitInjectedCrash = 64;

/// "fig1|fig2|...": every registry name of `kind`.
std::string artifact_names(analysis::ArtifactKind kind) {
  std::string names;
  for (const auto& a : analysis::artifacts()) {
    if (a.kind != kind) continue;
    if (!names.empty()) names += '|';
    names += a.name;
  }
  return names;
}

int usage() {
  std::cerr
      << "usage: bblab <command> [args]\n"
         "  markets [CC...]              market summaries\n"
         "  generate [--out DIR]         synthesize a dataset to CSV\n"
         "  ingest <users.csv>           lenient CSV ingest with a QC report\n"
         "  experiment <"
      << artifact_names(analysis::ArtifactKind::kTable)
      << ">\n"
         "  figure <"
      << artifact_names(analysis::ArtifactKind::kFigure)
      << ">\n"
         "  scorecard [--markdown]       run every paper-claim check\n"
         "  pack <out.bbs>               synthesize a dataset to a binary snapshot\n"
         "  cat <file.bbs>               inspect and verify a binary snapshot\n"
         "  cache <ls [--by-age]|rm KEY...|rm all|trim --max-cache-bytes N>\n"
         "  serve --socket PATH [--threads N] [--max-open-bytes N] [--deadline X]\n"
         "  query <ping|info|figure F|experiment T|scorecard> --socket PATH\n"
         "        [--snapshot FILE.bbs] [--markdown]\n"
         "common: --seed N --scale X --days X --threads N --placebo\n"
         "        --faults SPEC (e.g. \"churn=0.2,corrupt=0.05\") --qc-report\n"
         "        --cache --cache-dir DIR --deadline SECONDS --retries N\n"
         "        --fs-faults SPEC (e.g. \"eio@3x2,crash@7\"; also "
         "$BBLAB_FS_FAULTS)\n"
         "        --log-level debug|info|warn|error|off (also $BBLAB_LOG_LEVEL)\n"
         "        --metrics-out FILE (JSON run report) --trace-out FILE "
         "(Chrome trace)\n"
         "exit codes: 0 ok, 1 error, 2 usage, 4 degraded (shards quarantined),\n"
         "            64 injected crash\n";
  return 2;
}

std::optional<LogLevel> parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

bool parse(int argc, char** argv, CliOptions& options) {
  constexpr std::uint64_t kAnyU64 = std::numeric_limits<std::uint64_t>::max();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric value is the whole token (parse_number) and in range;
    // anything else is named here and becomes a usage error.
    const auto invalid = [&](const char* v) {
      std::cerr << "invalid value for " << arg << ": '" << v << "'\n";
    };
    const auto count = [&](std::uint64_t min,
                           std::uint64_t max) -> std::optional<std::uint64_t> {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      const auto n = parse_number<std::uint64_t>(v);
      if (n && *n >= min && *n <= max) return n;
      invalid(v);
      return std::nullopt;
    };
    const auto finite_positive = [&](bool allow_zero) -> std::optional<double> {
      const char* v = next();
      if (v == nullptr) return std::nullopt;
      const auto x = parse_number<double>(v);
      if (x && std::isfinite(*x) && (*x > 0.0 || (allow_zero && *x == 0.0))) return x;
      invalid(v);
      return std::nullopt;
    };
    if (arg == "--seed") {
      const auto v = count(0, kAnyU64);
      if (!v) return false;
      options.seed = *v;
    } else if (arg == "--threads") {
      const auto v = count(0, core::kMaxThreads);
      if (!v) return false;
      options.threads = static_cast<std::size_t>(*v);
    } else if (arg == "--scale") {
      const auto v = finite_positive(false);
      if (!v) return false;
      options.scale = *v;
    } else if (arg == "--days") {
      const auto v = finite_positive(false);
      if (!v) return false;
      options.days = *v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.out = v;
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      try {
        (void)faults::FaultPlan::parse(v);
      } catch (const std::exception& e) {
        std::cerr << "invalid value for --faults: " << e.what() << "\n";
        return false;
      }
      options.faults = v;
    } else if (arg == "--cache") {
      options.cache = true;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options.cache_dir = v;
      options.cache = true;
    } else if (arg == "--deadline") {
      const auto v = finite_positive(true);
      if (!v) return false;
      options.deadline_s = *v;
    } else if (arg == "--retries") {
      const auto v = count(1, std::numeric_limits<int>::max());
      if (!v) return false;
      options.retries = static_cast<int>(*v);
    } else if (arg == "--fs-faults") {
      const char* v = next();
      if (v == nullptr) return false;
      options.fs_faults = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) return false;
      options.log_level = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      options.trace_out = v;
    } else if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return false;
      options.socket = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      options.snapshot = v;
    } else if (arg == "--max-open-bytes") {
      const auto v = count(0, kAnyU64);
      if (!v) return false;
      options.max_open_bytes = *v;
    } else if (arg == "--max-cache-bytes") {
      const auto v = count(0, kAnyU64);
      if (!v) return false;
      options.max_cache_bytes = *v;
    } else if (arg == "--by-age") {
      options.by_age = true;
    } else if (arg == "--qc-report") {
      options.qc_report = true;
    } else if (arg == "--placebo") {
      options.placebo = true;
    } else if (arg == "--markdown") {
      options.markdown = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    } else {
      options.positional.push_back(arg);
    }
  }
  return true;
}

dataset::StudyConfig study_config(const CliOptions& options) {
  dataset::StudyConfig config;
  config.seed = options.seed;
  config.threads = options.threads;
  config.population_scale = options.scale;
  config.window_days = options.days;
  config.placebo = options.placebo;
  if (!options.faults.empty()) {
    // The CLI seed doubles as the fault seed unless the spec overrides it
    // with an explicit seed= key.
    faults::FaultPlan base;
    base.seed = options.seed;
    config.faults = faults::FaultPlan::parse(options.faults, base);
  }
  return config;
}

std::filesystem::path cache_root(const CliOptions& options) {
  return options.cache_dir.empty() ? store::ArtifactCache::default_root()
                                   : std::filesystem::path{options.cache_dir};
}

/// Fold a command's own exit status together with the dataset's
/// degradation state (shards lost to their deadline): degradation only
/// ever *worsens* a success.
int exit_code(const dataset::StudyDataset& ds, int rc) {
  return rc == 0 && ds.qc.count(QuarantineReason::kDeadlineExceeded) > 0
             ? kExitDegraded
             : rc;
}

dataset::StudyDataset make_dataset(const CliOptions& options) {
  const obs::ScopedPhase phase{"dataset"};
  const auto config = study_config(options);
  std::optional<store::ArtifactCache> cache;
  if (options.cache) {
    core::RetryPolicy retry;
    if (options.retries >= 1) retry.max_attempts = options.retries;
    cache.emplace(cache_root(options), retry);
  }
  std::cerr << "generating dataset (seed " << config.seed << ", scale "
            << config.population_scale << ")...\n";
  auto ds = dataset::StudyGenerator{market::World::builtin(), config}.generate(
      {.store = cache ? &*cache : nullptr, .shard_deadline_s = options.deadline_s});
  if (const auto lost = ds.qc.count(QuarantineReason::kDeadlineExceeded)) {
    std::cerr << "warning: run degraded: " << lost
              << " shards quarantined (see QC report)\n";
  }
  if (options.qc_report) analysis::print_quarantine(std::cerr, ds.qc);
  return ds;
}

int cmd_markets(const CliOptions& options) {
  const auto world = market::World::builtin();
  auto codes = options.positional;
  if (codes.empty()) {
    for (const auto& c : world.countries()) codes.push_back(c.code);
  }
  std::cout << "code  name                       access($)  $/Mbps     r     plans\n";
  for (const auto& code : codes) {
    if (!world.contains(code)) {
      std::cerr << "unknown country: " << code << "\n";
      continue;
    }
    const auto& country = world.at(code);
    Rng rng{options.seed};
    const auto catalog = market::PlanCatalog::generate(country, rng);
    const auto fit = catalog.price_capacity_fit();
    const auto access = catalog.access_price();
    std::printf("%-5s %-26s %8.2f  %8.2f  %5.2f  %5zu\n", country.code.c_str(),
                country.name.c_str(), access ? access->dollars() : -1.0, fit.slope,
                fit.r, catalog.size());
  }
  return 0;
}

int cmd_generate(const CliOptions& options) {
  const auto ds = make_dataset(options);
  const obs::ScopedPhase phase{"output"};
  const std::filesystem::path dir{options.out};
  std::filesystem::create_directories(dir);
  // Serialization-level faults mangle the CSV text itself; each file gets
  // its own substream salt so the damage is independent per file.
  const auto write_csv = [&](const std::filesystem::path& name, std::string text,
                             std::uint64_t salt) {
    if (ds.config.faults.any_csv_faults()) {
      text = faults::corrupt_csv(text, ds.config.faults, salt);
    }
    std::ofstream out{dir / name};
    out << text;
  };
  {
    std::ostringstream os;
    dataset::write_user_records(os, ds.dasu);
    write_csv("dasu_users.csv", os.str(), 1);
  }
  {
    std::ostringstream os;
    dataset::write_user_records(os, ds.fcc);
    write_csv("fcc_users.csv", os.str(), 2);
  }
  {
    std::ostringstream os;
    dataset::write_upgrades(os, ds.upgrades);
    write_csv("upgrades.csv", os.str(), 3);
  }
  {
    std::vector<market::ServicePlan> plans;
    for (const auto& [code, snap] : ds.markets) {
      plans.insert(plans.end(), snap.catalog.plans().begin(), snap.catalog.plans().end());
    }
    std::ofstream out{dir / "plans.csv"};
    dataset::write_plans(out, plans);
  }
  std::cout << "wrote " << ds.dasu.size() << " + " << ds.fcc.size() << " user records, "
            << ds.upgrades.size() << " upgrade pairs to " << dir << "/\n";
  return exit_code(ds, 0);
}

int cmd_ingest(const CliOptions& options) {
  if (options.positional.empty()) return usage();
  const std::filesystem::path path{options.positional.front()};
  std::ifstream in{path};
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();

  const auto result = dataset::read_user_records_lenient(text.str());
  std::cout << "ingested " << result.records.size() << " user records from " << path
            << "\n";
  analysis::print_quarantine(std::cout, result.quarantine);
  return 0;
}

/// `bblab figure NAME` / `bblab experiment NAME`: one registry row.
int cmd_artifact(const CliOptions& options, analysis::ArtifactKind kind) {
  if (options.positional.empty()) return usage();
  // Validate the name before paying for dataset generation.
  const analysis::Artifact* artifact =
      analysis::find_artifact(options.positional.front(), kind);
  if (artifact == nullptr) return usage();
  const auto ds = make_dataset(options);
  const obs::ScopedPhase phase{"analysis"};
  artifact->render(std::cout, ds);
  return exit_code(ds, 0);
}

int cmd_pack(const CliOptions& options) {
  if (options.positional.empty()) return usage();
  const std::filesystem::path out{options.positional.front()};
  const auto ds = make_dataset(options);
  const obs::ScopedPhase phase{"output"};
  store::write_snapshot_file(out, ds);
  std::cout << "packed " << ds.dasu.size() << " + " << ds.fcc.size()
            << " user records, " << ds.upgrades.size() << " upgrade pairs, "
            << ds.markets.size() << " markets into " << out << " ("
            << std::filesystem::file_size(out) << " bytes)\n";
  return exit_code(ds, 0);
}

int cmd_cat(const CliOptions& options) {
  if (options.positional.empty()) return usage();
  const std::filesystem::path path{options.positional.front()};
  if (!std::filesystem::exists(path)) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  // Zero-copy: mmap the snapshot and decode straight out of the mapping —
  // the same SnapshotView the serve daemon runs on. A file that cannot be
  // mapped (a FIFO, a directory) is an IoError naming the path.
  const store::SnapshotView view = store::SnapshotView::open(path);
  const store::SnapshotInfo& info = view.info();
  // Decoding verifies every section checksum before handing out views.
  const dataset::StudyDataset ds = view.dataset();
  std::cout << "bbs format v" << info.version << ", " << info.file_size
            << " bytes, " << info.sections.size() << " sections\n";
  std::printf("%-10s %10s %12s  %s\n", "section", "offset", "bytes", "checksum");
  for (const auto& s : info.sections) {
    std::printf("%-10s %10llu %12llu  %016llx\n", s.name.c_str(),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size),
                static_cast<unsigned long long>(s.checksum));
  }
  std::cout << "records: dasu=" << ds.dasu.size() << " fcc=" << ds.fcc.size()
            << " upgrades=" << ds.upgrades.size()
            << " markets=" << ds.markets.size() << "\n"
            << "config: seed=" << ds.config.seed
            << " scale=" << ds.config.population_scale
            << " years=" << ds.config.first_year << ".." << ds.config.last_year
            << "\nqc: " << ds.qc.summary() << "\n";
  return 0;
}

int cmd_cache(const CliOptions& options) {
  if (options.positional.empty()) return usage();
  const store::ArtifactCache cache{cache_root(options)};
  const std::string& sub = options.positional.front();
  if (sub == "ls") {
    auto entries = cache.list();
    if (options.by_age) {
      // Oldest access first — the order trim evicts in — with the age
      // made visible so an operator can sanity-check a trim before
      // running it.
      std::sort(entries.begin(), entries.end(),
                [](const store::CacheEntry& a, const store::CacheEntry& b) {
                  if (a.last_access != b.last_access) {
                    return a.last_access < b.last_access;
                  }
                  return a.key < b.key;
                });
      const auto now = std::filesystem::file_time_type::clock::now();
      for (const auto& e : entries) {
        const double age_s =
            std::chrono::duration<double>{now - e.last_access}.count();
        std::printf("%s  %10llu  %8.0fs  %s\n", e.key.hex().c_str(),
                    static_cast<unsigned long long>(e.size_bytes), age_s,
                    e.path.string().c_str());
      }
    } else {
      for (const auto& e : entries) {
        std::printf("%s  %10llu  %s\n", e.key.hex().c_str(),
                    static_cast<unsigned long long>(e.size_bytes),
                    e.path.string().c_str());
      }
    }
    std::cout << entries.size() << " entries in " << cache.root() << "\n";
    return 0;
  }
  if (sub == "trim") {
    if (!options.max_cache_bytes) {
      std::cerr << "cache trim requires --max-cache-bytes N\n";
      return usage();
    }
    const auto removed = cache.trim(*options.max_cache_bytes);
    std::cout << "trimmed " << removed << " entries\n";
    return 0;
  }
  if (sub == "rm") {
    if (options.positional.size() < 2) return usage();
    for (std::size_t i = 1; i < options.positional.size(); ++i) {
      const std::string& what = options.positional[i];
      if (what == "all") {
        std::cout << "removed " << cache.clear() << " entries\n";
        continue;
      }
      const auto key = store::Fingerprint::from_hex(what);
      if (!key) {
        std::cerr << "not a cache key (want 32 hex digits): " << what << "\n";
        return 1;
      }
      if (cache.remove(*key)) {
        std::cout << "removed " << what << "\n";
      } else {
        std::cerr << "no such entry: " << what << "\n";
        return 1;
      }
    }
    return 0;
  }
  return usage();
}

int cmd_serve(const CliOptions& options) {
  if (options.socket.empty()) {
    std::cerr << "serve requires --socket PATH\n";
    return usage();
  }
  serve::ServerOptions sopts;
  sopts.socket = options.socket;
  sopts.threads = options.threads;
  sopts.max_open_bytes = options.max_open_bytes;
  sopts.deadline_s = options.deadline_s;  // --deadline: per-query budget
  serve::Server server{std::move(sopts)};
  server.run();
  std::cerr << "serve: drained after " << server.requests_served()
            << " requests\n";
  return 0;
}

int cmd_query(const CliOptions& options) {
  if (options.socket.empty() || options.positional.empty()) return usage();
  const std::string& what = options.positional.front();
  serve::Request request;
  if (what == "ping") {
    request.kind = serve::RequestKind::kPing;
  } else if (what == "info") {
    request.kind = serve::RequestKind::kInfo;
  } else if (what == "figure" || what == "experiment") {
    if (options.positional.size() < 2) return usage();
    request.kind = what == "figure" ? serve::RequestKind::kFigure
                                    : serve::RequestKind::kExperiment;
    request.name = options.positional[1];
  } else if (what == "scorecard") {
    request.kind = serve::RequestKind::kScorecard;
    if (options.markdown) request.name = "markdown";
  } else {
    return usage();
  }
  request.snapshot = options.snapshot;
  serve::Client client{options.socket};
  // --deadline doubles as the client-side response timeout (the server
  // enforces its own per-query deadline independently). Clamped so that a
  // huge finite deadline cannot overflow the int.
  const int timeout_ms =
      options.deadline_s > 0
          ? static_cast<int>(std::min(options.deadline_s * 1000.0,
                                      double{std::numeric_limits<int>::max()}))
          : -1;
  const auto response = client.call(request, timeout_ms);
  if (response.status == serve::Status::kOk) {
    std::cout << response.body;
    return 0;
  }
  std::cerr << "query " << serve::status_label(response.status) << ": "
            << response.body << "\n";
  return 1;
}

/// Write the observability outputs (--metrics-out / --trace-out) and the
/// stderr headline summary. Plain ofstream, not core::FileSystem: the
/// side channel must not count its own bytes or die to fault injection.
void write_obs_outputs(const CliOptions& options, const std::string& command,
                       int rc) {
  if (options.metrics_out.empty() && options.trace_out.empty()) return;
  if (!options.metrics_out.empty()) {
    std::ofstream out{options.metrics_out};
    if (out) {
      obs::write_run_report(out, command, rc);
    } else {
      std::cerr << "warning: cannot write metrics report to "
                << options.metrics_out << "\n";
    }
  }
  if (!options.trace_out.empty()) {
    std::ofstream out{options.trace_out};
    if (out) {
      obs::write_chrome_trace(out);
    } else {
      std::cerr << "warning: cannot write trace to " << options.trace_out << "\n";
    }
  }
  // Headline numbers go to stderr only when observability was requested,
  // so default runs keep their exact stderr (tests depend on it).
  obs::write_summary(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  set_log_level(LogLevel::kWarn);
  CliOptions options;
  if (!parse(argc, argv, options)) return usage();

  // Log level: hardcoded default < $BBLAB_LOG_LEVEL < --log-level. A bad
  // flag is a usage error; a bad env value only warns (a script-wide env
  // must not brick every invocation).
  if (const char* env = std::getenv("BBLAB_LOG_LEVEL");
      env != nullptr && *env != '\0') {
    if (const auto level = parse_log_level(env)) {
      set_log_level(*level);
    } else {
      std::cerr << "warning: ignoring invalid $BBLAB_LOG_LEVEL '" << env
                << "' (want debug|info|warn|error|off)\n";
    }
  }
  if (!options.log_level.empty()) {
    const auto level = parse_log_level(options.log_level);
    if (!level) {
      std::cerr << "invalid --log-level '" << options.log_level
                << "' (want debug|info|warn|error|off)\n";
      return usage();
    }
    set_log_level(*level);
  }

  if (!options.trace_out.empty()) obs::set_tracing(true);

  // Filesystem fault injection: installed process-wide before any I/O so
  // the whole storage stack (snapshots, cache publishes) runs through it.
  // Static storage: the instance must outlive every user.
  std::string fs_spec = options.fs_faults;
  if (fs_spec.empty()) {
    if (const char* env = std::getenv("BBLAB_FS_FAULTS")) fs_spec = env;
  }
  static std::optional<faults::FaultFileSystem> fault_fs;
  if (!fs_spec.empty()) {
    try {
      fault_fs.emplace(faults::FsFaultPlan::parse(fs_spec));
    } catch (const std::exception& e) {
      std::cerr << "bad --fs-faults spec: " << e.what() << "\n";
      return usage();
    }
    core::FileSystem::set_instance(&*fault_fs);
    std::cerr << "fs fault injection active: " << fs_spec << "\n";
  }

  const std::string command = argv[1];
  std::string command_line = command;
  for (int i = 2; i < argc; ++i) command_line += std::string{" "} + argv[i];

  // Dispatch through a lambda so every exit path (success, degraded,
  // error — but not an injected crash, which simulates process death)
  // flows past the observability writer below.
  const auto dispatch = [&]() -> int {
    if (command == "markets") return cmd_markets(options);
    if (command == "generate") return cmd_generate(options);
    if (command == "ingest") return cmd_ingest(options);
    if (command == "experiment") {
      return cmd_artifact(options, analysis::ArtifactKind::kTable);
    }
    if (command == "figure") return cmd_artifact(options, analysis::ArtifactKind::kFigure);
    if (command == "pack") return cmd_pack(options);
    if (command == "cat") return cmd_cat(options);
    if (command == "cache") return cmd_cache(options);
    if (command == "serve") return cmd_serve(options);
    if (command == "query") return cmd_query(options);
    if (command == "scorecard") {
      const auto ds = make_dataset(options);
      const obs::ScopedPhase phase{"analysis"};
      const double pass_rate =
          analysis::render_scorecard(std::cout, ds, options.markdown);
      return exit_code(ds, pass_rate >= 0.7 ? 0 : 1);
    }
    return usage();
  };

  int rc = 0;
  try {
    rc = dispatch();
  } catch (const faults::InjectedCrash& e) {
    // Simulated process death: report and leave immediately, skipping
    // every destructor — exactly the state a real crash leaves behind.
    std::cerr << "injected crash: " << e.what() << "\n";
    std::_Exit(kExitInjectedCrash);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    rc = 1;
  }
  // Usage errors (2) keep their exact contract: usage text on stderr,
  // nothing else, no side files.
  if (rc != 2) write_obs_outputs(options, command_line, rc);
  return rc;
}
