// End-to-end benchmark driver: builds a workload's inputs from a seed,
// drives the library's public entry points, and prints the raw
// measurements as one JSON line. perfbench/run.py turns them into the
// benchmark's metrics.
//
//   perfbench_driver fixtures --workload W --seed N --dir D
//   perfbench_driver measure  --workload W --seed N --dir D --seconds T
//                             --trace 0|1
//
// `fixtures` runs in its own process so that neither its CPU time nor
// its heap high-water mark can leak into the measured process: it writes
// the serve workloads' snapshots into D together with the oracle bodies,
// rendered by analysis::render_* from the in-memory dataset that was
// snapshotted. `measure` sets the workload up several times (each set-up
// timed), then runs closed-loop rounds for T seconds. With --trace 1 the
// rounds alternate untraced and traced, and the benchmark's own OBS_SPANs
// around every public call it makes (plus the library's own spans) are
// exported to D/trace.json.
//
// Workloads:
//   study       build_markets -> plan_shards -> simulate_shard (2-worker
//               pool) -> write_snapshot_file -> SnapshotView::open ->
//               dataset() -> every figure, experiment and the scorecard,
//               repeated; each pass is one operation.
//   serve_hot   one resident snapshot, 1 query worker, 2 closed-loop
//               connections, a seeded mix of figures and experiments
//               with ~5% scorecards.
//   serve_cold  the same daemon over 14 small snapshots and one ~4x
//               larger one (5% of requests), visited in a fixed cyclic
//               order under an LRU budget below a third of their total
//               size, so nearly every query decodes a snapshot.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/render.h"
#include "core/logging.h"
#include "core/rng.h"
#include "core/signal.h"
#include "core/thread_pool.h"
#include "dataset/generator.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/client.h"
#include "serve/server.h"
#include "store/bbs.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bblab;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Fixed workload shape. Changing any of these changes what the
// benchmark measures, so they are constants rather than options.
constexpr std::size_t kStudyPoolThreads = 2;
constexpr std::size_t kQueryWorkers = 1;
constexpr std::size_t kConnections = 2;
constexpr int kStudySetupReps = 31;
constexpr int kServeSetupReps = 5;
constexpr std::size_t kColdSmallSnapshots = 14;
constexpr std::size_t kColdBigEvery = 20;  // 1 request in 20 hits the big snapshot
constexpr std::size_t kHotBlock = 100;      // query mix weights per 100 requests
constexpr std::size_t kHotScorecards = 5;
constexpr std::size_t kHotLight = 30;       // the remaining 65 are matching tables
constexpr int kRequestTimeoutMs = 60000;
constexpr std::size_t kTraceCapacity = 1u << 20;

const std::vector<std::string> kLightQueries = {"fig1", "fig2", "fig10",
                                                "tab1", "tab5", "tab7"};
const std::vector<std::string> kMatchingQueries = {"fig6", "tab2", "tab3",
                                                   "tab6", "tab8"};
const std::vector<std::string> kColdQueries = {"fig1", "fig10", "tab1", "tab5"};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Start a fresh resident-set high-water mark. Returns false when the
/// kernel refuses, in which case peak_rss_kb() reports the whole process.
bool reset_peak_rss() {
  std::ofstream f{"/proc/self/clear_refs"};
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

std::uint64_t peak_rss_kb() {
  std::ifstream f{"/proc/self/status"};
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return Rng{seed}.fork(salt).next_u64();
}

// ---------------------------------------------------------------- fixtures

struct Fixture {
  std::string stem;
  dataset::StudyConfig config;
  std::vector<std::string> queries;  ///< request names served from it
};

dataset::StudyConfig small_study(std::uint64_t seed, double scale, double days,
                                 std::size_t fcc_users) {
  dataset::StudyConfig c;
  c.seed = seed;
  c.population_scale = scale;
  c.window_days = days;
  c.fcc_users = fcc_users;
  c.fcc_window_days = days;
  return c;
}

/// The study workload's one study.
dataset::StudyConfig study_config(std::uint64_t seed) {
  return small_study(derive_seed(seed, 1), 0.02, 0.3, 100);
}

std::vector<Fixture> fixture_plan(const std::string& workload, std::uint64_t seed) {
  std::vector<Fixture> plan;
  if (workload == "serve_hot") {
    std::vector<std::string> all = analysis::figure_names();
    for (const auto& n : analysis::experiment_names()) all.push_back(n);
    all.push_back("scorecard");
    plan.push_back({"hot", small_study(derive_seed(seed, 2), 0.03, 0.1, 150), all});
  } else if (workload == "serve_cold") {
    for (std::size_t i = 0; i < kColdSmallSnapshots; ++i) {
      char stem[16];
      std::snprintf(stem, sizeof stem, "cold%02zu", i);
      plan.push_back({stem, small_study(derive_seed(seed, 100 + i), 0.05, 0.1, 250),
                      kColdQueries});
    }
    plan.push_back({"big", small_study(derive_seed(seed, 3), 0.22, 0.1, 1100),
                    kColdQueries});
  }
  return plan;
}

fs::path snapshot_path(const fs::path& dir, const std::string& stem) {
  return dir / (stem + ".bbs");
}

fs::path oracle_path(const fs::path& dir, const std::string& stem,
                     const std::string& query) {
  return dir / (stem + "." + query + ".oracle");
}

/// Render one named query the way the daemon does.
std::string render(const std::string& name, const dataset::StudyDataset& ds) {
  std::ostringstream out;
  if (name == "scorecard") {
    analysis::render_scorecard(out, ds, false);
  } else if (!analysis::render_figure(out, name, ds) &&
             !analysis::render_experiment(out, name, ds)) {
    throw std::invalid_argument{"unknown query " + name};
  }
  return out.str();
}

/// The scorecard's obs.* rows report live process counters (DESIGN.md
/// §11), so their measured column legitimately differs between
/// processes and over time. Blank it; the verdict and every other row
/// are still compared byte for byte.
std::string mask_live_rows(const std::string& body) {
  std::string out;
  std::istringstream in{body};
  std::string line;
  while (std::getline(in, line)) {
    const auto id = line.find("] obs.");
    const auto measured = line.find("measured:");
    if (id != std::string::npos && measured != std::string::npos) {
      line.resize(measured + 9);
    }
    out += line;
    out += '\n';
  }
  return out;
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  f << bytes;
  if (!f) throw std::runtime_error{"cannot write " + path.string()};
}

std::string read_file(const fs::path& path) {
  std::ifstream f{path, std::ios::binary};
  if (!f) throw std::runtime_error{"cannot read " + path.string()};
  return std::string{std::istreambuf_iterator<char>{f}, std::istreambuf_iterator<char>{}};
}

int build_fixtures(const std::string& workload, std::uint64_t seed, const fs::path& dir) {
  const auto plan = fixture_plan(workload, seed);
  std::atomic<std::size_t> next{0};
  std::vector<std::string> errors(plan.size());
  std::vector<std::thread> threads;
  const std::size_t n = std::min<std::size_t>(plan.size(), core::ThreadPool::hardware_threads());
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < plan.size(); i = next++) {
        try {
          auto config = plan[i].config;
          config.threads = 1;
          const auto ds =
              dataset::StudyGenerator{market::World::builtin(), config}.generate();
          store::write_snapshot_file(snapshot_path(dir, plan[i].stem), ds);
          for (const auto& q : plan[i].queries) {
            write_file(oracle_path(dir, plan[i].stem, q), render(q, ds));
          }
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "fixture %s: %s\n", plan[i].stem.c_str(), errors[i].c_str());
      return 1;
    }
  }
  return 0;
}

// ------------------------------------------------------------ measurement

/// One measured round: a study pass, or a stretch of closed-loop queries.
struct Round {
  bool traced{false};
  double wall_s{0};
  double cpu_s{0};
  std::uint64_t sent{0};
  std::uint64_t ok{0};
  std::uint64_t failed{0};      ///< non-OK status, transport error or mismatch
  std::uint64_t mismatched{0};  ///< OK status but bytes differ from the oracle
  std::vector<double> lat_ms;
};

/// Registry counter totals, for deltas across traced rounds.
std::map<std::string, std::uint64_t> counters_now() {
  return obs::Registry::instance().snapshot().counters;
}

void add_delta(std::map<std::string, std::uint64_t>& acc,
               const std::map<std::string, std::uint64_t>& before,
               const std::map<std::string, std::uint64_t>& after) {
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    acc[name] += v - (it == before.end() ? 0 : it->second);
  }
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Measurement {
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  std::map<std::string, std::uint64_t> traced_counters;
  std::map<std::string, double> extra;  ///< workload-specific facts
  std::uint64_t peak_rss_kb{0};
  bool rss_scoped{false};
};

std::string to_json(const Measurement& m, const std::string& workload,
                    std::uint64_t seed, double seconds, bool trace) {
  std::string j = "{\"provenance\":{\"workload\":" + quoted(workload) +
                  ",\"seed\":" + std::to_string(seed) +
                  ",\"seconds\":" + num(seconds) +
                  ",\"trace\":" + (trace ? "true" : "false") +
                  ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
                  ",\"nproc\":" + std::to_string(core::ThreadPool::hardware_threads());
  if (workload == "study") {
    j += ",\"pool_threads\":" + std::to_string(kStudyPoolThreads);
  } else {
    j += ",\"query_workers\":" + std::to_string(kQueryWorkers) +
         ",\"connections\":" + std::to_string(kConnections);
  }
  j += ",\"rss_scope\":" + quoted(m.rss_scoped ? "measured phase" : "process") + "}";
  j += ",\"setup_s\":[";
  for (std::size_t i = 0; i < m.setup_s.size(); ++i) j += (i ? "," : "") + num(m.setup_s[i]);
  j += "],\"peak_rss_kb\":" + std::to_string(m.peak_rss_kb) + ",\"rounds\":[";
  for (std::size_t i = 0; i < m.rounds.size(); ++i) {
    const Round& r = m.rounds[i];
    j += std::string{i ? "," : ""} + "{\"traced\":" + (r.traced ? "true" : "false") +
         ",\"wall_s\":" + num(r.wall_s) + ",\"cpu_s\":" + num(r.cpu_s) +
         ",\"sent\":" + std::to_string(r.sent) + ",\"ok\":" + std::to_string(r.ok) +
         ",\"failed\":" + std::to_string(r.failed) +
         ",\"mismatched\":" + std::to_string(r.mismatched) + ",\"lat_ms\":[";
    for (std::size_t k = 0; k < r.lat_ms.size(); ++k) j += (k ? "," : "") + num(r.lat_ms[k]);
    j += "]}";
  }
  j += "],\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : m.traced_counters) {
    j += (first ? "" : ",") + quoted(name) + ":" + std::to_string(v);
    first = false;
  }
  j += "},\"extra\":{";
  first = true;
  for (const auto& [name, v] : m.extra) {
    j += (first ? "" : ",") + quoted(name) + ":" + num(v);
    first = false;
  }
  return j + "}}";
}

/// In --trace 1 runs, round i is traced when odd: untraced and traced
/// rounds alternate so that drift in machine speed hits both alike.
bool traced_round(bool trace, std::size_t i) { return trace && i % 2 == 1; }

// ------------------------------------------------------------------ study

struct StudyRig {
  explicit StudyRig(const dataset::StudyConfig& config)
      : world{std::vector<market::CountryProfile>(market::World::builtin().countries().begin(),
                                                  market::World::builtin().countries().end())},
        pool{kStudyPoolThreads},
        generator{world, config} {}

  market::World world;
  core::ThreadPool pool;
  dataset::StudyGenerator generator;
};

/// Every figure, experiment and the scorecard, concatenated with headers.
std::string render_all(const dataset::StudyDataset& ds) {
  std::string text;
  const auto one = [&](const std::string& name) {
    std::string body;
    {
      OBS_SPAN("analysis.render", name);
      body = render(name, ds);
    }
    text += "== " + name + " ==\n" + (name == "scorecard" ? mask_live_rows(body) : body);
  };
  for (const auto& n : analysis::figure_names()) one(n);
  for (const auto& n : analysis::experiment_names()) one(n);
  one("scorecard");
  return text;
}

Measurement measure_study(std::uint64_t seed, double seconds, bool trace,
                          const fs::path& dir) {
  Measurement m;
  const auto config = study_config(seed);
  std::unique_ptr<StudyRig> rig;
  for (int i = 0; i < kStudySetupReps; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<StudyRig>(config);
    m.setup_s.push_back(seconds_since(t0));
  }

  const fs::path snapshot = dir / "study.bbs";
  std::string first_output;
  m.rss_scoped = reset_peak_rss();
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t i = 0; Clock::now() < end || i < (trace ? 2u : 1u); ++i) {
    Round r;
    r.traced = traced_round(trace, i);
    const auto before = r.traced ? counters_now() : std::map<std::string, std::uint64_t>{};
    obs::set_tracing(r.traced);
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    dataset::StudyDataset ds;
    std::string output;
    {
      OBS_SPAN("bench.study");
      ds.config = config;
      {
        OBS_SPAN("dataset.build_markets");
        ds.markets = rig->generator.build_markets();
      }
      std::vector<dataset::ShardSpec> shards;
      {
        OBS_SPAN("dataset.plan_shards");
        shards = rig->generator.plan_shards(ds.markets);
      }
      for (const auto& spec : shards) {
        dataset::ShardOutput out;
        {
          OBS_SPAN("dataset.simulate_shard");
          out = rig->generator.simulate_shard(spec, ds.markets, rig->pool);
        }
        OBS_SPAN("dataset.merge");
        dataset::merge_shard_output(ds, spec, std::move(out));
      }
      {
        OBS_SPAN("store.write");
        store::write_snapshot_file(snapshot, ds);
      }
      std::optional<store::SnapshotView> view;
      {
        OBS_SPAN("store.open");
        view.emplace(store::SnapshotView::open(snapshot));
      }
      dataset::StudyDataset reloaded;
      {
        OBS_SPAN("store.decode");
        reloaded = view->dataset(rig->world);
      }
      output = render_all(reloaded);
    }
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    obs::set_tracing(false);
    if (r.traced) add_delta(m.traced_counters, before, counters_now());

    // Oracle (untimed, and untraced: tracing is off again): the reloaded
    // snapshot must render exactly what the in-memory dataset renders,
    // and every pass must match the first.
    r.sent = 1;
    r.lat_ms.push_back(r.wall_s * 1e3);
    if (first_output.empty()) {
      first_output = output;
      write_file(dir / "study_render.txt", output);
    }
    if (output != render_all(ds) || output != first_output) {
      r.failed = r.mismatched = 1;
    } else {
      r.ok = 1;
    }
    m.extra["store.bytes"] = static_cast<double>(fs::file_size(snapshot));
    m.rounds.push_back(std::move(r));
  }
  m.peak_rss_kb = peak_rss_kb();
  return m;
}

// ------------------------------------------------------------------ serve

struct Query {
  serve::Request request;
  const std::string* oracle{nullptr};  ///< masked expected body
  bool scorecard{false};
};

/// Fisher-Yates with the library's portable RNG, so a seed gives the
/// same order on every platform.
template <typename T>
void shuffle(std::vector<T>& v, Rng rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.index(i)]);
}

/// The seeded request sequence the connections walk through in order.
std::vector<Query> query_sequence(const std::string& workload, std::uint64_t seed,
                                  const fs::path& dir,
                                  const std::map<std::string, std::string>& oracles) {
  const auto make = [&](const std::string& stem, const std::string& name) {
    Query q;
    q.scorecard = name == "scorecard";
    const auto& figs = analysis::figure_names();
    q.request.kind = q.scorecard ? serve::RequestKind::kScorecard
                     : std::find(figs.begin(), figs.end(), name) != figs.end()
                         ? serve::RequestKind::kFigure
                         : serve::RequestKind::kExperiment;
    q.request.name = q.scorecard ? "" : name;
    q.request.snapshot = snapshot_path(dir, stem).string();
    q.oracle = &oracles.at(oracle_path(dir, stem, name).string());
    return q;
  };
  std::vector<Query> seq;
  if (workload == "serve_hot") {
    // Per block of 100: 5 scorecards, 30 light renders, 65 matching
    // tables. Light renders are always cheaper than matching tables, so
    // p50 falls inside the matching class and p99 inside the scorecards.
    for (std::size_t b = 0; b < 20; ++b) {
      std::vector<Query> block;
      for (std::size_t i = 0; i < kHotScorecards; ++i) block.push_back(make("hot", "scorecard"));
      for (std::size_t i = 0; i < kHotLight; ++i) {
        block.push_back(make("hot", kLightQueries[i % kLightQueries.size()]));
      }
      for (std::size_t i = 0; block.size() < kHotBlock; ++i) {
        block.push_back(make("hot", kMatchingQueries[i % kMatchingQueries.size()]));
      }
      shuffle(block, Rng{derive_seed(seed, 10 + b)});
      seq.insert(seq.end(), block.begin(), block.end());
    }
  } else {
    std::vector<std::size_t> order(kColdSmallSnapshots);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, Rng{derive_seed(seed, 4)});
    std::size_t small = 0;
    std::size_t big = 0;
    for (std::size_t s = 0; s < kColdSmallSnapshots * kColdBigEvery; ++s) {
      if (s % kColdBigEvery == kColdBigEvery - 1) {
        seq.push_back(make("big", kColdQueries[big++ % kColdQueries.size()]));
      } else {
        char stem[16];
        std::snprintf(stem, sizeof stem, "cold%02zu", order[small % order.size()]);
        const std::size_t name = (small / order.size() + small) % kColdQueries.size();
        seq.push_back(make(stem, kColdQueries[name]));
        ++small;
      }
    }
  }
  return seq;
}

/// In-process daemon plus its client connections.
class ServeRig {
 public:
  ServeRig(const fs::path& socket, std::uint64_t max_open_bytes) {
    serve::ServerOptions options;
    options.socket = socket;
    options.threads = kQueryWorkers;
    options.max_open_bytes = max_open_bytes;
    options.install_signals = false;
    server_ = std::make_unique<serve::Server>(std::move(options));
    server_->bind();
    loop_ = std::thread{[this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "daemon died: %s\n", e.what());
        std::abort();
      }
    }};
    try {
      for (std::size_t c = 0; c < kConnections; ++c) {
        clients_.push_back(std::make_unique<serve::Client>(server_->socket_path()));
      }
    } catch (...) {
      shutdown();
      throw;
    }
  }
  ~ServeRig() { shutdown(); }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  serve::Server& server() { return *server_; }
  serve::Client& client(std::size_t c) { return *clients_[c]; }
  void reconnect(std::size_t c) {
    clients_[c] = std::make_unique<serve::Client>(server_->socket_path());
  }

 private:
  void shutdown() {
    clients_.clear();
    server_->stop();
    loop_.join();
    core::reset_shutdown_for_test();
  }

  std::unique_ptr<serve::Server> server_;
  std::thread loop_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
};

/// 0 = ok, 1 = mismatch, 2 = non-OK status.
int check(const Query& q, const serve::Response& response) {
  if (response.status != serve::Status::kOk) return 2;
  const bool same = q.scorecard ? mask_live_rows(response.body) == *q.oracle
                                : response.body == *q.oracle;
  return same ? 0 : 1;
}

Round serve_round(ServeRig& rig, const std::vector<Query>& seq,
                  std::atomic<std::uint64_t>& next, double seconds, bool traced) {
  std::vector<Round> per_conn(kConnections);
  obs::set_tracing(traced);
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Round& r = per_conn[c];
      while (Clock::now() < end) {
        const Query& q = seq[next++ % seq.size()];
        ++r.sent;
        try {
          const auto q0 = Clock::now();
          serve::Response response;
          {
            OBS_SPAN("serve.call");
            response = rig.client(c).call(q.request, kRequestTimeoutMs);
          }
          r.lat_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - q0).count());
          const int verdict = check(q, response);
          if (verdict == 0) {
            ++r.ok;
          } else {
            ++r.failed;
            if (verdict == 1) ++r.mismatched;
          }
        } catch (const std::exception& e) {
          ++r.failed;
          std::fprintf(stderr, "connection %zu: %s\n", c, e.what());
          try {
            rig.reconnect(c);
          } catch (const std::exception&) {
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Round r;
  r.traced = traced;
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  obs::set_tracing(false);
  for (auto& c : per_conn) {
    r.sent += c.sent;
    r.ok += c.ok;
    r.failed += c.failed;
    r.mismatched += c.mismatched;
    r.lat_ms.insert(r.lat_ms.end(), c.lat_ms.begin(), c.lat_ms.end());
  }
  return r;
}

Measurement measure_serve(const std::string& workload, std::uint64_t seed,
                          double seconds, bool trace, const fs::path& dir) {
  Measurement m;
  std::map<std::string, std::string> oracles;
  std::uint64_t total_bytes = 0;
  std::uint64_t largest = 0;
  std::uint64_t largest_small = 0;
  for (const auto& f : fixture_plan(workload, seed)) {
    const auto bytes = fs::file_size(snapshot_path(dir, f.stem));
    total_bytes += bytes;
    largest = std::max(largest, bytes);
    if (f.stem != "big") largest_small = std::max(largest_small, bytes);
    for (const auto& q : f.queries) {
      const auto path = oracle_path(dir, f.stem, q);
      const auto body = read_file(path);
      oracles[path.string()] = q == "scorecard" ? mask_live_rows(body) : body;
    }
  }
  // serve_hot: room for the one snapshot. serve_cold: room for the big
  // snapshot and one small one, at most a third of all snapshot bytes,
  // so the cyclic order misses on nearly every request.
  const std::uint64_t max_open_bytes =
      workload == "serve_hot" ? 2 * total_bytes : largest + largest_small;
  if (workload == "serve_cold" && total_bytes < 3 * max_open_bytes) {
    throw std::runtime_error{"serve_cold fixtures are too small for the LRU budget"};
  }
  m.extra["max_open_bytes"] = static_cast<double>(max_open_bytes);
  m.extra["snapshot_bytes"] = static_cast<double>(total_bytes);
  m.extra["big_over_small"] = static_cast<double>(largest) / static_cast<double>(largest_small);

  const auto seq = query_sequence(workload, seed, dir, oracles);
  // Warm-up: the sequence's first block, which holds every request name
  // (serve_hot) or touches every snapshot (serve_cold). Measurement then
  // continues the sequence where the warm-up left it.
  const std::size_t warmup = workload == "serve_hot" ? kHotBlock : kColdBigEvery;

  std::unique_ptr<ServeRig> rig;
  for (int i = 0; i < kServeSetupReps; ++i) {
    rig.reset();
    const auto t0 = Clock::now();
    rig = std::make_unique<ServeRig>(dir / ("q" + std::to_string(i) + ".sock"), max_open_bytes);
    for (std::size_t k = 0; k < warmup; ++k) {
      const Query& q = seq[k];
      if (check(q, rig->client(0).call(q.request, kRequestTimeoutMs)) != 0) {
        throw std::runtime_error{"warm-up query " + q.request.name + " on " +
                                 q.request.snapshot + " failed"};
      }
    }
    m.setup_s.push_back(seconds_since(t0));
  }

  std::atomic<std::uint64_t> next{warmup};
  const std::size_t rounds = trace ? 6 : 4;
  double lru_hits = 0, lru_misses = 0, lru_evictions = 0;
  m.rss_scoped = reset_peak_rss();
  for (std::size_t i = 0; i < rounds; ++i) {
    const bool traced = traced_round(trace, i);
    const auto before = counters_now();
    const auto lru0 = rig->server().lru().stats();
    m.rounds.push_back(serve_round(*rig, seq, next, seconds / static_cast<double>(rounds), traced));
    if (traced) {
      add_delta(m.traced_counters, before, counters_now());
      const auto lru1 = rig->server().lru().stats();
      lru_hits += static_cast<double>(lru1.hits - lru0.hits);
      lru_misses += static_cast<double>(lru1.misses - lru0.misses);
      lru_evictions += static_cast<double>(lru1.evictions - lru0.evictions);
    }
  }
  m.peak_rss_kb = peak_rss_kb();
  m.extra["lru.hits"] = lru_hits;
  m.extra["lru.misses"] = lru_misses;
  m.extra["lru.evictions"] = lru_evictions;
  return m;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  fs::path dir;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument{"missing mode"};
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--dir") a.dir = value;
    else throw std::invalid_argument{"unknown flag " + key};
  }
  if (a.mode != "fixtures" && a.mode != "measure") throw std::invalid_argument{"bad mode"};
  if (a.workload != "study" && a.workload != "serve_hot" && a.workload != "serve_cold") {
    throw std::invalid_argument{"unknown workload " + a.workload};
  }
  if (a.dir.empty()) throw std::invalid_argument{"--dir is required"};
  if (a.mode == "measure" && !(a.seconds > 0)) throw std::invalid_argument{"--seconds must be > 0"};
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = true;
#endif
  if (!optimized || std::string{PERFBENCH_BUILD_TYPE} != "Release") {
    std::fprintf(stderr, "perfbench_driver: refusing to measure a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  set_log_level(LogLevel::kWarn);
  try {
    const Args a = parse(argc, argv);
    if (a.mode == "fixtures") return build_fixtures(a.workload, a.seed, a.dir);
    obs::set_trace_capacity(kTraceCapacity);
    const Measurement m = a.workload == "study"
                              ? measure_study(a.seed, a.seconds, a.trace, a.dir)
                              : measure_serve(a.workload, a.seed, a.seconds, a.trace, a.dir);
    if (a.trace) {
      std::ofstream trace{a.dir / "trace.json"};
      obs::write_chrome_trace(trace);
    }
    std::printf("%s\n", to_json(m, a.workload, a.seed, a.seconds, a.trace).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
