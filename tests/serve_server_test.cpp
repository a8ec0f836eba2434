// End-to-end daemon tests over a real unix socket: the server runs its
// event loop on a background thread, clients talk the real wire
// protocol. Labelled `parallel` so the tsan smoke run covers the
// event-loop/worker handoff.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/render.h"
#include "core/net.h"
#include "core/signal.h"
#include "dataset/generator.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "store/bbs.h"

namespace bblab::serve {
namespace {

dataset::StudyDataset tiny_dataset(std::uint64_t seed) {
  dataset::StudyConfig config;
  config.seed = seed;
  config.population_scale = 0.005;
  config.window_days = 0.1;
  config.fcc_users = 10;
  config.last_year = config.first_year;
  return dataset::StudyGenerator{market::World::builtin(), config}.generate();
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::reset_shutdown_for_test();
    dir_ = std::filesystem::path{::testing::TempDir()} /
           ("serve_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    snapshot_ = dir_ / "snap.bbs";
    store::write_snapshot_file(snapshot_, tiny_dataset(21));
  }

  void TearDown() override {
    stop_server();
    core::reset_shutdown_for_test();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Start a server on a background thread; returns once the socket is
  /// bound (bind() happens on this thread, so no race with clients).
  void start_server(double deadline_s = 0.0, std::size_t threads = 2,
                    std::uint64_t max_open_bytes = 1ull << 30) {
    ServerOptions options;
    options.socket = dir_ / "bb.sock";
    options.threads = threads;
    options.max_open_bytes = max_open_bytes;
    options.deadline_s = deadline_s;
    options.install_signals = false;  // tests stop via stop(), not signals
    server_ = std::make_unique<Server>(std::move(options));
    server_->bind();
    thread_ = std::thread{[this] { server_->run(); }};
  }

  void stop_server() {
    if (server_) server_->stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

  [[nodiscard]] std::filesystem::path socket() const {
    return dir_ / "bb.sock";
  }

  std::filesystem::path dir_;
  std::filesystem::path snapshot_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

TEST_F(ServerTest, PingPongs) {
  start_server();
  Client client{socket()};
  const auto response = client.ping();
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.body, "pong");
}

TEST_F(ServerTest, FigureMatchesDirectRender) {
  start_server();
  Client client{socket()};
  const auto response = client.call(
      Request{RequestKind::kFigure, "fig1", snapshot_.string()});
  ASSERT_EQ(response.status, Status::kOk);

  std::ostringstream expected;
  const auto ds = store::read_snapshot_file(snapshot_);
  ASSERT_TRUE(analysis::render_figure(expected, "fig1", ds));
  EXPECT_EQ(response.body, expected.str());
}

TEST_F(ServerTest, ExperimentMatchesDirectRender) {
  start_server();
  Client client{socket()};
  const auto response = client.call(
      Request{RequestKind::kExperiment, "tab5", snapshot_.string()});
  ASSERT_EQ(response.status, Status::kOk);

  std::ostringstream expected;
  const auto ds = store::read_snapshot_file(snapshot_);
  ASSERT_TRUE(analysis::render_experiment(expected, "tab5", ds));
  EXPECT_EQ(response.body, expected.str());
}

// fig3 and tab4 have no other product caller than the registry; the
// daemon reaches them through the same lookup as the CLI.
TEST_F(ServerTest, RegistryOnlyArtifactsMatchDirectRender) {
  start_server();
  Client client{socket()};
  const auto ds = store::read_snapshot_file(snapshot_);
  const auto fig3 = client.call(
      Request{RequestKind::kFigure, "fig3", snapshot_.string()});
  ASSERT_EQ(fig3.status, Status::kOk);
  std::ostringstream expected_fig3;
  ASSERT_TRUE(analysis::render_figure(expected_fig3, "fig3", ds));
  EXPECT_EQ(fig3.body, expected_fig3.str());

  const auto tab4 = client.call(
      Request{RequestKind::kExperiment, "tab4", snapshot_.string()});
  ASSERT_EQ(tab4.status, Status::kOk);
  std::ostringstream expected_tab4;
  ASSERT_TRUE(analysis::render_experiment(expected_tab4, "tab4", ds));
  EXPECT_EQ(tab4.body, expected_tab4.str());
}

TEST_F(ServerTest, InfoListsEveryArtifact) {
  start_server();
  Client client{socket()};
  const auto response = client.call(Request{RequestKind::kInfo, "", ""});
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_EQ(response.body.rfind(
                "figures: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 "
                "fig11 fig12\n"
                "experiments: tab1 tab2 tab3 tab4 tab5 tab6 tab7 tab8\n",
                0),
            0u)
      << response.body;
}

// Name validation runs before the snapshot is touched: an unknown or
// wrong-kind name is not-found even against a file that would fail to
// load, and the LRU sees no lookup at all.
TEST_F(ServerTest, UnknownNameIsNotFoundBeforeAnySnapshotLoad) {
  start_server();
  const auto garbage = dir_ / "garbage.bbs";
  std::ofstream{garbage} << "not a snapshot";
  Client client{socket()};
  const auto unknown = client.call(
      Request{RequestKind::kFigure, "fig99", garbage.string()});
  EXPECT_EQ(unknown.status, Status::kNotFound);
  EXPECT_EQ(unknown.body, "unknown figure: fig99");
  const auto wrong_kind = client.call(
      Request{RequestKind::kFigure, "tab1", garbage.string()});
  EXPECT_EQ(wrong_kind.status, Status::kNotFound);
  EXPECT_EQ(wrong_kind.body, "unknown figure: tab1");
  const auto table = client.call(
      Request{RequestKind::kExperiment, "fig3", garbage.string()});
  EXPECT_EQ(table.status, Status::kNotFound);
  EXPECT_EQ(table.body, "unknown experiment: fig3");
  const auto stats = server_->lru().stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST_F(ServerTest, UnknownNamesAndPathsAreNotFound) {
  start_server();
  Client client{socket()};
  EXPECT_EQ(client.call(Request{RequestKind::kFigure, "fig99",
                                snapshot_.string()}).status,
            Status::kNotFound);
  EXPECT_EQ(client.call(Request{RequestKind::kExperiment, "tab99",
                                snapshot_.string()}).status,
            Status::kNotFound);
  EXPECT_EQ(client.call(Request{RequestKind::kFigure, "fig1",
                                (dir_ / "nope.bbs").string()}).status,
            Status::kNotFound);
  EXPECT_EQ(client.call(Request{RequestKind::kFigure, "fig1", ""}).status,
            Status::kBadRequest);
}

TEST_F(ServerTest, CorruptSnapshotIsTypedResponse) {
  const auto corrupt = dir_ / "bad.bbs";
  store::write_snapshot_file(corrupt, tiny_dataset(22));
  {
    std::fstream f{corrupt, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(300);
    f.write("\xff", 1);
  }
  start_server();
  Client client{socket()};
  const auto response =
      client.call(Request{RequestKind::kFigure, "fig1", corrupt.string()});
  EXPECT_EQ(response.status, Status::kCorruptSnapshot);
  // The daemon survives a corrupt snapshot; other queries are untouched.
  EXPECT_EQ(client.ping().status, Status::kOk);
}

TEST_F(ServerTest, OlderFormatVersionIsTypedCorruptSnapshot) {
  const auto old = dir_ / "v1.bbs";
  store::write_snapshot_file(old, tiny_dataset(23));
  {
    std::fstream f{old, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(12);  // header version field, little-endian first byte
    f.write("\x01", 1);
  }
  start_server();
  Client client{socket()};
  const auto response =
      client.call(Request{RequestKind::kFigure, "fig1", old.string()});
  EXPECT_EQ(response.status, Status::kCorruptSnapshot);
  EXPECT_NE(response.body.find("snapshot format version 1, this library reads version 2"),
            std::string::npos)
      << response.body;
  // The daemon stays up and keeps serving healthy snapshots.
  EXPECT_EQ(client.ping().status, Status::kOk);
  EXPECT_EQ(client.call(Request{RequestKind::kFigure, "fig1", snapshot_.string()}).status,
            Status::kOk);
}

TEST_F(ServerTest, DeadlineExceededIsTypedResponseNotDeath) {
  // A deadline this small expires before the first poll point.
  start_server(/*deadline_s=*/1e-9);
  Client client{socket()};
  const auto response = client.call(
      Request{RequestKind::kFigure, "fig1", snapshot_.string()});
  EXPECT_EQ(response.status, Status::kDeadlineExceeded);
  // Ping never reaches a deadline check and still works; the daemon is
  // alive and the connection was kept open.
  EXPECT_EQ(client.ping().status, Status::kOk);
}

TEST_F(ServerTest, MalformedFrameGetsBadRequestAndClose) {
  start_server();
  auto sock = core::unix_connect(socket());
  // A framed payload of garbage (valid length prefix, bad magic).
  const std::string garbage = "\x10\x00\x00\x00" + std::string(16, 'z');
  sock.send_all(garbage);
  FrameAssembler frames{kMaxResponseBytes};
  char buf[4096];
  Response response;
  for (;;) {
    if (auto payload = frames.next()) {
      response = decode_response(*payload);
      break;
    }
    const auto n = sock.recv_some(buf, sizeof buf);
    ASSERT_TRUE(n.has_value());
    ASSERT_GT(*n, 0u) << "server closed before answering";
    frames.feed(buf, *n);
  }
  EXPECT_EQ(response.status, Status::kBadRequest);
  // The connection is closed after a bad frame...
  const auto eof = sock.recv_some(buf, sizeof buf);
  ASSERT_TRUE(eof.has_value());
  EXPECT_EQ(*eof, 0u);
  // ...but the daemon itself is fine.
  Client client{socket()};
  EXPECT_EQ(client.ping().status, Status::kOk);
}

TEST_F(ServerTest, OversizedFrameIsRejectedNotBuffered) {
  start_server();
  auto sock = core::unix_connect(socket());
  // Length prefix declaring 2 MiB (over the 1 MiB request cap).
  const char prefix[4] = {0x00, 0x00, 0x20, 0x00};
  sock.send_all(std::string_view{prefix, 4});
  FrameAssembler frames{kMaxResponseBytes};
  char buf[4096];
  Response response;
  for (;;) {
    if (auto payload = frames.next()) {
      response = decode_response(*payload);
      break;
    }
    const auto n = sock.recv_some(buf, sizeof buf);
    ASSERT_TRUE(n.has_value());
    ASSERT_GT(*n, 0u) << "server closed before answering";
    frames.feed(buf, *n);
  }
  EXPECT_EQ(response.status, Status::kBadRequest);
  Client client{socket()};
  EXPECT_EQ(client.ping().status, Status::kOk);
}

TEST_F(ServerTest, MidQueryDisconnectDoesNotKillTheDaemon) {
  start_server();
  for (int i = 0; i < 3; ++i) {
    auto sock = core::unix_connect(socket());
    sock.send_all(encode_request(
        Request{RequestKind::kFigure, "fig1", snapshot_.string()}));
    sock.close();  // vanish while the query is (likely) still running
  }
  // The daemon took the hits (wasted renders, EPIPE on send) and lives.
  Client client{socket()};
  const auto response = client.call(
      Request{RequestKind::kFigure, "fig1", snapshot_.string()});
  EXPECT_EQ(response.status, Status::kOk);
}

TEST_F(ServerTest, ConcurrentMixedClientsAllGetCorrectBytes) {
  start_server(/*deadline_s=*/0.0, /*threads=*/4);

  // Oracle bytes, rendered directly.
  const auto ds = store::read_snapshot_file(snapshot_);
  std::ostringstream fig1, tab1;
  ASSERT_TRUE(analysis::render_figure(fig1, "fig1", ds));
  ASSERT_TRUE(analysis::render_experiment(tab1, "tab1", ds));

  constexpr int kClients = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client{socket()};
        for (int r = 0; r < kRounds; ++r) {
          if ((c + r) % 3 == 0) {
            if (client.ping().body != "pong") ++failures;
          } else if ((c + r) % 3 == 1) {
            const auto resp = client.call(
                Request{RequestKind::kFigure, "fig1", snapshot_.string()});
            if (resp.status != Status::kOk || resp.body != fig1.str()) {
              ++failures;
            }
          } else {
            const auto resp = client.call(Request{RequestKind::kExperiment,
                                                  "tab1", snapshot_.string()});
            if (resp.status != Status::kOk || resp.body != tab1.str()) {
              ++failures;
            }
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->requests_served(), kClients * kRounds);
}

TEST_F(ServerTest, GracefulDrainUnlinksSocketAndReturns) {
  start_server();
  {
    Client client{socket()};
    EXPECT_EQ(client.ping().status, Status::kOk);
  }
  stop_server();  // stop() + join: run() must return on its own
  EXPECT_FALSE(std::filesystem::exists(socket()));
}

TEST_F(ServerTest, LruSharedAcrossClients) {
  start_server();
  Client a{socket()};
  Client b{socket()};
  (void)a.call(Request{RequestKind::kFigure, "fig1", snapshot_.string()});
  (void)b.call(Request{RequestKind::kExperiment, "tab1", snapshot_.string()});
  const auto stats = server_->lru().stats();
  EXPECT_EQ(stats.misses, 1u);  // one decode served both clients
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

}  // namespace
}  // namespace bblab::serve
