// serve::ReactorServer — asppi_serve's TCP front end: all ops over TCP,
// pipelined ordering, concurrent connections, batch admission (one inflight
// slot per BATCH, so a pipelined burst on one connection never trips the
// overload gate), whole-batch shedding, the connection cap, hundreds of
// held-open connections on a few pool threads, graceful drain and idempotent
// Stop, start/stop cycles over one service, and byte equivalence of full
// transcripts (hand-written and load-generated) with an in-process
// reference. The ServerTest suite pins the same front end's wire contract for
// a plain line-at-a-time client. The epoch suites cover hot reload: a swap
// mid-stream never drops or tears a query, a reload line runs at its batch
// position, and the concurrent swap+query suite is a TSan target.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "load/workload.h"
#include "serve/epoch.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/service.h"
#include "topology/generator.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace asppi::serve {
namespace {

topo::GeneratedTopology TestTopology() {
  topo::GeneratorParams params;
  params.seed = 5;
  params.num_tier1 = 4;
  params.num_tier2 = 15;
  params.num_tier3 = 40;
  params.num_stubs = 120;
  params.num_content = 3;
  return topo::GenerateInternetTopology(params);
}

util::Json MustParse(const std::string& text) {
  std::string error;
  auto parsed = util::Json::Parse(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error << " in: " << text;
  return parsed ? *parsed : util::Json();
}

// Minimal blocking NDJSON client with half-close support.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connected() const { return connected_; }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  bool SendRaw(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  std::string ReadLine() {
    while (true) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string ReadAll() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    return std::move(buffer_);
  }

  std::string RoundTrip(const std::string& line) {
    if (!Send(line)) return "";
    return ReadLine();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

class ReactorTest : public ::testing::Test {
 protected:
  ReactorTest() : gen_(TestTopology()), pool_(4) {}

  std::string ImpactLine(std::size_t stub, std::size_t tier2) const {
    return R"({"op":"impact","victim":)" + std::to_string(gen_.stubs[stub]) +
           R"(,"attacker":)" + std::to_string(gen_.tier2[tier2]) + "}";
  }
  std::string RouteLine(std::size_t stub, std::size_t tier1) const {
    return R"({"op":"route","origin":)" + std::to_string(gen_.stubs[stub]) +
           R"(,"observer":)" + std::to_string(gen_.tier1[tier1]) + "}";
  }

  // `script` pipelined down one connection to a fresh server, half-closed,
  // and read to EOF.
  std::string ServedTranscript(const std::string& script) {
    QueryService service(gen_.graph, {});
    EpochManager epochs;
    epochs.Install(MakeUnownedEpoch(&service, 1));
    ReactorServer server(&epochs, &pool_);
    EXPECT_EQ(server.Start(), "");
    Client client(server.Port());
    EXPECT_TRUE(client.Connected());
    EXPECT_TRUE(client.SendRaw(script));
    client.ShutdownWrite();
    std::string transcript = client.ReadAll();
    server.Stop();
    return transcript;
  }

  // What an in-process reference answers to `script`, line by line: reload
  // lines through HandleAdminLine on a fresh EpochManager, every other line
  // through Handle on a fresh QueryService, so cold caches and health
  // counters start equal with the served side.
  std::string ReferenceTranscript(const std::string& script) const {
    QueryService reference(gen_.graph, {});
    EpochManager epochs;
    epochs.Install(MakeUnownedEpoch(&reference, 1));
    std::string transcript;
    std::size_t start = 0;
    while (start < script.size()) {
      std::size_t end = script.find('\n', start);
      if (end == std::string::npos) end = script.size();
      const std::string line = script.substr(start, end - start);
      start = end + 1;
      std::string response;
      if (!HandleAdminLine(&epochs, line, &response)) {
        response = reference.Handle(line);
      }
      transcript += response + "\n";
    }
    return transcript;
  }

  topo::GeneratedTopology gen_;
  util::ThreadPool pool_;
};

TEST_F(ReactorTest, AnswersAllOpsOverTcp) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");
  ASSERT_GT(server.Port(), 0);

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  const std::string impact = ImpactLine(0, 0);
  EXPECT_TRUE(MustParse(client.RoundTrip(impact)).Find("ok")->AsBool());
  const std::string detect =
      R"({"op":"detect","victim":)" + std::to_string(gen_.stubs[0]) +
      R"(,"attacker":)" + std::to_string(gen_.tier2[0]) + "}";
  EXPECT_TRUE(MustParse(client.RoundTrip(detect)).Find("ok")->AsBool());
  EXPECT_TRUE(
      MustParse(client.RoundTrip(RouteLine(0, 0))).Find("ok")->AsBool());
  EXPECT_TRUE(
      MustParse(client.RoundTrip(R"({"op":"stats"})")).Find("ok")->AsBool());
  EXPECT_TRUE(
      MustParse(client.RoundTrip(R"({"op":"health"})")).Find("ok")->AsBool());

  // The wire answer is byte-identical to a direct Handle() call.
  EXPECT_EQ(client.RoundTrip(impact), service.Handle(impact));
  server.Stop();
}

TEST_F(ReactorTest, DeeplyNestedLineIsAnErrorNotACrash) {
  // 65,000 '[' fit under the 64 KiB line cap, so the whole line reaches the
  // JSON parser on a pool thread; its nesting cap answers an error, and the
  // same server keeps answering.
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");
  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  const std::string nested = client.RoundTrip(std::string(65000, '['));
  EXPECT_FALSE(MustParse(nested).Find("ok")->AsBool()) << nested;
  EXPECT_TRUE(
      MustParse(client.RoundTrip(R"({"op":"health"})")).Find("ok")->AsBool());
  server.Stop();
}

TEST_F(ReactorTest, PipelinedRequestsAnswerInOrder) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  std::vector<std::string> lines;
  for (int i = 0; i < 12; ++i) {
    lines.push_back(i % 2 == 0 ? ImpactLine(i % 3, i % 4)
                               : RouteLine(i % 5, i % 4));
  }
  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  std::string script;
  for (const std::string& line : lines) script += line + "\n";
  ASSERT_TRUE(client.SendRaw(script));
  for (const std::string& line : lines) {
    EXPECT_EQ(client.ReadLine(), service.Handle(line));
  }
  server.Stop();
}

// TSan target: several connections in flight at once, each response pinned
// against a single-threaded reference.
TEST_F(ReactorTest, ConcurrentConnectionsGetConsistentAnswers) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  QueryService reference(gen_.graph, {});
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.Port());
      if (!client.Connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 10; ++i) {
        const std::string line = RouteLine((c + i) % 8, c % 2);
        if (client.RoundTrip(line) != reference.Handle(line)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, 6u);
  EXPECT_EQ(stats.overload_rejects, 0u);
}

// Identical request bytes in, identical response bytes out: each script's
// served transcript against the in-process reference.
TEST_F(ReactorTest, TranscriptsAreByteIdenticalAcrossServers) {
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) lines.push_back(ImpactLine(i, i % 4));
  for (int i = 0; i < 4; ++i) lines.push_back(RouteLine(i + 6, i % 4));
  // Repeats answer from the result cache; the malformed line and the
  // reload-without-a-reloader error must also match byte for byte.
  for (int i = 0; i < 3; ++i) lines.push_back(ImpactLine(0, 0));
  lines.push_back(R"({"op":"impact","victim":1})");
  lines.push_back(R"({"op":"reload"})");
  lines.push_back(R"({"op":"health"})");
  std::string handwritten;
  for (const std::string& line : lines) handwritten += line + "\n";

  // The load generator's scripted workload over the fixture's ASNs: every
  // op but stats (its uptime varies), with repeats from the hot victim set.
  load::WorkloadOptions workload;
  workload.seed = 42;
  workload.as_count = static_cast<std::uint32_t>(gen_.graph.NumAses());
  workload.mix = "impact:50,route:25,detect:15,defense:5,health:5";
  const std::string generated = load::Workload(workload).Script(160);

  const std::pair<const std::string*, std::size_t> scripts[] = {
      {&handwritten, 16}, {&generated, 160}};
  for (const auto& [script, expected_lines] : scripts) {
    const std::string transcript = ServedTranscript(*script);
    std::size_t newlines = 0;
    for (char c : transcript) newlines += c == '\n' ? 1 : 0;
    EXPECT_EQ(newlines, expected_lines);
    EXPECT_EQ(transcript, ReferenceTranscript(*script));
  }
}

// Admission charges one slot per BATCH: a deep pipelined burst on a single
// connection is serialized work for one pool worker, and must pass untouched
// through max_inflight=1 (the per-line accounting regression).
TEST_F(ReactorTest, PipelinedBurstDoesNotTripBatchAdmission) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorOptions options;
  options.max_inflight = 1;
  ReactorServer server(&epochs, &pool_, options);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  std::string script;
  const int burst = 60;
  for (int i = 0; i < burst; ++i) {
    script += (i % 2 == 0 ? ImpactLine(i % 4, i % 3) : RouteLine(i % 6, i % 4)) +
              "\n";
  }
  ASSERT_TRUE(client.SendRaw(script));
  client.ShutdownWrite();
  int ok = 0;
  for (int i = 0; i < burst; ++i) {
    const std::string response = client.ReadLine();
    ASSERT_NE(response, "") << "dropped after " << i << " responses";
    EXPECT_EQ(response.find("overloaded"), std::string::npos) << response;
    if (MustParse(response).Find("ok")->AsBool()) ++ok;
  }
  EXPECT_EQ(ok, burst);
  EXPECT_EQ(server.Stats().overload_rejects, 0u);
  server.Stop();
}

TEST_F(ReactorTest, ShedsWholeBatchesWhenOverloaded) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorOptions options;
  options.max_inflight = 0;  // every batch is over the bound
  ReactorServer server(&epochs, &pool_, options);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  std::string script;
  for (int i = 0; i < 5; ++i) script += ImpactLine(i, 0) + "\n";
  ASSERT_TRUE(client.SendRaw(script));
  client.ShutdownWrite();
  for (int i = 0; i < 5; ++i) {
    const util::Json response = MustParse(client.ReadLine());
    EXPECT_FALSE(response.Find("ok")->AsBool());
    EXPECT_NE(response.Find("error")->AsString().find("overloaded"),
              std::string::npos);
  }
  EXPECT_EQ(client.ReadLine(), "");  // EOF after the drain
  EXPECT_GE(server.Stats().overload_rejects, 5u);
  server.Stop();
}

TEST_F(ReactorTest, RejectsConnectionsBeyondTheCap) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorOptions options;
  options.max_connections = 1;
  ReactorServer server(&epochs, &pool_, options);
  ASSERT_EQ(server.Start(), "");

  Client first(server.Port());
  ASSERT_TRUE(first.Connected());
  ASSERT_NE(first.RoundTrip(R"({"op":"health"})"), "");

  // The transport closes an over-cap connection at accept time without a
  // response line: the client reads EOF.
  Client second(server.Port());
  ASSERT_TRUE(second.Connected());
  second.Send(R"({"op":"health"})");
  EXPECT_EQ(second.ReadLine(), "");
  server.Stop();
}

// Connections are not threads: 280 held open at once on the fixture's
// 4-thread pool, each answering a health query, are all admitted. The test
// counts and never times, so it holds under sanitizers; its 560 in-process
// descriptors (client and server ends) stay under the common 1024 limit.
TEST_F(ReactorTest, AdmitsHeldOpenConnectionsFarBeyondPoolThreads) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  constexpr std::size_t kConnections = 280;
  std::vector<std::unique_ptr<Client>> held;
  for (std::size_t i = 0; i < kConnections; ++i) {
    held.push_back(std::make_unique<Client>(server.Port()));
    ASSERT_TRUE(held.back()->Connected()) << "connection " << i;
    const std::string reply = held.back()->RoundTrip(R"({"op":"health"})");
    ASSERT_NE(reply, "") << "connection " << i << " closed unanswered";
    ASSERT_TRUE(MustParse(reply).Find("ok")->AsBool()) << reply;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, kConnections);
  EXPECT_EQ(stats.overload_rejects, 0u);
  held.clear();
  server.Stop();
}

TEST_F(ReactorTest, StopDrainsWithoutTearingResponses) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  std::string script;
  for (int i = 0; i < 10; ++i) script += ImpactLine(i, i % 4) + "\n";
  ASSERT_TRUE(client.SendRaw(script));
  client.ShutdownWrite();
  server.Stop();  // drain: anything dispatched finishes and flushes

  // Whatever was answered before the drain must be whole lines — a graceful
  // stop never tears a response mid-byte.
  const std::string transcript = client.ReadAll();
  if (!transcript.empty()) {
    EXPECT_EQ(transcript.back(), '\n');
    std::size_t start = 0;
    while (start < transcript.size()) {
      const std::size_t end = transcript.find('\n', start);
      ASSERT_NE(end, std::string::npos);
      EXPECT_TRUE(
          MustParse(transcript.substr(start, end - start)).Find("ok") !=
          nullptr);
      start = end + 1;
    }
  }
}

// A client that already has its answer is closed by the drain, and a second
// Stop() is a no-op.
TEST_F(ReactorTest, StopClosesAnsweredClientsAndIsIdempotent) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  EXPECT_TRUE(MustParse(client.RoundTrip(ImpactLine(1, 1))).Find("ok")->AsBool());

  server.Stop();
  EXPECT_EQ(client.ReadLine(), "");  // connection closed by the drain
  const ServerStats stopped = server.Stats();
  server.Stop();
  EXPECT_EQ(server.Stats().accepted, stopped.accepted);
  EXPECT_EQ(server.Stats().connections, 0u);
}

// Start installs the server's Stats() as the stats provider of the service it
// serves, and the service outlives every server here. Stop must take the
// provider back out: a "stats" answer after the server is gone has no
// "server" object (and must not call into the destroyed server).
TEST_F(ReactorTest, StartStopCyclesDoNotLeakState) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  for (int i = 0; i < 3; ++i) {
    {
      ReactorServer server(&epochs, &pool_);
      ASSERT_EQ(server.Start(), "") << "cycle " << i;
      Client client(server.Port());
      ASSERT_TRUE(client.Connected());
      const util::Json served =
          MustParse(client.RoundTrip(R"({"op":"stats"})"));
      EXPECT_NE(served.Find("server"), nullptr) << "cycle " << i;
      server.Stop();
    }
    const util::Json after = MustParse(service.Handle(R"({"op":"stats"})"));
    EXPECT_TRUE(after.Find("ok")->AsBool());
    EXPECT_EQ(after.Find("server"), nullptr) << "cycle " << i;
  }
}

TEST_F(ReactorTest, StatsReportsReactorCounters) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 7));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  ASSERT_NE(client.RoundTrip(ImpactLine(0, 0)), "");
  const util::Json stats = MustParse(client.RoundTrip(R"({"op":"stats"})"));
  ASSERT_NE(stats.Find("server"), nullptr);
  EXPECT_EQ(stats.Find("server")->Find("kind")->AsString(), "reactor");
  EXPECT_EQ(stats.Find("epoch")->AsDouble(), 7.0);
  EXPECT_GE(stats.Find("server")->Find("batches")->AsDouble(), 1.0);
  EXPECT_GE(stats.Find("server")->Find("connections")->AsDouble(), 1.0);
  ASSERT_NE(stats.Find("latency"), nullptr);
  EXPECT_NE(stats.Find("latency")->Find("p999_us"), nullptr);
  server.Stop();
}

// --- wire contract -----------------------------------------------------------

// The client-visible contract asppi_serve has kept since its first TCP front
// end: one request per write, one response line per request, shedding with
// an "overloaded" error line, and a hard connection cap. Each case drives
// the server the way a plain line-at-a-time client does, where the
// ReactorTest cases above pipeline whole scripts.
class ServerTest : public ReactorTest {};

TEST_F(ServerTest, AnswersAllFiveOpsOverTcp) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");
  const int port = server.Port();
  ASSERT_GT(port, 0);

  Client client(port);
  ASSERT_TRUE(client.Connected());
  const std::string impact = ImpactLine(0, 0);
  const std::string detect =
      R"({"op":"detect","victim":)" + std::to_string(gen_.stubs[0]) +
      R"(,"attacker":)" + std::to_string(gen_.tier2[0]) + "}";
  for (const std::string& line :
       {impact, detect, RouteLine(0, 0), std::string(R"({"op":"stats"})"),
        std::string(R"({"op":"health"})")}) {
    EXPECT_TRUE(MustParse(client.RoundTrip(line)).Find("ok")->AsBool())
        << line;
  }

  // The wire answer is byte-identical to a direct Handle() call.
  EXPECT_EQ(client.RoundTrip(impact), service.Handle(impact));

  server.Stop();
  // Stopped means the listener is gone: a late client is refused outright or
  // reads EOF without an answer.
  Client late(port);
  if (late.Connected()) {
    late.Send(R"({"op":"health"})");
    EXPECT_EQ(late.ReadLine(), "");
  }
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) lines.push_back(RouteLine(i, 0));
  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  // One write per request, all sent before reading anything: however the
  // writes split into batches, responses come back in request order.
  for (const std::string& line : lines) ASSERT_TRUE(client.Send(line));
  for (const std::string& line : lines) {
    EXPECT_EQ(client.ReadLine(), service.Handle(line));
  }
  server.Stop();
}

TEST_F(ServerTest, ShedsLoadWithOverloadedResponses) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorOptions options;
  options.max_inflight = 0;  // every request is over budget
  ReactorServer server(&epochs, &pool_, options);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  // Shedding answers each request with an error line and keeps the
  // connection open, so the same client is shed again on its next request.
  for (int i = 0; i < 2; ++i) {
    const util::Json json = MustParse(client.RoundTrip(R"({"op":"health"})"));
    EXPECT_FALSE(json.Find("ok")->AsBool()) << "request " << i;
    EXPECT_EQ(json.Find("error")->AsString(), "overloaded") << "request " << i;
  }

  server.Stop();
  EXPECT_GE(server.Stats().overload_rejects, 2u);
}

TEST_F(ServerTest, RejectsConnectionsBeyondTheCap) {
  QueryService service(gen_.graph, {});
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service, 1));
  ReactorOptions options;
  options.max_connections = 1;
  ReactorServer server(&epochs, &pool_, options);
  ASSERT_EQ(server.Start(), "");

  Client first(server.Port());
  ASSERT_TRUE(first.Connected());
  // Pin the slot with a real round trip so the acceptor has surely seen it.
  ASSERT_NE(first.RoundTrip(R"({"op":"health"})"), "");

  // The over-cap connection is closed at accept time without a response
  // line (no "overloaded" line first): the client reads EOF.
  Client second(server.Port());
  ASSERT_TRUE(second.Connected());
  second.Send(R"({"op":"health"})");
  EXPECT_EQ(second.ReadLine(), "");

  // The admitted connection keeps its slot and its service; the reject is
  // counted as an overload, not as an accepted connection.
  EXPECT_TRUE(
      MustParse(first.RoundTrip(R"({"op":"health"})")).Find("ok")->AsBool());
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_GE(stats.overload_rejects, 1u);
  server.Stop();
}

// --- hot reload --------------------------------------------------------------

// Two services over the same graph whose answers differ (default λ 2 vs 6),
// so every response byte-identifies the epoch that served it.
class ReactorReloadTest : public ReactorTest {
 protected:
  ReactorReloadTest()
      : service_a_(gen_.graph, {}, OptionsWithLambda(2)),
        service_b_(gen_.graph, {}, OptionsWithLambda(6)) {}

  static ServiceOptions OptionsWithLambda(int lambda) {
    ServiceOptions options;
    options.default_lambda = lambda;
    return options;
  }

  QueryService service_a_;
  QueryService service_b_;
};

TEST_F(ReactorReloadTest, ReloadSwapsEpochsWithoutDroppingQueries) {
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service_a_, 1));
  epochs.SetReloader([this](std::uint64_t next_id,
                            std::shared_ptr<Epoch>* out) {
    *out = MakeUnownedEpoch(&service_b_, next_id);
    return std::string();
  });
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  const std::string line = ImpactLine(0, 0);
  const std::string from_a = service_a_.Handle(line);
  const std::string from_b = service_b_.Handle(line);
  ASSERT_NE(from_a, from_b) << "λ must steer the impact answer";

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  EXPECT_EQ(client.RoundTrip(line), from_a);

  // The admin op swaps generations over the query wire protocol; the
  // response names the new epoch.
  const util::Json ack = MustParse(client.RoundTrip(R"({"op":"reload"})"));
  EXPECT_TRUE(ack.Find("ok")->AsBool());
  EXPECT_EQ(ack.Find("epoch")->AsDouble(), 2.0);
  EXPECT_EQ(epochs.CurrentId(), 2u);

  // Every query after the acknowledged swap answers from the new epoch.
  EXPECT_EQ(client.RoundTrip(line), from_b);
  Client fresh(server.Port());
  ASSERT_TRUE(fresh.Connected());
  EXPECT_EQ(fresh.RoundTrip(line), from_b);
  server.Stop();
}

// A batch's lines run in request order, admin lines included: a stats line
// pipelined ahead of a reload reports the epoch it ran under, and one behind
// it the new epoch (stats reads the current epoch id live).
TEST_F(ReactorReloadTest, AdminLinesRunAtTheirBatchPosition) {
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service_a_, 1));
  epochs.SetReloader([this](std::uint64_t next_id,
                            std::shared_ptr<Epoch>* out) {
    *out = MakeUnownedEpoch(&service_b_, next_id);
    return std::string();
  });
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  Client client(server.Port());
  ASSERT_TRUE(client.Connected());
  const std::string stats = R"({"op":"stats"})";
  ASSERT_TRUE(
      client.SendRaw(stats + "\n" + R"({"op":"reload"})" + "\n" + stats + "\n"));
  for (const double epoch : {1.0, 2.0, 2.0}) {
    const util::Json response = MustParse(client.ReadLine());
    ASSERT_NE(response.Find("epoch"), nullptr);
    EXPECT_EQ(response.Find("epoch")->AsDouble(), epoch);
  }
  server.Stop();
}

// TSan target: clients hammer queries while another thread swaps epochs.
// Every response must be byte-identical to one of the two generations'
// answers — never empty, never torn, never a blend.
TEST_F(ReactorReloadTest, ConcurrentEpochSwapAndQueriesAreRaceFree) {
  EpochManager epochs;
  epochs.Install(MakeUnownedEpoch(&service_a_, 1));
  std::atomic<std::uint64_t> flips{0};
  epochs.SetReloader([this, &flips](std::uint64_t next_id,
                                    std::shared_ptr<Epoch>* out) {
    QueryService* next =
        flips.fetch_add(1) % 2 == 0 ? &service_b_ : &service_a_;
    *out = MakeUnownedEpoch(next, next_id);
    return std::string();
  });
  ReactorServer server(&epochs, &pool_);
  ASSERT_EQ(server.Start(), "");

  const std::vector<std::string> lines = {ImpactLine(0, 0), RouteLine(1, 1)};
  std::vector<std::vector<std::string>> expected;
  for (const std::string& line : lines) {
    expected.push_back({service_a_.Handle(line), service_b_.Handle(line)});
  }

  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_EQ(epochs.Reload(), "");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.Port());
      if (!client.Connected()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 40; ++i) {
        const std::size_t pick = static_cast<std::size_t>((c + i) % 2);
        const std::string response = client.RoundTrip(lines[pick]);
        if (response != expected[pick][0] && response != expected[pick][1]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  done.store(true, std::memory_order_release);
  swapper.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(epochs.ReloadCount(), 1u);
  server.Stop();
}

}  // namespace
}  // namespace asppi::serve
