// Tests for the partition service: wire protocol round-trips, admission
// control, the placement cache, the daemon's graceful drain and buffer
// bounds, and the serving determinism contract (served placements are
// bit-identical to the same request run offline).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "runtime/thread_pool.h"
#include "service/admission.h"
#include "service/handler.h"
#include "service/placement_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "telemetry/metrics.h"

namespace mcm::service {
namespace {

std::string SmallGraphText() {
  Graph g("svc");
  for (int i = 0; i < 8; ++i) {
    g.AddNode(OpType::kMatMul, "n" + std::to_string(i), 1e6, 4096);
    if (i > 0) g.AddEdge(i - 1, i);
  }
  std::ostringstream os;
  g.Serialize(os);
  return os.str();
}

PartitionRequest SmallRequest(std::uint64_t seed = 1,
                              RequestMode mode = RequestMode::kSolver) {
  PartitionRequest request;
  request.id = "t" + std::to_string(seed);
  request.mode = mode;
  request.graph_text = SmallGraphText();
  request.chips = 4;
  request.budget = 8;
  request.seed = seed;
  return request;
}

// The bit-identity contract covers the placement and its cost breakdown;
// the correlation id is per-caller and batch_size/cached are diagnostic.
// Normalize those three before comparing responses.
PartitionResponse Normalized(PartitionResponse response) {
  response.id.clear();
  response.batch_size = 1;
  response.cached = false;
  return response;
}

// ---- Protocol ---------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTripsThroughEncodeAndParse) {
  PartitionRequest request = SmallRequest(42, RequestMode::kSearch);
  request.method = "sa";
  request.model = "hwsim";
  request.objective = "latency";
  request.deadline_ms = 1500;

  const std::string line = EncodeRequest(request);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  PartitionRequest parsed;
  std::string error;
  ASSERT_TRUE(ParseRequest(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed, request);
}

TEST(ProtocolTest, ResponseRoundTripsThroughEncodeAndParse) {
  PartitionResponse response;
  response.id = "r/\"quoted\"\n";
  response.ok = true;
  response.assignment = {0, 1, 1, 2, 3, 0};
  response.num_chips = 4;
  response.improvement = 1.25;
  response.runtime_s = 3.5e-4;
  response.latency_s = 7.0e-4;
  response.throughput = 2857.14;
  response.baseline_runtime_s = 4.375e-4;
  response.cached = true;
  response.batch_size = 3;

  PartitionResponse parsed;
  std::string error;
  ASSERT_TRUE(ParseResponse(EncodeResponse(response), &parsed, &error))
      << error;
  EXPECT_EQ(parsed, response);
}

TEST(ProtocolTest, ErrorResponseRoundTrips) {
  const PartitionResponse error_response =
      MakeErrorResponse("req-9", "queue full", 40);
  PartitionResponse parsed;
  std::string error;
  ASSERT_TRUE(
      ParseResponse(EncodeResponse(error_response), &parsed, &error));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.error, "queue full");
  EXPECT_EQ(parsed.retry_after_ms, 40);
}

TEST(ProtocolTest, EncodingIsDeterministic) {
  const PartitionRequest request = SmallRequest(7);
  EXPECT_EQ(EncodeRequest(request), EncodeRequest(request));
}

TEST(ProtocolTest, MalformedInputIsRejected) {
  PartitionRequest request;
  std::string error;
  EXPECT_FALSE(ParseRequest("", &request, &error));
  EXPECT_FALSE(ParseRequest("{", &request, &error));
  EXPECT_FALSE(ParseRequest("[1,2]", &request, &error));
  EXPECT_FALSE(ParseRequest("{\"graph\": \"g\"} trailing", &request, &error));
  EXPECT_FALSE(ParseRequest("{\"chips\": 4}", &request, &error))
      << "a request without a graph must be rejected";
  EXPECT_FALSE(ParseRequest("{\"graph\": \"g\", \"mode\": \"bogus\"}",
                            &request, &error));
  // Numbers must be integers in range before they are cast.
  for (const char* field : {
           "\"chips\": 1e30", "\"chips\": 2.5", "\"chips\": \"4\"",
           "\"budget\": -1e30", "\"budget\": 3000000000",
           "\"seed\": 1e30", "\"seed\": 9007199254740992",
           "\"seed\": -1", "\"seed\": 0.5", "\"deadline_ms\": 1e300",
           "\"deadline_ms\": -5", "\"deadline_ms\": 1.5"}) {
    const std::string line =
        std::string("{\"graph\": \"g\", ") + field + "}";
    EXPECT_FALSE(ParseRequest(line, &request, &error)) << line;
    EXPECT_NE(error, "") << line;
  }
  ASSERT_TRUE(ParseRequest(
      "{\"graph\": \"g\", \"chips\": 36, \"budget\": 0, "
      "\"seed\": 9007199254740991, \"deadline_ms\": 250}",
      &request, &error))
      << error;
  EXPECT_EQ(request.chips, 36);
  EXPECT_EQ(request.budget, 0);
  EXPECT_EQ(request.seed, 9007199254740991ULL);
  EXPECT_EQ(request.deadline_ms, 250);
}

TEST(ProtocolTest, CacheKeyDiscriminatesEveryPlacementShapingField) {
  const PartitionRequest base = SmallRequest(1);
  EXPECT_EQ(RequestCacheKey(base), RequestCacheKey(base));

  PartitionRequest other = base;
  other.id = "different-id";  // Correlation id must NOT change the key.
  EXPECT_EQ(RequestCacheKey(base), RequestCacheKey(other));

  other = base;
  other.seed += 1;
  EXPECT_NE(RequestCacheKey(base), RequestCacheKey(other));
  other = base;
  other.chips += 1;
  EXPECT_NE(RequestCacheKey(base), RequestCacheKey(other));
  other = base;
  other.mode = RequestMode::kSearch;
  EXPECT_NE(RequestCacheKey(base), RequestCacheKey(other));
  other = base;
  other.graph_text += "x";
  EXPECT_NE(RequestCacheKey(base), RequestCacheKey(other));
  other = base;
  other.deadline_ms = 100;
  EXPECT_NE(RequestCacheKey(base), RequestCacheKey(other));
}

// ---- Admission control ------------------------------------------------------

TEST(AdmissionQueueTest, RejectsWhenFull) {
  AdmissionQueue queue(2);
  QueuedRequest item;
  item.request = SmallRequest(1);
  EXPECT_TRUE(queue.TryPush(item));
  EXPECT_TRUE(queue.TryPush(item));
  EXPECT_FALSE(queue.TryPush(item)) << "third push must hit the depth limit";
  EXPECT_EQ(queue.size(), 2u);

  // Popping frees room again.
  QueuedRequest popped;
  EXPECT_TRUE(queue.Pop(&popped));
  EXPECT_TRUE(queue.TryPush(item));
}

TEST(AdmissionQueueTest, PopDrainsInAdmissionOrderThenStops) {
  AdmissionQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    QueuedRequest item;
    item.request = SmallRequest(static_cast<std::uint64_t>(i));
    item.sequence = i;
    ASSERT_TRUE(queue.TryPush(std::move(item)));
  }
  queue.Close();
  EXPECT_FALSE(queue.TryPush(QueuedRequest{})) << "closed queue rejects";

  QueuedRequest item;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Pop(&item));
    EXPECT_EQ(item.sequence, i);
  }
  EXPECT_FALSE(queue.Pop(&item)) << "closed + drained: stop signal";
}

TEST(AdmissionQueueTest, RetryAfterHintIsDeterministicAndBounded) {
  AdmissionQueue queue(128);
  EXPECT_EQ(queue.RetryAfterMs(2), queue.RetryAfterMs(2));
  for (const int executors : {1, 2, 8}) {
    const std::int64_t hint = queue.RetryAfterMs(executors);
    EXPECT_GE(hint, 10);
    EXPECT_LE(hint, 5000);
  }
}

// ---- Handler ----------------------------------------------------------------

TEST(HandlerTest, ExecutesEveryModeAndReportsCosts) {
  for (const RequestMode mode :
       {RequestMode::kSolver, RequestMode::kSearch, RequestMode::kZeroShot,
        RequestMode::kFinetune}) {
    const PartitionRequest request = SmallRequest(3, mode);
    const PartitionResponse response =
        ExecutePartitionRequest(request, nullptr);
    ASSERT_TRUE(response.ok) << RequestModeName(mode) << ": "
                             << response.error;
    EXPECT_EQ(response.id, request.id);
    EXPECT_EQ(static_cast<int>(response.assignment.size()), 8);
    EXPECT_EQ(response.num_chips, 4);
    EXPECT_GT(response.runtime_s, 0.0);
    EXPECT_GT(response.baseline_runtime_s, 0.0);
    EXPECT_GT(response.improvement, 0.0);
  }
}

TEST(HandlerTest, IsDeterministicAcrossRepeatedExecution) {
  const PartitionRequest request = SmallRequest(11, RequestMode::kSearch);
  const PartitionResponse a = ExecutePartitionRequest(request, nullptr);
  const PartitionResponse b = ExecutePartitionRequest(request, nullptr);
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a, b);
}

TEST(HandlerTest, InvalidRequestsFailSoftly) {
  PartitionRequest request = SmallRequest(1);
  request.chips = 0;
  EXPECT_FALSE(ExecutePartitionRequest(request, nullptr).ok);

  request = SmallRequest(1);
  request.graph_text = "not a graph";
  const PartitionResponse response =
      ExecutePartitionRequest(request, nullptr);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());

  request = SmallRequest(1);
  request.model = "quantum";
  EXPECT_FALSE(ExecutePartitionRequest(request, nullptr).ok);
}

TEST(HandlerTest, DeadlineKeepsResultsDeterministic) {
  PartitionRequest request = SmallRequest(5, RequestMode::kSearch);
  request.deadline_ms = 2000;
  const PartitionResponse a = ExecutePartitionRequest(request, nullptr);
  const PartitionResponse b = ExecutePartitionRequest(request, nullptr);
  ASSERT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a, b);
}

TEST(HandlerTest, CheckpointShapeConfigRejectsUnknownShape) {
  EXPECT_EQ(CheckpointShapeConfig("quick", 6).num_chips, 6);
  EXPECT_EQ(CheckpointShapeConfig("pretrain", 8).hidden_dim, 16);
  EXPECT_THROW(CheckpointShapeConfig("bogus", 8), std::runtime_error);
}

// ---- Placement cache --------------------------------------------------------

TEST(PlacementCacheTest, EvictsLeastRecentlyUsed) {
  PlacementCache cache(2);
  PartitionResponse response;
  response.ok = true;
  response.assignment = {0, 1};
  cache.Insert("a", response);
  cache.Insert("b", response);

  // Touch "a" so "b" is the LRU victim when "c" arrives.
  PartitionResponse out;
  ASSERT_TRUE(cache.Lookup("a", "id", &out));
  cache.Insert("c", response);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("a", "id", &out));
  EXPECT_FALSE(cache.Lookup("b", "id", &out)) << "LRU entry must be evicted";
  EXPECT_TRUE(cache.Lookup("c", "id", &out));
}

TEST(PlacementCacheTest, FailedResponsesAreNeverCached) {
  PlacementCache cache(4);
  cache.Insert("k", MakeErrorResponse("id", "transient overload"));
  PartitionResponse out;
  EXPECT_FALSE(cache.Lookup("k", "id", &out));
}

TEST(PlacementCacheTest, ZeroCapacityDisablesCaching) {
  PlacementCache cache(0);
  PartitionResponse response;
  response.ok = true;
  cache.Insert("k", response);
  PartitionResponse out;
  EXPECT_FALSE(cache.Lookup("k", "id", &out));
}

// ---- Daemon (Unix domain socket) --------------------------------------------

class ServerFixture {
 public:
  explicit ServerFixture(ServerConfig config) {
    if (config.socket_path.empty()) {
      config.socket_path =
          (std::filesystem::temp_directory_path() /
           ("mcm_service_test_" + std::to_string(getpid()) + ".sock"))
              .string();
    }
    server_ = std::make_unique<Server>(config);
    server_->Start();
    thread_ = std::thread([this] {
      server_->Run();
      run_returned_.set_value();
    });
  }

  ~ServerFixture() {
    server_->Shutdown();
    thread_.join();
  }

  Server& server() { return *server_; }
  const std::string& socket_path() {
    return server_->config().socket_path;
  }

  // Requests the drain and waits up to `timeout` for Run() to return.
  bool ShutdownWithin(std::chrono::seconds timeout) {
    server_->Shutdown();
    return run_returned_future_.wait_for(timeout) ==
           std::future_status::ready;
  }

 private:
  std::unique_ptr<Server> server_;
  std::promise<void> run_returned_;
  std::future<void> run_returned_future_ = run_returned_.get_future();
  std::thread thread_;
};

// A plain socket connected to the daemon, for tests that speak raw bytes.
int ConnectRaw(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Pipelines malformed lines on the non-blocking `fd` and never reads the
// error responses.  Each response is far longer than its line, so the server
// reaches kMaxRequestLineBytes of unsent responses after about 1 MB of input,
// stops reading, and the socket buffers fill: the sends must stall well
// before kSendLimit.  Returns the number of complete lines sent once they
// stalled, or 0 if they did not.
std::size_t StallWithUnreadResponses(int fd) {
  constexpr std::size_t kSendLimit = std::size_t{8} << 20;
  std::string lines;
  for (int i = 0; i < 4096; ++i) lines += "x\n";
  std::size_t sent = 0;
  std::size_t newlines = 0;  // Every send starts at a line boundary.
  while (sent < kSendLimit) {
    const ssize_t n = send(fd, lines.data(), lines.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      newlines += static_cast<std::size_t>(n) / 2;
      continue;
    }
    const bool would_block =
        n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
    if (!would_block) {
      ADD_FAILURE() << std::strerror(errno);
      return 0;
    }
    pollfd writable{fd, POLLOUT, 0};
    if (poll(&writable, 1, /*timeout_ms=*/1000) == 0) return newlines;
  }
  ADD_FAILURE() << "sent " << sent << " bytes without stalling";
  return 0;
}

TEST(ServerTest, DefaultExecutorsAreOneMoreThanTheDefaultThreads) {
  const Server server(ServerConfig{});
  EXPECT_EQ(server.config().executors, DefaultThreadCount() + 1);
}

TEST(ServerTest, ServesRequestsOverUnixSocket) {
  ServerFixture fixture(ServerConfig{});
  ServiceClient client(fixture.socket_path());
  const PartitionRequest request = SmallRequest(31, RequestMode::kSearch);
  const PartitionResponse response = client.Call(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.id, request.id);
  EXPECT_EQ(static_cast<int>(response.assignment.size()), 8);
}

TEST(ServerTest, ServedPlacementIsBitIdenticalToOfflineExecution) {
  for (const int executors : {0, 1}) {  // The default count, then one.
    ServerConfig config;
    config.executors = executors;
    ServerFixture fixture(config);
    ServiceClient client(fixture.socket_path());
    for (const RequestMode mode :
         {RequestMode::kSolver, RequestMode::kSearch,
          RequestMode::kZeroShot}) {
      const PartitionRequest request = SmallRequest(37, mode);
      const PartitionResponse served = client.Call(request);
      const PartitionResponse offline =
          ExecutePartitionRequest(request, nullptr);
      ASSERT_TRUE(served.ok) << served.error;
      EXPECT_EQ(Normalized(served), Normalized(offline))
          << "executors " << executors << ", mode " << RequestModeName(mode);
    }
  }
}

TEST(PlacementCacheTest, HitReturnsIdenticalPlacementWithoutReEvaluation) {
  ServerFixture fixture(ServerConfig{});
  ServiceClient client(fixture.socket_path());
  PartitionRequest request = SmallRequest(21, RequestMode::kSearch);
  const PartitionResponse first = client.Call(request);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.cached);

  request.id = "second-call";
  const std::int64_t executed_before =
      telemetry::Counter::Get("service/executed").Value();
  const PartitionResponse second = client.Call(request);
  const std::int64_t executed_after =
      telemetry::Counter::Get("service/executed").Value();
  EXPECT_EQ(executed_after, executed_before)
      << "a cache hit must not re-execute the request";
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.id, "second-call") << "hit re-stamps the caller's id";
  EXPECT_EQ(Normalized(second), Normalized(first))
      << "cached placement must be bit-identical to the original";
  EXPECT_EQ(fixture.server().cache()->hits(), 1);
}

TEST(ServerTest, MalformedLineGetsAnErrorResponseNotADisconnect) {
  ServerFixture fixture(ServerConfig{});
  ServiceClient client(fixture.socket_path());

  // Hand-rolled bad line via the pipelined API is not possible (Send
  // encodes), so open a raw check through the protocol: an unparsable
  // request must produce ok=false while keeping the connection usable.
  PartitionRequest bad = SmallRequest(1);
  bad.graph_text = "definitely not a graph";
  const PartitionResponse error_response = client.Call(bad);
  EXPECT_FALSE(error_response.ok);

  const PartitionResponse good = client.Call(SmallRequest(2));
  EXPECT_TRUE(good.ok) << good.error;
}

TEST(ServerTest, HostileGraphGetsAnErrorResponseNotAnAbort) {
  ServerFixture fixture(ServerConfig{});
  ServiceClient client(fixture.socket_path());
  PartitionRequest cyclic = SmallRequest(1);
  cyclic.graph_text =
      "graph g\nnodes 2\nnode 0 0 1 1 1 a\nnode 1 0 1 1 1 b\n"
      "edges 2\nedge 0 1\nedge 1 0\nend\n";
  const PartitionResponse rejected = client.Call(cyclic);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("cycle"), std::string::npos)
      << rejected.error;

  PartitionRequest oversized = SmallRequest(3);
  oversized.graph_text =
      "graph g\nnodes " + std::to_string(kMaxGraphNodes + 1) + "\n";
  const PartitionResponse refused = client.Call(oversized);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("too many nodes"), std::string::npos)
      << refused.error;

  const PartitionResponse good = client.Call(SmallRequest(2));
  EXPECT_TRUE(good.ok) << good.error;
}

TEST(ServerTest, OverlongLineGetsAnErrorAndACloseThenServerKeepsServing) {
  ServerFixture fixture(ServerConfig{});
  const int fd = ConnectRaw(fixture.socket_path());
  ASSERT_GE(fd, 0) << std::strerror(errno);
  // Without the cap the server would never answer; fail instead of hang.
  const timeval timeout{30, 0};
  ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
            0);

  // One byte past the cap, never a newline.
  const std::string flood(kMaxRequestLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = send(fd, flood.data() + sent, flood.size() - sent,
                           MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(n);
  }

  std::string received;
  char buffer[4096];
  while (true) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GE(n, 0) << std::strerror(errno);
    if (n == 0) break;  // EOF: the server closed the connection.
    received.append(buffer, static_cast<std::size_t>(n));
  }
  close(fd);
  ASSERT_FALSE(received.empty());
  ASSERT_EQ(received.back(), '\n');
  PartitionResponse error_response;
  std::string parse_error;
  ASSERT_TRUE(ParseResponse(received.substr(0, received.size() - 1),
                            &error_response, &parse_error))
      << parse_error;
  EXPECT_FALSE(error_response.ok);
  EXPECT_EQ(error_response.error, "request line too long");

  ServiceClient client(fixture.socket_path());
  const PartitionResponse good = client.Call(SmallRequest(3));
  EXPECT_TRUE(good.ok) << good.error;
}

TEST(ServerTest, ClientThatNeverReadsStallsWithoutStarvingOthers) {
  ServerFixture fixture(ServerConfig{});
  const int fd = ConnectRaw(fixture.socket_path());
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ASSERT_EQ(fcntl(fd, F_SETFL, O_NONBLOCK), 0);
  EXPECT_GT(StallWithUnreadResponses(fd), 0u);

  ServiceClient client(fixture.socket_path());
  const PartitionResponse good = client.Call(SmallRequest(4));
  EXPECT_TRUE(good.ok) << good.error;
  close(fd);  // Lets the drain finish: its responses are abandoned.
}

TEST(ServerTest, StalledClientGetsEveryResponseOnceItReads) {
  ServerFixture fixture(ServerConfig{});
  const int fd = ConnectRaw(fixture.socket_path());
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ASSERT_EQ(fcntl(fd, F_SETFL, O_NONBLOCK), 0);
  const std::size_t lines = StallWithUnreadResponses(fd);
  ASSERT_GT(lines, 0u);

  // Lines the server read past its write bound wait for the unsent
  // responses to drain; none is dropped.
  std::size_t responses = 0;
  char buffer[1 << 16];
  while (responses < lines) {
    pollfd readable{fd, POLLIN, 0};
    if (poll(&readable, 1, /*timeout_ms=*/5000) <= 0) break;
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    responses +=
        static_cast<std::size_t>(std::count(buffer, buffer + n, '\n'));
  }
  close(fd);
  EXPECT_EQ(responses, lines);
}

TEST(ServerTest, DrainDropsResponsesAClientNeverReadsAfterTheFlushDeadline) {
  telemetry::Counter& dropped =
      telemetry::Counter::Get("service/drain_dropped_bytes");
  const std::int64_t dropped_before = dropped.Value();
  ServerFixture fixture(ServerConfig{});
  const int fd = ConnectRaw(fixture.socket_path());
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ASSERT_EQ(fcntl(fd, F_SETFL, O_NONBLOCK), 0);
  EXPECT_GT(StallWithUnreadResponses(fd), 0u);

  // The stalled client keeps its socket open and never reads, so only the
  // flush deadline can end the drain.
  const bool returned = fixture.ShutdownWithin(std::chrono::seconds(10));
  close(fd);  // When the drain hangs, this lets it finish so the test exits.
  EXPECT_TRUE(returned) << "Run() still draining 10 s after Shutdown()";

  // The drain's final read pass honours the write bound: what it drops is
  // at most the bound plus the one response line that crossed it.
  PartitionRequest unused;
  std::string parse_error;
  ASSERT_FALSE(ParseRequest("x", &unused, &parse_error));
  const std::size_t response_line =
      EncodeResponse(MakeErrorResponse(unused.id, "bad request: " +
                                                      parse_error))
          .size() +
      1;
  const std::int64_t dropped_bytes = dropped.Value() - dropped_before;
  EXPECT_GT(dropped_bytes, 0);
  EXPECT_LE(dropped_bytes,
            static_cast<std::int64_t>(kMaxRequestLineBytes + response_line));
}

TEST(ServerTest, SecondServerInTheProcessServesUntilItsOwnShutdown) {
  // Shutdown() of the first server must not drain the second.  A server
  // that drains at once closes its socket on the first loop pass; the pause
  // lets that happen, so the bug fails the connect instead of hanging.
  for (int round = 0; round < 2; ++round) {
    ServerFixture fixture(ServerConfig{});
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ServiceClient client(fixture.socket_path());
    const PartitionResponse response = client.Call(SmallRequest(40 + round));
    EXPECT_TRUE(response.ok) << "server " << round << ": " << response.error;
  }
}

TEST(ServerTest, DrainCompletesInFlightRequests) {
  ServerConfig config;
  config.executors = 2;
  config.cache_capacity = 0;  // Every request does real work.
  ServerFixture fixture(config);
  ServiceClient client(fixture.socket_path());

  // Pipeline several slow requests, wait for the first response (so the
  // server is demonstrably mid-stream), then request shutdown while the
  // rest are in flight.  Every request sent before Shutdown must get an
  // explicit response: a full result if it was admitted, a retry-after
  // rejection if it raced the drain gate -- never a silent drop.
  constexpr int kInFlight = 6;
  auto request_for = [](int i) {
    PartitionRequest request =
        SmallRequest(static_cast<std::uint64_t>(100 + i),
                     RequestMode::kSearch);
    request.id = "drain" + std::to_string(i);
    request.budget = 4000;
    return request;
  };
  for (int i = 0; i < kInFlight; ++i) client.Send(request_for(i));

  const PartitionResponse first = client.ReadResponse();
  ASSERT_TRUE(first.ok) << first.error;
  fixture.server().Shutdown();

  int ok = 1;
  for (int i = 1; i < kInFlight; ++i) {
    const PartitionResponse response = client.ReadResponse();
    if (response.ok) {
      ++ok;
      EXPECT_EQ(Normalized(response),
                Normalized(ExecutePartitionRequest(
                    request_for(std::stoi(response.id.substr(5))), nullptr)))
          << "drained response must match offline execution";
    } else {
      EXPECT_GT(response.retry_after_ms, 0) << response.error;
    }
  }
  EXPECT_GE(ok, 1) << "already-admitted requests must finish";
}

TEST(ServerTest, QueueFullRejectsWithRetryAfter) {
  ServerConfig config;
  config.queue_depth = 1;
  config.executors = 1;
  config.cache_capacity = 0;
  ServerFixture fixture(config);
  ServiceClient client(fixture.socket_path());

  // Flood far past the queue depth in one burst.  With depth 1 and slow
  // search requests, some must bounce with a retry-after hint.
  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i) {
    PartitionRequest request = SmallRequest(
        static_cast<std::uint64_t>(200 + i), RequestMode::kSearch);
    request.id = "burst" + std::to_string(i);
    request.budget = 4000;  // Slow enough that the burst outpaces execution.
    client.Send(request);
  }
  int rejected = 0;
  int completed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const PartitionResponse response = client.ReadResponse();
    if (response.ok) {
      ++completed;
    } else {
      ++rejected;
      EXPECT_GT(response.retry_after_ms, 0)
          << "rejection must carry a retry-after hint: " << response.error;
    }
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(rejected, 0) << "burst of " << kBurst
                         << " must overflow a depth-1 queue";
}

}  // namespace
}  // namespace mcm::service
