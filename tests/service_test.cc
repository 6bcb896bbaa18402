// Tests for the partition service: wire protocol round-trips, admission
// control, micro-batching determinism, the placement cache, the daemon's
// graceful drain, and the serving determinism contract (served placements
// are bit-identical to the same request run offline).
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "runtime/thread_pool.h"
#include "service/admission.h"
#include "service/batcher.h"
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
  EXPECT_EQ(queue.PopBatch(1).size(), 1u);
  EXPECT_TRUE(queue.TryPush(item));
}

TEST(AdmissionQueueTest, PopBatchDrainsInAdmissionOrderThenStops) {
  AdmissionQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    QueuedRequest item;
    item.request = SmallRequest(static_cast<std::uint64_t>(i));
    item.sequence = i;
    ASSERT_TRUE(queue.TryPush(std::move(item)));
  }
  queue.Close();
  EXPECT_FALSE(queue.TryPush(QueuedRequest{})) << "closed queue rejects";

  const std::vector<QueuedRequest> first = queue.PopBatch(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].sequence, 0);
  EXPECT_EQ(first[2].sequence, 2);
  EXPECT_EQ(queue.PopBatch(16).size(), 2u);
  EXPECT_TRUE(queue.PopBatch(16).empty()) << "closed + drained: stop signal";
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

// ---- Micro-batcher ----------------------------------------------------------

TEST(BatcherTest, FormBatchesCoalescesCompatibleRuns) {
  std::vector<QueuedRequest> items;
  auto push = [&](RequestMode mode, int chips) {
    QueuedRequest item;
    item.request = SmallRequest(items.size() + 1, mode);
    item.request.chips = chips;
    items.push_back(std::move(item));
  };
  push(RequestMode::kZeroShot, 4);
  push(RequestMode::kZeroShot, 4);   // Coalesces with the first.
  push(RequestMode::kZeroShot, 8);   // Different shape: new batch.
  push(RequestMode::kFinetune, 8);   // Heavy mode: singleton.
  push(RequestMode::kFinetune, 8);   // Still a singleton.
  push(RequestMode::kSolver, 4);

  const auto batches = FormBatches(items, 8);
  ASSERT_EQ(batches.size(), 5u);
  EXPECT_EQ(batches[0].size(), 2u);
  EXPECT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[2].size(), 1u);
  EXPECT_EQ(batches[3].size(), 1u);
  EXPECT_EQ(batches[4].size(), 1u);
  // Admission order is preserved across the split.
  EXPECT_EQ(batches[0][1].request.id, items[1].request.id);
  EXPECT_EQ(batches[4][0].request.id, items[5].request.id);
}

TEST(BatcherTest, FormBatchesHonorsMaxBatch) {
  std::vector<QueuedRequest> items;
  for (int i = 0; i < 7; ++i) {
    QueuedRequest item;
    item.request = SmallRequest(static_cast<std::uint64_t>(i),
                                RequestMode::kZeroShot);
    items.push_back(std::move(item));
  }
  const auto batches = FormBatches(items, 3);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[1].size(), 3u);
  EXPECT_EQ(batches[2].size(), 1u);
}

TEST(BatcherTest, BatchedExecutionIsBitIdenticalToUnbatched) {
  ThreadPool pool(4);
  MicroBatcher batcher(pool, /*cache=*/nullptr, /*warm_start=*/nullptr);

  std::vector<QueuedRequest> batch;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QueuedRequest item;
    item.request = SmallRequest(seed, RequestMode::kZeroShot);
    batch.push_back(std::move(item));
  }
  const std::vector<PartitionResponse> batched = batcher.ExecuteBatch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PartitionResponse solo =
        ExecutePartitionRequest(batch[i].request, nullptr);
    ASSERT_TRUE(batched[i].ok) << batched[i].error;
    EXPECT_EQ(batched[i].batch_size, 5);
    EXPECT_EQ(Normalized(batched[i]), Normalized(solo))
        << "request " << i << " differs between batched and solo execution";
  }
}

TEST(BatcherTest, DuplicateRequestsExecuteOnceAndShareTheResult) {
  ThreadPool pool(2);
  PlacementCache cache(16);
  MicroBatcher batcher(pool, &cache, nullptr);

  std::vector<QueuedRequest> batch;
  for (int i = 0; i < 4; ++i) {
    QueuedRequest item;
    item.request = SmallRequest(9, RequestMode::kSolver);  // Identical work.
    item.request.id = "dup" + std::to_string(i);
    batch.push_back(std::move(item));
  }
  const std::int64_t executed_before =
      telemetry::Counter::Get("service/executed").Value();
  const std::vector<PartitionResponse> responses =
      batcher.ExecuteBatch(batch);
  const std::int64_t executed_after =
      telemetry::Counter::Get("service/executed").Value();
  EXPECT_EQ(executed_after - executed_before, 1)
      << "four identical requests must collapse to one execution";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(responses[static_cast<std::size_t>(i)].ok);
    EXPECT_EQ(responses[static_cast<std::size_t>(i)].id,
              "dup" + std::to_string(i));
    EXPECT_EQ(Normalized(responses[static_cast<std::size_t>(i)]),
              Normalized(responses[0]));
  }
}

// ---- Placement cache --------------------------------------------------------

TEST(PlacementCacheTest, HitReturnsIdenticalPlacementWithoutReEvaluation) {
  ThreadPool pool(2);
  PlacementCache cache(8);
  MicroBatcher batcher(pool, &cache, nullptr);

  QueuedRequest item;
  item.request = SmallRequest(21, RequestMode::kSearch);
  const std::vector<PartitionResponse> first =
      batcher.ExecuteBatch({item});
  ASSERT_TRUE(first[0].ok);
  EXPECT_FALSE(first[0].cached);

  item.request.id = "second-call";
  const std::int64_t executed_before =
      telemetry::Counter::Get("service/executed").Value();
  const std::vector<PartitionResponse> second =
      batcher.ExecuteBatch({item});
  const std::int64_t executed_after =
      telemetry::Counter::Get("service/executed").Value();
  EXPECT_EQ(executed_after, executed_before)
      << "a cache hit must not re-execute the request";
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].cached);
  EXPECT_EQ(second[0].id, "second-call") << "hit re-stamps the caller's id";
  EXPECT_EQ(Normalized(second[0]), Normalized(first[0]))
      << "cached placement must be bit-identical to the original";
  EXPECT_EQ(cache.hits(), 1);
}

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
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerFixture() {
    server_->Shutdown();
    thread_.join();
  }

  Server& server() { return *server_; }
  const std::string& socket_path() {
    return server_->config().socket_path;
  }

 private:
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

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
  ServerFixture fixture(ServerConfig{});
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
        << "mode " << RequestModeName(mode);
  }
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

  const PartitionResponse good = client.Call(SmallRequest(2));
  EXPECT_TRUE(good.ok) << good.error;
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
  config.max_batch = 1;
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
