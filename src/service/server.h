// The partition service daemon (`mcmpart serve`).
//
// One event-loop thread owns every socket: it accepts connections on a Unix
// domain socket, reads newline-delimited JSON requests, admits them to the
// bounded AdmissionQueue (rejecting with a retry-after hint when full), and
// writes responses back.  Execution happens off the loop: `executors`
// long-running tasks on a server-owned runtime ThreadPool each pop one
// request at a time, answer it from the placement cache or run it through
// ExecutePartitionRequest (filling the cache), and hand the response back
// to the loop through a mutex-protected outbox plus a self-pipe wake-up.
// Sockets are therefore only ever touched by the loop thread; executors
// never block the loop and the loop never blocks on execution.
//
// Graceful drain: Shutdown() (or SIGTERM/SIGINT via InstallSignalHandlers,
// whose handlers only set an atomic flag and write one byte to the wake
// pipe) makes the loop stop accepting connections and reading requests,
// close the admission queue, wait for the executors to finish every
// admitted request, flush all pending responses, and return from Run().
// No admitted request is ever dropped; requests finished after the
// shutdown signal are counted in service/drained.  Responses a client has
// not read kDrainFlushSeconds after the last request finished are dropped
// with their connection (counted in service/drain_dropped_bytes), so a
// client that never reads cannot hold the drain open.  When a report path
// is configured, a telemetry RunReport (uptime, totals, full metrics
// snapshot) is written as the final act of Run().
//
// Determinism: the daemon adds no decision points of its own -- every
// response is produced by ExecutePartitionRequest (handler.h), a pure
// function of the request, so a served placement is bit-identical to the
// same request run through the offline CLI regardless of caching,
// concurrency, or load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/thread_pool.h"
#include "service/admission.h"
#include "service/handler.h"
#include "service/placement_cache.h"
#include "service/protocol.h"

namespace mcm::service {

// A request line longer than this gets a "request line too long" error and
// its connection is closed, so a client that never sends '\n' cannot grow
// the daemon's memory without bound.  The largest legitimate request, the
// serialized BERT graph, is about 149 KB.  The same cap bounds a
// connection's unsent responses: while that many bytes wait, the loop stops
// reading the connection, so a client that pipelines requests without
// reading the responses stalls instead of growing the daemon.  The drain's
// final read pass honours the cap too.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{16} << 20;

// How long the graceful drain waits, once every admitted request has
// finished, for clients to read their responses.  After it, connections that
// still hold unsent bytes are closed.
inline constexpr double kDrainFlushSeconds = 2.0;

struct ServerConfig {
  std::string socket_path;
  int queue_depth = 0;      // <= 0: DefaultServiceQueueDepth().
  int cache_capacity = -1;  // < 0: DefaultPlacementCacheCapacity().
  int executors = 0;        // <= 0: DefaultThreadCount() + 1.
  std::string report_path;  // RunReport written on drain; empty = none.
};

class Server {
 public:
  // `warm_start` (optional, not owned) is the pre-trained policy served to
  // zeroshot/finetune requests; it must outlive the server.
  explicit Server(ServerConfig config,
                  const ServingPolicy* warm_start = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens on config.socket_path (unlinking a stale socket
  // file first) and creates the wake pipe.  Throws std::runtime_error on
  // socket errors.  Separate from Run() so callers can start a client as
  // soon as Start() returns.
  void Start();

  // The event loop.  Returns once a shutdown was requested and the drain
  // completed.  Call Start() first.
  void Run();

  // Requests a graceful drain.  Thread-safe and async-signal-unsafe-free
  // callers only (tests, the CLI); signal handlers go through
  // InstallSignalHandlers instead.
  void Shutdown();

  // Routes SIGTERM/SIGINT to Shutdown() for the process-wide server
  // instance (at most one server may install handlers at a time).
  void InstallSignalHandlers();

  const ServerConfig& config() const { return config_; }
  PlacementCache* cache() { return cache_.get(); }

 private:
  struct Connection {
    int fd = -1;
    std::int64_t id = -1;
    std::string read_buffer;
    std::string write_buffer;
    std::int64_t inflight = 0;  // Admitted, response not yet buffered.
    bool peer_closed = false;   // EOF on read; close after flush + drain.
    // read_buffer may hold complete lines left when the write bound
    // stopped HandleReadable; handled once the unsent responses drain.
    bool lines_pending = false;
  };

  struct Outcome {
    std::int64_t connection_id = -1;
    double admitted_s = 0.0;
    PartitionResponse response;
  };

  void ExecutorLoop();
  void Deliver(const QueuedRequest& item, PartitionResponse response);
  void WakeLoop();
  void DrainOutbox();
  void HandleReadable(Connection& conn);
  void HandleLine(Connection& conn, const std::string& line);
  void QueueResponse(Connection& conn, const PartitionResponse& response);
  void FlushWrites(Connection& conn);
  void AcceptConnections();
  void CloseConnection(std::int64_t id);
  void BeginShutdown();
  void WriteReport(double started_s);

  ServerConfig config_;
  const ServingPolicy* warm_start_;

  // Set by Shutdown(); the signal handler sets a process-wide flag instead.
  std::atomic<bool> shutdown_requested_{false};
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<PlacementCache> cache_;  // Null when capacity is 0.
  std::unique_ptr<ThreadPool> exec_pool_;
  std::unique_ptr<TaskGroup> executors_;

  std::mutex outbox_mu_;
  std::deque<Outcome> outbox_;  // mcmlint: guarded-by(outbox_mu_)

  // Event-loop-thread state (never touched by executors).
  std::map<std::int64_t, Connection> connections_;
  std::int64_t next_connection_id_ = 1;
  std::int64_t next_sequence_ = 0;
  std::int64_t inflight_total_ = 0;
  bool draining_ = false;
  std::int64_t completed_ = 0;
  std::int64_t drained_ = 0;
};

// Blocking client for the offline CLI's `request` command and tests: one
// connection, newline-delimited JSON, synchronous or pipelined use.
class ServiceClient {
 public:
  // Connects to the daemon; throws std::runtime_error on failure.
  explicit ServiceClient(const std::string& socket_path);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // One synchronous round-trip.
  PartitionResponse Call(const PartitionRequest& request);

  // Pipelined halves of Call(): Send never waits for the response;
  // ReadResponse blocks for the next response line.  Both throw
  // std::runtime_error on I/O errors or daemon disconnect.
  void Send(const PartitionRequest& request);
  PartitionResponse ReadResponse();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace mcm::service
