#include "service/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

namespace mcm::service {
namespace {

constexpr double kLatencyBoundsS[] = {0.001, 0.005, 0.02,  0.05, 0.1,
                                      0.25,  0.5,   1.0,   2.5,  5.0,
                                      10.0,  30.0,  60.0};

// Signal-handler state: the handler may only touch lock-free atomics and
// make one async-signal-safe write() to the wake pipe.
std::atomic<bool> g_shutdown_requested{false};
std::atomic<int> g_signal_wake_fd{-1};

// MCM_CONTRACT(signal-safe): runs in signal context; mcmlint's
// handler-safety rule proves nothing reachable from here allocates, locks,
// or blocks.
void HandleShutdownSignal(int /*signum*/) {
  g_shutdown_requested.store(true, std::memory_order_relaxed);
  const int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // A full pipe already guarantees a pending wake-up; ignore the result.
    [[maybe_unused]] const ssize_t n = write(fd, &byte, 1);
  }
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("service: fcntl(O_NONBLOCK) failed");
  }
}

}  // namespace

Server::Server(ServerConfig config, const ServingPolicy* warm_start)
    : config_(std::move(config)), warm_start_(warm_start) {
  if (config_.queue_depth <= 0) config_.queue_depth = DefaultServiceQueueDepth();
  if (config_.cache_capacity < 0) {
    config_.cache_capacity = DefaultPlacementCacheCapacity();
  }
  if (config_.executors <= 0) config_.executors = DefaultThreadCount() + 1;
  queue_ = std::make_unique<AdmissionQueue>(
      static_cast<std::size_t>(config_.queue_depth));
  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<PlacementCache>(
        static_cast<std::size_t>(config_.cache_capacity));
  }
}

Server::~Server() {
  // Executors must be gone before the queue/outbox they reference.
  if (executors_ != nullptr) {
    queue_->Close();
    executors_->Wait();
  }
  executors_.reset();
  exec_pool_.reset();
  for (auto& [id, conn] : connections_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) {
    g_signal_wake_fd.store(-1, std::memory_order_relaxed);
    close(wake_write_fd_);
  }
  if (!config_.socket_path.empty()) unlink(config_.socket_path.c_str());
}

void Server::Start() {
  // A signal delivered to an earlier server in this process must not drain
  // this one.
  g_shutdown_requested.store(false, std::memory_order_relaxed);
  if (config_.socket_path.empty()) {
    throw std::runtime_error("service: empty socket path");
  }
  sockaddr_un addr{};
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("service: socket path too long: " +
                             config_.socket_path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("service: socket() failed");
  unlink(config_.socket_path.c_str());  // Remove a stale socket file.
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    throw std::runtime_error("service: bind(" + config_.socket_path +
                             ") failed: " + std::strerror(errno));
  }
  if (listen(listen_fd_, 128) < 0) {
    throw std::runtime_error("service: listen() failed");
  }
  SetNonBlocking(listen_fd_);

  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) throw std::runtime_error("service: pipe() failed");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  SetNonBlocking(wake_write_fd_);

  exec_pool_ = std::make_unique<ThreadPool>(config_.executors + 1);
  executors_ = std::make_unique<TaskGroup>(*exec_pool_);
  for (int i = 0; i < config_.executors; ++i) {
    executors_->Run([this] { ExecutorLoop(); });
  }
  MCM_LOG(kInfo) << "service: listening on " << config_.socket_path << " ("
                << config_.executors << " executors, queue depth "
                << config_.queue_depth << ", cache "
                << config_.cache_capacity << ")";
}

void Server::InstallSignalHandlers() {
  g_signal_wake_fd.store(wake_write_fd_, std::memory_order_relaxed);
  struct sigaction action {};
  action.sa_handler = &HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

void Server::Shutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  WakeLoop();
}

// MCM_CONTRACT(signal-safe): the SIGTERM drain path's wake primitive --
// one async-signal-safe write(), nothing else.
void Server::WakeLoop() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = write(wake_write_fd_, &byte, 1);
}

void Server::ExecutorLoop() {
  QueuedRequest item;
  while (queue_->Pop(&item)) {
    const std::string key = RequestCacheKey(item.request);
    PartitionResponse response;
    if (cache_ == nullptr ||
        !cache_->Lookup(key, item.request.id, &response)) {
      response = ExecutePartitionRequest(item.request, warm_start_);
      if (cache_ != nullptr) cache_->Insert(key, response);
    }
    Deliver(item, std::move(response));
  }
}

void Server::Deliver(const QueuedRequest& item, PartitionResponse response) {
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.push_back(
        Outcome{item.connection_id, item.admitted_s, std::move(response)});
  }
  WakeLoop();
}

void Server::DrainOutbox() {
  static telemetry::Histogram& latency =
      telemetry::Histogram::Get("service/latency_s", kLatencyBoundsS);
  static telemetry::Counter& completed =
      telemetry::Counter::Get("service/completed");
  static telemetry::Counter& drained =
      telemetry::Counter::Get("service/drained");
  std::deque<Outcome> ready;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    ready.swap(outbox_);
  }
  for (Outcome& outcome : ready) {
    latency.Observe(telemetry::MonotonicSeconds() - outcome.admitted_s);
    completed.Add();
    ++completed_;
    if (draining_) {
      drained.Add();
      ++drained_;
    }
    --inflight_total_;
    auto it = connections_.find(outcome.connection_id);
    if (it == connections_.end()) continue;  // Client went away.
    --it->second.inflight;
    QueueResponse(it->second, outcome.response);
    FlushWrites(it->second);
  }
}

void Server::QueueResponse(Connection& conn,
                           const PartitionResponse& response) {
  conn.write_buffer += EncodeResponse(response);
  conn.write_buffer += '\n';
}

void Server::FlushWrites(Connection& conn) {
  while (!conn.write_buffer.empty()) {
    // MSG_NOSIGNAL: a peer that hung up is an EPIPE here, not a SIGPIPE.
    const ssize_t n = send(conn.fd, conn.write_buffer.data(),
                           conn.write_buffer.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.write_buffer.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // Write error: the peer is gone.  Drop buffered output; in-flight
    // requests still execute (results are simply discarded on delivery).
    conn.write_buffer.clear();
    conn.peer_closed = true;
    return;
  }
}

void Server::HandleLine(Connection& conn, const std::string& line) {
  static telemetry::Counter& received =
      telemetry::Counter::Get("service/requests");
  static telemetry::Counter& protocol_errors =
      telemetry::Counter::Get("service/protocol_errors");
  if (line.empty()) return;
  received.Add();
  PartitionRequest request;
  std::string error;
  if (!ParseRequest(line, &request, &error)) {
    protocol_errors.Add();
    QueueResponse(conn, MakeErrorResponse(request.id, "bad request: " + error));
    return;
  }
  QueuedRequest item;
  item.request = std::move(request);
  item.connection_id = conn.id;
  item.sequence = next_sequence_++;
  item.admitted_s = telemetry::MonotonicSeconds();
  const std::string id = item.request.id;
  if (draining_ || !queue_->TryPush(std::move(item))) {
    QueueResponse(conn,
                  MakeErrorResponse(id,
                                    draining_ ? "draining" : "queue full",
                                    queue_->RetryAfterMs(config_.executors)));
    return;
  }
  ++conn.inflight;
  ++inflight_total_;
}

void Server::HandleReadable(Connection& conn) {
  static telemetry::Counter& protocol_errors =
      telemetry::Counter::Get("service/protocol_errors");
  char chunk[4096];
  // A connection holding kMaxRequestLineBytes of unsent responses is not
  // read from until they drain (poll is level-triggered, so its input waits
  // in the socket); only the drain's final pass reads everything.
  while (draining_ || conn.write_buffer.size() < kMaxRequestLineBytes) {
    const ssize_t n = read(conn.fd, chunk, sizeof(chunk));
    if (n > 0) {
      // Complete lines are consumed per chunk, so the buffer holds no '\n'
      // before the new bytes and never more than one line.
      std::size_t newline = conn.read_buffer.size();
      std::size_t start = 0;
      conn.read_buffer.append(chunk, static_cast<std::size_t>(n));
      while ((newline = conn.read_buffer.find('\n', newline)) !=
             std::string::npos) {
        HandleLine(conn, conn.read_buffer.substr(start, newline - start));
        start = ++newline;
      }
      conn.read_buffer.erase(0, start);
      if (conn.read_buffer.size() > kMaxRequestLineBytes) {
        // Refuse the line and stop reading; the loop closes the connection
        // once its admitted requests are delivered.
        protocol_errors.Add();
        std::string().swap(conn.read_buffer);
        QueueResponse(conn, MakeErrorResponse("", "request line too long"));
        conn.peer_closed = true;
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.peer_closed = true;  // EOF or hard error.
    break;
  }
  FlushWrites(conn);
}

void Server::AcceptConnections() {
  static telemetry::Counter& accepted =
      telemetry::Counter::Get("service/connections");
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or a transient accept error): done.
    SetNonBlocking(fd);
    Connection conn;
    conn.fd = fd;
    conn.id = next_connection_id_++;
    connections_.emplace(conn.id, std::move(conn));
    accepted.Add();
  }
}

void Server::CloseConnection(std::int64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  close(it->second.fd);
  connections_.erase(it);
}

void Server::BeginShutdown() {
  if (draining_) return;
  draining_ = true;
  MCM_LOG(kInfo) << "service: draining (" << inflight_total_
                << " requests in flight)";
  if (listen_fd_ >= 0) {
    // Clients already sitting in the listen backlog completed connect();
    // accept them now so their requests get explicit "draining" rejections
    // below instead of a bare EOF.
    AcceptConnections();
    close(listen_fd_);
    listen_fd_ = -1;
  }
  queue_->Close();
  // Final read pass: a Unix-socket write completes into our receive buffer,
  // so every request a client sent before the drain began is readable right
  // now.  Consume and reject them (HandleLine sees draining_) instead of
  // leaving pipelined clients blocked on responses that would never come;
  // after this pass the loop stops polling for reads.
  for (auto& [id, conn] : connections_) {
    if (!conn.peer_closed) HandleReadable(conn);
  }
}

void Server::Run() {
  MCM_CHECK(listen_fd_ >= 0 || draining_);
  const double started_s = telemetry::MonotonicSeconds();
  double flush_deadline_s = -1.0;  // Set once the drain has nothing in flight.

  while (true) {
    if (shutdown_requested_.load(std::memory_order_relaxed) ||
        g_shutdown_requested.load(std::memory_order_relaxed)) {
      BeginShutdown();
    }

    DrainOutbox();

    // Close connections whose peer is gone once nothing is pending on them.
    std::vector<std::int64_t> closable;
    for (auto& [id, conn] : connections_) {
      if (conn.peer_closed && conn.inflight == 0) closable.push_back(id);
    }
    for (const std::int64_t id : closable) CloseConnection(id);

    if (draining_ && inflight_total_ == 0) {
      // Every admitted request has been delivered.  The drain is complete
      // once every response byte is flushed, or when the flush deadline
      // passes, which drops what clients left unread.
      std::vector<std::int64_t> unflushed;
      std::size_t unsent_bytes = 0;
      for (auto& [id, conn] : connections_) {
        if (conn.write_buffer.empty()) continue;
        unflushed.push_back(id);
        unsent_bytes += conn.write_buffer.size();
      }
      if (unflushed.empty()) break;
      const double now_s = telemetry::MonotonicSeconds();
      if (flush_deadline_s < 0.0) flush_deadline_s = now_s + kDrainFlushSeconds;
      if (now_s >= flush_deadline_s) {
        MCM_LOG(kWarning) << "service: drain flush deadline passed; closing "
                          << unflushed.size() << " connections with "
                          << unsent_bytes << " unsent bytes";
        for (const std::int64_t id : unflushed) CloseConnection(id);
        break;
      }
    }

    std::vector<pollfd> fds;
    std::vector<std::int64_t> fd_conn;  // Connection id per pollfd slot.
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(-1);
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fd_conn.push_back(-1);
    }
    for (auto& [id, conn] : connections_) {
      short events = 0;
      // Matches HandleReadable's write-buffer bound.
      if (!draining_ && !conn.peer_closed &&
          conn.write_buffer.size() < kMaxRequestLineBytes) {
        events |= POLLIN;
      }
      if (!conn.write_buffer.empty()) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conn.push_back(id);
    }

    const int n = poll(fds.data(), fds.size(), /*timeout_ms=*/200);
    if (n < 0 && errno != EINTR) {
      MCM_LOG(kWarning) << "service: poll failed: " << std::strerror(errno);
    }
    if (n <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char sink[256];
      while (read(wake_read_fd_, sink, sizeof(sink)) > 0) {
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if (fds[i].fd == listen_fd_) {
        AcceptConnections();
        continue;
      }
      auto it = connections_.find(fd_conn[i]);
      if (it == connections_.end()) continue;
      if ((fds[i].revents & POLLOUT) != 0) FlushWrites(it->second);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        HandleReadable(it->second);
      }
    }
  }

  // Executors are idle (queue closed and empty once inflight hit zero);
  // join them, then emit the report.
  executors_->Wait();
  executors_.reset();
  exec_pool_.reset();
  MCM_LOG(kInfo) << "service: drained (" << completed_
                << " completed, " << drained_ << " during drain)";
  WriteReport(started_s);
}

void Server::WriteReport(double started_s) {
  if (config_.report_path.empty()) return;
  telemetry::RunReport report("service");
  report.AddPhaseSeconds("serve", telemetry::MonotonicSeconds() - started_s);
  report.SetValue("completed", static_cast<double>(completed_));
  report.SetValue("drained", static_cast<double>(drained_));
  report.SetValue("queue_depth", static_cast<double>(config_.queue_depth));
  report.SetValue("executors", static_cast<double>(config_.executors));
  report.SetString("socket", config_.socket_path);
  report.Write(config_.report_path);
}

// ---- ServiceClient ----------------------------------------------------------

ServiceClient::ServiceClient(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("service client: bad socket path");
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("service client: socket() failed");
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close(fd_);
    fd_ = -1;
    throw std::runtime_error("service client: connect(" + socket_path +
                             ") failed: " + std::strerror(errno));
  }
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) close(fd_);
}

void ServiceClient::Send(const PartitionRequest& request) {
  std::string line = EncodeRequest(request);
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = write(fd_, line.data() + sent, line.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("service client: write failed");
    sent += static_cast<std::size_t>(n);
  }
}

PartitionResponse ServiceClient::ReadResponse() {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      PartitionResponse response;
      std::string error;
      if (!ParseResponse(line, &response, &error)) {
        throw std::runtime_error("service client: bad response: " + error);
      }
      return response;
    }
    char chunk[4096];
    const ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw std::runtime_error("service client: daemon closed connection");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

PartitionResponse ServiceClient::Call(const PartitionRequest& request) {
  Send(request);
  return ReadResponse();
}

}  // namespace mcm::service
