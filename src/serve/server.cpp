#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "serve/connection_host.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"

namespace repro::serve {

struct SocketServer::Impl {
  Service* service = nullptr;
  ServerOptions options;
  /// Set in start(); its pool backs splitter input and reply buffers.
  PipelineOptions pipeline;
  std::unique_ptr<ConnectionHost> host;
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  mutable std::mutex stats_mutex;
  Stats stats;
  /// High-water mark of per-connection arena usage across finished
  /// connections — the repro_arena_bytes gauge.
  std::uint64_t peak_arena_bytes = 0;

  // obs instruments, resolved once in start() (after options are known).
  obs::Registry* registry = nullptr;
  obs::Counter* obs_connections = nullptr;
  obs::Counter* obs_protocol_errors = nullptr;

  class Connection;
  void serve_connection(int fd);
  void count_request() {
    std::lock_guard lock(stats_mutex);
    ++stats.requests;
  }
  void count_protocol_error() {
    obs_protocol_errors->inc();
    std::lock_guard lock(stats_mutex);
    ++stats.protocol_errors;
  }
  [[nodiscard]] WireStats wire_stats();
  [[nodiscard]] WireMetrics wire_metrics();
};

/// The worker side of one connection: requests go to the Service, chunk
/// streams feed Service::SourceStreams, introspection is answered inline.
class SocketServer::Impl::Connection final : public ConnectionHandler {
 public:
  explicit Connection(Impl& server) : server_(server) {}

  void on_request(WireRequest wire, Framing framing, ReplyQueue& replies) override {
    PendingReply pending(wire.id, framing);
    server_.count_request();
    switch (wire.kind) {
      case RequestKind::kHello:
        // Per-connection negotiation: the reply is the min of the client's
        // ceiling and ours — or 0 when binary framing is disabled, telling
        // the client to stay on JSON lines.
        format_reply_into(pending.immediate, framing, wire.id,
                          server_.options.enable_binary
                              ? std::min(wire.max_protocol, kProtocolVersion)
                              : 0u);
        break;
      case RequestKind::kHealth:
      case RequestKind::kStats:
        // Introspection is answered right here on the connection thread —
        // a health ping must not queue behind a full admission queue (its
        // whole point is reporting that backlog).
        format_reply_into(pending.immediate, framing, wire.id, wire.kind,
                          server_.wire_stats());
        break;
      case RequestKind::kMetrics:
        // Same inline contract: a registry snapshot never waits behind the
        // admission queue.
        format_reply_into(pending.immediate, framing, wire.id, server_.wire_metrics());
        break;
      case RequestKind::kModel:
        // The fleet broker's kind: a worker answers it as unknown.
        server_.count_protocol_error();
        format_reply_into(pending.immediate, framing, wire.id, unserved_request(wire.kind));
        break;
      case RequestKind::kPredict:
      case RequestKind::kPredictSource: {
        // Tracing is opt-in per request: only a request that carried a
        // trace id pays for stamps. t0 is the parse moment — every worker
        // stage offset is relative to it.
        if (wire.trace.has_value()) {
          pending.trace = std::make_shared<obs::RequestTrace>(*wire.trace);
          pending.trace->stamp("parse");
        }
        const auto deadline = deadline_from(wire.deadline_ms);
        if (wire.source.has_value()) {
          // predict_source: ship the raw bytes; the worker shard featurizes
          // inside the batch, off this connection thread.
          pending.prediction = server_.service->submit_source(
              std::move(*wire.source), std::move(wire.kernel), deadline, pending.trace);
          break;
        }
        auto features = wire.to_features();
        if (features.ok()) {
          pending.prediction =
              server_.service->submit(std::move(features).take(), deadline, pending.trace);
          break;
        }
        std::optional<obs::Trace> trace;
        if (pending.trace != nullptr) trace = pending.trace->snapshot();
        format_reply_into(pending.immediate, framing, wire.id, features.error(),
                          trace.has_value() ? &*trace : nullptr);
        break;
      }
    }
    replies.push(std::move(pending));
  }

  bool on_source_begin(binary::SourceBegin open, ReplyQueue& replies) override {
    if (streams_.size() >= std::max<std::size_t>(1, server_.options.max_inflight)) {
      // Overload, not a protocol fault: refuse retryably, open nothing.
      push_error(replies, open.id, Framing::kBinary,
                 common::unavailable("binary: too many open streams"));
      return false;
    }
    server_.count_request();
    streams_.emplace(open.id, server_.service->begin_stream(
                                  std::move(open.kernel), deadline_from(open.deadline_ms),
                                  server_.options.max_source_bytes));
    return true;
  }

  void on_source_chunk(const binary::SourceChunk& chunk) override {
    // Chunks are never answered — feed errors are sticky inside the stream
    // and surface from the End reply, so mid-stream faults cannot
    // desynchronize the in-order reply queue.
    (void)streams_.at(chunk.id).feed(chunk.data);
  }

  void on_source_end(std::uint64_t id, ReplyQueue& replies) override {
    // The stream settles here; its reply takes its slot in request order at
    // End (its featurization already happened chunk by chunk).
    PendingReply pending(id, Framing::kBinary);
    pending.prediction = streams_.extract(id).mapped().finish();
    replies.push(std::move(pending));
  }

  // A half-streamed request the client gave up on: drop it, answer nothing
  // (the client is not waiting).
  void on_source_abort(std::uint64_t id) override { streams_.erase(id); }

  void on_protocol_error() override { server_.count_protocol_error(); }

  void on_close(const ConnectionSummary& summary) override {
    // Open streams die with the connection — their requests were never
    // admitted, so nothing leaks.
    std::lock_guard lock(server_.stats_mutex);
    if (summary.framing_fault) ++server_.stats.protocol_errors;
    server_.stats.peak_message_bytes =
        std::max(server_.stats.peak_message_bytes, summary.peak_message_bytes);
    server_.peak_arena_bytes = std::max(server_.peak_arena_bytes, summary.peak_arena_bytes);
  }

 private:
  /// The wire deadline is relative to the moment the server takes custody
  /// of the request (parses its frame); from here on it is an absolute
  /// steady_clock point, immune to queueing delays.
  static Service::Deadline deadline_from(const std::optional<double>& ms) {
    Service::Deadline deadline;
    if (ms.has_value()) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::milli>(*ms));
    }
    return deadline;
  }

  Impl& server_;
  // Open chunked predict_source streams by client request id. Each buffers
  // at most the feeder's bounded pending window, never the whole source.
  std::unordered_map<std::uint64_t, Service::SourceStream> streams_;
};

SocketServer::SocketServer() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<SocketServer>> SocketServer::start(
    Service& service, const ServerOptions& options) {
  std::unique_ptr<SocketServer> server(new SocketServer());
  Impl& impl = *server->impl_;
  impl.service = &service;
  impl.options = options;
  impl.registry = options.registry != nullptr ? options.registry : &obs::Registry::global();
  impl.obs_connections = impl.registry->counter("repro_connections_total");
  impl.obs_protocol_errors = impl.registry->counter("repro_protocol_errors_total");
  impl.pipeline.name = "SocketServer";
  impl.pipeline.max_message_bytes = options.max_line_bytes;
  impl.pipeline.accept_binary = options.enable_binary;
  impl.pipeline.max_inflight = options.max_inflight;
  impl.pipeline.write_timeout = options.write_timeout;
  impl.pipeline.pool = options.buffer_pool;

  auto host = ConnectionHost::start(impl.pipeline.name, options.unix_path, options.tcp_port,
                                    [&impl](int fd) { impl.serve_connection(fd); });
  if (!host.ok()) return host.error();
  impl.host = std::move(host).take();
  return server;
}

void SocketServer::Impl::serve_connection(int fd) {
  obs_connections->inc();
  {
    std::lock_guard lock(stats_mutex);
    ++stats.connections;
  }
  Connection connection(*this);
  serve_pipelined(fd, pipeline, connection);
}

WireStats SocketServer::Impl::wire_stats() {
  WireStats wire;
  wire.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                started)
                      .count();
  wire.queue_depth = service->queue_depth();
  const auto service_stats = service->stats();
  wire.requests = service_stats.requests;
  wire.source_requests = service_stats.source_requests;
  wire.batches = service_stats.batches;
  wire.shed = service_stats.shed;
  wire.deadline_exceeded = service_stats.deadline_exceeded;
  wire.streamed = service_stats.streamed;
  {
    std::lock_guard lock(stats_mutex);
    wire.connections = stats.connections;
    wire.protocol_errors = stats.protocol_errors;
    wire.peak_message_bytes = stats.peak_message_bytes;
  }
  if (options.model_cache != nullptr) {
    const auto cache_stats = options.model_cache->stats();
    wire.cache_hits = cache_stats.hits + cache_stats.disk_hits;
    wire.cache_misses = cache_stats.misses;
  }
  return wire;
}

WireMetrics SocketServer::Impl::wire_metrics() {
  // Point-in-time gauges are set at scrape time (never from a hot path, so
  // there is no dangling-callback hazard when the server outlives a scrape).
  registry->gauge("repro_uptime_seconds")
      ->set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          started)
                .count());
  registry->gauge("repro_queue_depth")
      ->set(static_cast<double>(service->queue_depth()));
  if (options.model_cache != nullptr) {
    const auto cache_stats = options.model_cache->stats();
    registry->gauge("repro_cache_hits")
        ->set(static_cast<double>(cache_stats.hits + cache_stats.disk_hits));
    registry->gauge("repro_cache_misses")
        ->set(static_cast<double>(cache_stats.misses));
  }
  {
    std::lock_guard lock(stats_mutex);
    registry->gauge("repro_arena_bytes")
        ->set(static_cast<double>(peak_arena_bytes));
  }
  registry->gauge("repro_pool_reuse_total")
      ->set(static_cast<double>(pipeline.resolved_pool().stats().reuses));
  WireMetrics metrics;
  metrics.values = registry->snapshot_values();
  metrics.text = registry->prometheus_text();
  return metrics;
}

SocketServer::~SocketServer() {
  if (impl_ != nullptr) stop();
}

void SocketServer::stop() {
  if (impl_->host != nullptr) impl_->host->stop();
}

int SocketServer::tcp_port() const noexcept { return impl_->host->tcp_port(); }

const std::string& SocketServer::unix_path() const noexcept {
  return impl_->host->unix_path();
}

SocketServer::Stats SocketServer::stats() const {
  std::lock_guard lock(impl_->stats_mutex);
  return impl_->stats;
}

}  // namespace repro::serve
