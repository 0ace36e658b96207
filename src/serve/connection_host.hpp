// The one connection host behind every socket front end: SocketServer,
// fleet::Balancer and fleet::Broker.
//
// ConnectionHost owns a Unix or 127.0.0.1 TCP listener, one acceptor
// thread, and one thread per accepted connection. A connection that cannot
// get its thread (thread or address-space exhaustion) is refused, not
// fatal: it reads one retryable "unavailable" error line, is closed, and
// the acceptor keeps accepting. Descriptor exhaustion (EMFILE/ENFILE)
// backs the acceptor off for 100 ms instead of ending it.
//
// serve_pipelined() is the connection loop of all three front ends:
// the read loop, the pooled splitter, the parse arena, JSON and binary
// decode, protocol-error replies, the framing-fault close, and the bounded
// in-order reply queue drained by a writer thread. A front end plugs in
// through a ConnectionHandler: decoded requests, the four source-stream
// frames, and the connection close. The reader decodes request N+1 while
// N is in flight; the writer answers strictly in request order, and the
// queue bound (max_inflight) is the pipelining window.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/queue.hpp"
#include "common/status.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace repro::serve {

/// Run `fn` on a new thread stored in `out`. Never throws: when no thread
/// can be created (EAGAIN under a thread or address-space cap, bad_alloc),
/// `out` stays empty and the result is false.
template <typename Fn>
[[nodiscard]] bool try_spawn(std::thread& out, Fn&& fn) noexcept {
  try {
    out = std::thread(std::forward<Fn>(fn));
    return true;
  } catch (...) {
    return false;
  }
}

class ConnectionHost {
 public:
  /// Runs on the connection's own thread; the host shuts the fd down after
  /// it returns and closes it when the thread is joined.
  using ServeFn = std::function<void(int fd)>;

  /// Bind `unix_path` (wins when non-empty) or 127.0.0.1:`tcp_port` (0 =
  /// ephemeral), listen, and start accepting. `name` prefixes every error
  /// and log line.
  [[nodiscard]] static common::Result<std::unique_ptr<ConnectionHost>> start(
      std::string name, const std::string& unix_path, int tcp_port, ServeFn serve);

  ~ConnectionHost();
  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;

  /// Close the listener, shut every open connection down, join all threads,
  /// unlink the Unix socket. Idempotent; also run by the destructor.
  void stop();

  /// The TCP port actually bound; -1 for Unix.
  [[nodiscard]] int tcp_port() const noexcept;
  /// The Unix socket path, empty for TCP.
  [[nodiscard]] const std::string& unix_path() const noexcept;

 private:
  ConnectionHost();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- the pipelined connection loop -------------------------------------------

/// One request's slot in a connection's in-order reply queue. The reply is
/// the first engaged of: a worker prediction, a response forwarded from a
/// backend, or `immediate` — a complete reply preformatted with
/// format_reply_into (introspection and errors).
struct PendingReply {
  PendingReply() = default;
  PendingReply(std::uint64_t reply_id, Framing reply_framing)
      : id(reply_id), framing(reply_framing) {}

  std::uint64_t id = 0;
  Framing framing = Framing::kJson;
  std::future<Service::Response> prediction;
  std::future<WireResponse> forwarded;
  std::string immediate;
  /// Traced requests only. The writer appends a forwarded reply's hop
  /// stages, stamps the reply stage, and serializes the whole table.
  obs::RequestTracePtr trace;
};
using ReplyQueue = common::BoundedQueue<PendingReply>;

/// Queue an error reply in `framing`.
void push_error(ReplyQueue& replies, std::uint64_t id, Framing framing,
                const common::Error& error);

/// What a finished connection leaves for its front end's counters.
struct ConnectionSummary {
  bool framing_fault = false;  // closed on an unrecoverable framing error
  std::uint64_t peak_message_bytes = 0;
  std::uint64_t peak_arena_bytes = 0;
};

/// A front end's per-connection logic. Every call comes from the
/// connection's reader thread; a handler answers by pushing its slot onto
/// `replies` (pushing blocks at the pipelining window).
class ConnectionHandler {
 public:
  ConnectionHandler() = default;
  ConnectionHandler(const ConnectionHandler&) = delete;
  ConnectionHandler& operator=(const ConnectionHandler&) = delete;
  virtual ~ConnectionHandler() = default;
  /// A decoded request of either framing.
  virtual void on_request(WireRequest request, Framing framing, ReplyQueue& replies) = 0;
  /// The chunked predict_source frames (binary only). The loop keeps the
  /// set of open stream ids: Begin comes with a fresh id and returns whether
  /// it opened the stream (when not, it has answered with an error); chunks,
  /// End and Abort come only for open ids. End takes the stream's reply
  /// slot; chunks and aborts are never answered.
  virtual bool on_source_begin(binary::SourceBegin begin, ReplyQueue& replies) = 0;
  virtual void on_source_chunk(const binary::SourceChunk& chunk) = 0;
  virtual void on_source_end(std::uint64_t id, ReplyQueue& replies) = 0;
  virtual void on_source_abort(std::uint64_t id) = 0;
  /// A message the loop could not decode (already answered where it can
  /// be). A framing fault is reported once, by on_close.
  virtual void on_protocol_error() = 0;
  /// After the last reply has been written or dropped.
  virtual void on_close(const ConnectionSummary& summary) = 0;
};

struct PipelineOptions {
  std::string name;  // refusal and log prefix
  std::size_t max_message_bytes = 1 << 20;
  bool accept_binary = true;
  std::size_t max_inflight = 64;
  /// Progress timeout on reply writes: a client that stops reading
  /// forfeits its replies instead of wedging the writer.
  std::chrono::milliseconds write_timeout{30000};
  /// The trace stage stamped as a reply is written.
  const char* reply_stage = "reply";
  /// Backs the splitter's input buffer and the writer's reply buffer;
  /// nullptr means common::BufferPool::global().
  common::BufferPool* pool = nullptr;

  /// The pool in use: `pool`, or the process-global one when it is null.
  [[nodiscard]] common::BufferPool& resolved_pool() const {
    return pool != nullptr ? *pool : common::BufferPool::global();
  }
};

/// Serve one connection until EOF, a read error, a framing fault or a
/// failed write; then drain the replies already queued. A connection whose
/// writer thread cannot start is refused like one the host cannot serve.
void serve_pipelined(int fd, const PipelineOptions& options, ConnectionHandler& handler);

}  // namespace repro::serve
