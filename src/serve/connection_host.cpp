#include "serve/connection_host.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/arena.hpp"
#include "common/log.hpp"
#include "common/net.hpp"

namespace repro::serve {

namespace {

common::Error errno_error(const std::string& what) {
  return common::io_error(what + ": " + std::strerror(errno));
}

/// One retryable error line, then the caller closes: what a connection gets
/// when no thread can serve it. The socket buffer of a fresh connection is
/// empty, so the short timeout only guards against a pathological peer.
void refuse(int fd, const std::string& name) {
  std::string line;
  format_reply_into(line, Framing::kJson, 0,
                    common::unavailable(name + ": no thread to serve this connection"));
  (void)common::net::write_all(fd, line, std::chrono::milliseconds(100));
  common::log_warn() << name << ": refused a connection: no thread to serve it";
}

}  // namespace

struct ConnectionHost::Impl {
  std::string name;
  ServeFn serve;
  int listen_fd = -1;
  int bound_tcp_port = -1;
  std::string bound_unix_path;

  /// One per accepted connection. The fd is closed only after the thread is
  /// joined (by a reap sweep or by stop()), so a shutdown() on it can never
  /// hit a recycled descriptor.
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::thread acceptor;
  std::mutex conn_mutex;
  std::list<std::unique_ptr<Conn>> conns;
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;

  void accept_loop();
  void run(Conn& conn);
  void reap_finished_locked();
};

ConnectionHost::ConnectionHost() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<ConnectionHost>> ConnectionHost::start(
    std::string name, const std::string& unix_path, int tcp_port, ServeFn serve) {
  std::unique_ptr<ConnectionHost> host(new ConnectionHost());
  Impl& impl = *host->impl_;
  impl.name = std::move(name);
  impl.serve = std::move(serve);
  const std::string& n = impl.name;

  // One listener for both families: fill the address, then one socket /
  // bind / listen sequence.
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  std::string where;
  if (!unix_path.empty()) {
    auto& un = reinterpret_cast<sockaddr_un&>(addr);
    if (unix_path.size() >= sizeof(un.sun_path)) {
      return common::invalid_argument(n + ": unix path too long: " + unix_path);
    }
    un.sun_family = AF_UNIX;
    std::strncpy(un.sun_path, unix_path.c_str(), sizeof(un.sun_path) - 1);
    addr_len = sizeof(sockaddr_un);
    where = unix_path;
  } else if (tcp_port >= 0) {
    auto& in = reinterpret_cast<sockaddr_in&>(addr);
    in.sin_family = AF_INET;
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
    addr_len = sizeof(sockaddr_in);
    where = "127.0.0.1:" + std::to_string(tcp_port);
  } else {
    return common::invalid_argument(n + ": configure either unix_path or tcp_port");
  }
  const bool is_unix = addr.ss_family == AF_UNIX;
  const int fd = ::socket(addr.ss_family, SOCK_STREAM, 0);
  if (fd < 0) return errno_error(n + (is_unix ? ": socket(AF_UNIX)" : ": socket(AF_INET)"));
  if (is_unix) {
    ::unlink(unix_path.c_str());  // stale socket from a previous run
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), addr_len) != 0) {
    auto err = errno_error(n + ": bind(" + where + ")");
    ::close(fd);
    return err;
  }
  if (is_unix) {
    impl.bound_unix_path = unix_path;
  } else {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      auto err = errno_error(n + ": getsockname");
      ::close(fd);
      return err;
    }
    impl.bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(fd, 64) != 0) {
    auto err = errno_error(n + ": listen");
    ::close(fd);
    return err;
  }
  impl.listen_fd = fd;
  if (!try_spawn(impl.acceptor, [&impl] { impl.accept_loop(); })) {
    return common::unavailable(n + ": cannot start the acceptor thread");
  }
  return host;
}

void ConnectionHost::Impl::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      const int err = errno;  // logging below must not clobber it
      if (err == EINTR) continue;
      // stop() closed the listener (EBADF/EINVAL) — or a transient accept
      // failure while stopping; either way only exit when told to.
      if (stopping.load(std::memory_order_acquire)) return;
      if (err == ECONNABORTED || err == EMFILE || err == ENFILE || err == ENOBUFS ||
          err == ENOMEM) {
        common::log_warn() << name << ": accept: " << std::strerror(err);
        if (err != ECONNABORTED) {
          // Resource exhaustion: nothing in this loop frees descriptors or
          // memory (reaping happens in connection epilogues), so back off
          // instead of busy-spinning and flooding the log.
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        continue;
      }
      // Unexpected and unhandled — stop accepting; say so loudly instead of
      // dying silently while the process looks healthy.
      common::log_error() << name << ": accept failed permanently: "
                          << std::strerror(err) << "; no longer accepting";
      return;
    }
    std::lock_guard lock(conn_mutex);
    if (stopping.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Reap exited connections first so a long-lived host does not keep one
    // dead (joinable) thread per past connection.
    reap_finished_locked();
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn& raw = *conn;
    if (try_spawn(raw.thread, [this, &raw] { run(raw); })) {
      conns.push_back(std::move(conn));
    } else {
      refuse(fd, name);
      ::close(fd);
    }
  }
}

void ConnectionHost::Impl::run(Conn& conn) {
  serve(conn.fd);
  // Signal EOF to the peer now: the fd itself is closed only by a reap
  // sweep (so stop() can never shutdown() a recycled descriptor), and
  // without this a client that half-closes and reads to EOF would wait for
  // the next accept.
  ::shutdown(conn.fd, SHUT_RDWR);
  // Reap siblings before raising our own done flag: entries with done set
  // are past this epilogue and hold no locks, so joining them under
  // conn_mutex cannot deadlock — and an idle host retains at most this one
  // exited connection.
  {
    std::lock_guard lock(conn_mutex);
    reap_finished_locked();
  }
  conn.done.store(true, std::memory_order_release);
}

void ConnectionHost::Impl::reap_finished_locked() {
  for (auto it = conns.begin(); it != conns.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns.erase(it);
    } else {
      ++it;
    }
  }
}

ConnectionHost::~ConnectionHost() {
  if (impl_ != nullptr) stop();
}

void ConnectionHost::stop() {
  std::call_once(impl_->stop_once, [this] {
    Impl& impl = *impl_;
    impl.stopping.store(true, std::memory_order_release);
    if (impl.listen_fd >= 0) {
      // shutdown() unblocks a blocked accept(); the close comes after the
      // acceptor is joined so the descriptor cannot be recycled while the
      // accept loop might still touch it.
      ::shutdown(impl.listen_fd, SHUT_RDWR);
    }
    if (impl.acceptor.joinable()) impl.acceptor.join();
    if (impl.listen_fd >= 0) ::close(impl.listen_fd);

    // The acceptor is gone, so this thread now owns the connection list.
    // Every fd in it is still open: shutdown() unblocks each connection's
    // read(), then join and close.
    std::list<std::unique_ptr<Impl::Conn>> conns;
    {
      std::lock_guard lock(impl.conn_mutex);
      conns.swap(impl.conns);
    }
    for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
    for (auto& conn : conns) {
      if (conn->thread.joinable()) conn->thread.join();
      ::close(conn->fd);
    }
    if (!impl.bound_unix_path.empty()) ::unlink(impl.bound_unix_path.c_str());
  });
}

int ConnectionHost::tcp_port() const noexcept { return impl_->bound_tcp_port; }

const std::string& ConnectionHost::unix_path() const noexcept {
  return impl_->bound_unix_path;
}

// --- the pipelined connection loop -------------------------------------------

void push_error(ReplyQueue& replies, std::uint64_t id, Framing framing,
                const common::Error& error) {
  PendingReply pending(id, framing);
  format_reply_into(pending.immediate, framing, id, error);
  replies.push(std::move(pending));
}

namespace {

/// The writer half: drains the in-order reply queue into one pooled reply
/// buffer, so the steady state writes without touching the heap.
void write_replies(int fd, const PipelineOptions& options, ReplyQueue& replies) {
  auto reply_lease = options.resolved_pool().acquire();
  std::string& reply = *reply_lease;
  // A traced reply's last stage is its write; snapshot after the stamp so
  // the serialized table includes it. A forwarded reply first appends the
  // stages of the hop that answered it (offsets against that hop's clock).
  const auto finish_trace = [&](const obs::RequestTracePtr& trace,
                                const std::optional<obs::Trace>& hop) {
    std::optional<obs::Trace> out;
    if (trace != nullptr) {
      if (hop.has_value()) trace->append(hop->stages);
      trace->stamp(options.reply_stage);
      out = trace->snapshot();
    }
    return out;
  };
  bool write_failed = false;
  while (auto pending = replies.pop()) {
    if (write_failed) continue;  // drain only
    // An immediate reply is written as preformatted (cold path:
    // introspection and errors); the others are formatted into `reply`.
    std::string_view bytes = pending->immediate;
    reply.clear();
    if (pending->prediction.valid()) {
      const Service::Response response = pending->prediction.get();
      const auto trace = finish_trace(pending->trace, std::nullopt);
      const obs::Trace* trace_ptr = trace.has_value() ? &*trace : nullptr;
      if (response.ok()) {
        format_reply_into(reply, pending->framing, pending->id, response.value(), trace_ptr);
      } else {
        format_reply_into(reply, pending->framing, pending->id, response.error(), trace_ptr);
      }
      bytes = reply;
    } else if (pending->forwarded.valid()) {
      const WireResponse response = pending->forwarded.get();
      const auto trace = finish_trace(pending->trace, response.trace);
      const obs::Trace* trace_ptr = trace.has_value() ? &*trace : nullptr;
      if (response.prediction.has_value()) {
        format_reply_into(reply, pending->framing, pending->id, *response.prediction,
                          trace_ptr);
      } else if (response.error.has_value()) {
        format_reply_into(reply, pending->framing, pending->id, *response.error, trace_ptr);
      } else {
        format_reply_into(reply, pending->framing, pending->id,
                          common::internal_error(options.name + ": malformed backend reply"));
      }
      bytes = reply;
    }
    // A write timeout counts as failure too: a client that stopped reading
    // has forfeited its replies — drain and tear down rather than wedge this
    // writer (and every future queued behind it).
    if (common::net::write_all(fd, bytes, options.write_timeout).status !=
        common::net::IoStatus::kOk) {
      write_failed = true;
      // Unblock the reader so the connection tears down promptly.
      ::shutdown(fd, SHUT_RD);
    }
  }
}

}  // namespace

void serve_pipelined(int fd, const PipelineOptions& options, ConnectionHandler& handler) {
  ReplyQueue replies(std::max<std::size_t>(1, options.max_inflight));
  std::thread writer;
  if (!try_spawn(writer, [&] { write_replies(fd, options, replies); })) {
    refuse(fd, options.name);
    return;
  }

  // An error reply in `framing` for a message that did not decode.
  const auto reject = [&](std::uint64_t id, Framing framing, const common::Error& error) {
    handler.on_protocol_error();
    push_error(replies, id, framing, error);
  };

  // Per-message framing detection; binary frames are refused outright when
  // they are not accepted (they parse as malformed JSON lines).
  MessageSplitter splitter(options.max_message_bytes, options.accept_binary,
                           &options.resolved_pool());
  // Per-connection parse arena: each JSON request document is bump-
  // allocated here and dies at the reset() after its message is handled.
  // Once the arena has seen the connection's biggest request, the steady
  // state parses without heap traffic.
  common::Arena arena;
  // Ids of the chunk streams the handler has open on this connection.
  std::unordered_set<std::uint64_t> open_streams;
  char chunk[4096];
  bool framing_fault = false;
  while (!framing_fault) {
    // Blocking read (timeout 0): an idle connection is legitimate — the
    // balancer keeps persistent backend connections that go quiet between
    // bursts. Routed through net so fault injection covers this path.
    const auto rd =
        common::net::read_some(fd, chunk, sizeof chunk, std::chrono::milliseconds(0));
    if (rd.status != common::net::IoStatus::kOk) break;  // EOF, error, shutdown
    splitter.feed(std::string_view(chunk, rd.bytes));

    for (;;) {
      auto next = splitter.next();
      if (!next.ok()) {
        // Unrecoverable framing fault (overlong message, unknown frame
        // type): there is no resync point, so answer once and close. JSON
        // framing for the answer — a peer confused enough to trip this may
        // not speak binary at all.
        push_error(replies, 0, Framing::kJson, next.error());
        framing_fault = true;
        break;
      }
      if (!next.value().has_value()) break;  // need more bytes
      const WireMessage message = *next.value();

      if (!message.binary) {
        auto request = parse_request(message.payload, &arena);
        if (!request.ok()) {
          // Echo the id whenever one is recoverable from the malformed
          // line, so clients correlating by id see the real error.
          reject(best_effort_id(message.payload), Framing::kJson, request.error());
        } else {
          handler.on_request(std::move(request).take(), Framing::kJson, replies);
        }
        // The WireRequest owns copies of everything it keeps; the JSON
        // document it was parsed through is dead — rewind for the next one.
        arena.reset();
        continue;
      }

      const std::uint64_t frame_id = binary::best_effort_id(message.payload);
      switch (message.frame) {
        case binary::FrameType::kRequest: {
          auto request = binary::parse_request(message.payload);
          if (!request.ok()) {
            reject(frame_id, Framing::kBinary, request.error());
          } else {
            handler.on_request(std::move(request).take(), Framing::kBinary, replies);
          }
          break;
        }
        case binary::FrameType::kSourceBegin: {
          auto begin = binary::parse_source_begin(message.payload);
          if (!begin.ok()) {
            reject(frame_id, Framing::kBinary, begin.error());
          } else if (open_streams.contains(begin.value().id)) {
            reject(begin.value().id, Framing::kBinary,
                   common::parse_error("binary: duplicate stream id"));
          } else {
            const std::uint64_t id = begin.value().id;
            if (handler.on_source_begin(std::move(begin).take(), replies)) {
              open_streams.insert(id);
            }
          }
          break;
        }
        // Chunks, End and Abort are never answered when they do not parse or
        // name no open stream: the reply to a stream is owed at its End, and
        // such a frame cannot say which stream it settles.
        case binary::FrameType::kSourceChunk: {
          auto source_chunk = binary::parse_source_chunk(message.payload);
          if (!source_chunk.ok() || !open_streams.contains(source_chunk.value().id)) {
            handler.on_protocol_error();
          } else {
            handler.on_source_chunk(source_chunk.value());
          }
          break;
        }
        case binary::FrameType::kSourceEnd: {
          auto end = binary::parse_source_end(message.payload);
          if (!end.ok() || open_streams.erase(end.value()) == 0) {
            handler.on_protocol_error();
          } else {
            handler.on_source_end(end.value(), replies);
          }
          break;
        }
        case binary::FrameType::kSourceAbort: {
          auto abort = binary::parse_source_abort(message.payload);
          if (!abort.ok() || open_streams.erase(abort.value()) == 0) {
            handler.on_protocol_error();
          } else {
            handler.on_source_abort(abort.value());
          }
          break;
        }
        case binary::FrameType::kResponse:
          reject(frame_id, Framing::kBinary,
                 common::parse_error("binary: unexpected response frame"));
          break;
      }
    }
  }
  // In-flight requests are still answered: close() lets the writer drain
  // everything already queued before it exits.
  replies.close();
  writer.join();
  handler.on_close({framing_fault, splitter.peak_buffered_bytes(), arena.peak_used_bytes()});
}

}  // namespace repro::serve
