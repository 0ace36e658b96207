#include "fleet/balancer.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/log.hpp"
#include "common/net.hpp"
#include "serve/connection_host.hpp"
#include "serve/protocol.hpp"

namespace repro::fleet {

namespace {

struct BackendConn {
  int fd = -1;
  bool binary = false;  // negotiated framing for this backend connection
};

common::Result<BackendConn> connect_endpoint(const BackendEndpoint& endpoint,
                                             const serve::ConnectOptions& options) {
  auto client = !endpoint.unix_path.empty()
                    ? serve::SocketClient::connect_unix(endpoint.unix_path, options)
                    : serve::SocketClient::connect_tcp(endpoint.tcp_port, options);
  if (!client.ok()) return client.error();
  // Negotiate per backend connection: a mixed fleet (some workers upgraded,
  // some not) works — each backend is spoken to in its own framing, and
  // protocol 0 just means this one stays on JSON lines. An IO failure here
  // is a connect failure (the worker died mid-handshake).
  auto version = client.value().negotiate_binary();
  if (!version.ok()) return version.error();
  BackendConn conn;
  conn.binary = version.value() >= 1;
  conn.fd = client.value().release_fd();
  return conn;
}

std::string endpoint_name(const BackendEndpoint& endpoint) {
  return !endpoint.unix_path.empty() ? endpoint.unix_path
                                     : "127.0.0.1:" + std::to_string(endpoint.tcp_port);
}

}  // namespace

struct Balancer::Impl {
  /// One forwarded request. `request` keeps the client-side id; the copy
  /// sent to a backend gets that backend's id, so the entry can move
  /// between backends (re-dispatch) without the client noticing.
  struct Pending {
    serve::WireRequest request;  // deadline_ms stays the ORIGINAL budget
    /// When the balancer took custody. Every dispatch (first try or
    /// re-dispatch) deducts the time elapsed since then from the wire
    /// deadline, so a retry can never resurrect a dead budget.
    std::chrono::steady_clock::time_point arrival;
    int attempts = 0;
    bool internal = false;  // maintenance health ping: no one awaits it
    /// A chunk-streamed predict_source. The balancer forwards its chunks as
    /// they arrive and buffers none of them, so the request can NEVER be
    /// re-dispatched — losing the backend mid-stream surfaces a retryable
    /// kUnavailable to the client, which still holds the bytes.
    bool streamed = false;
    /// Non-null when the client asked to be traced: balancer-side stages
    /// (parse/dispatch/redispatch) stamped against this balancer's own
    /// clock; the connection writer merges the worker's stages in and adds
    /// balancer.reply.
    obs::RequestTracePtr trace;
    std::promise<serve::WireResponse> promise;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  struct Backend {
    BackendEndpoint endpoint;

    /// Guards fd/generation/alive/next_id/pending. Never held across a
    /// socket write — see write_mutex.
    std::mutex state_mutex;
    int fd = -1;
    /// Bumped on every (re)connect; a dispatcher that registered against an
    /// older generation must not touch the (possibly recycled) fd.
    std::uint64_t generation = 0;
    std::atomic<bool> alive{false};
    /// Framing negotiated for the current connection (re-negotiated on every
    /// reconnect — a worker may be replaced by an older or newer binary).
    std::atomic<bool> binary{false};
    bool reader_exited = false;  // reader finished; maintenance may join+close
    std::uint64_t next_id = 1;
    std::map<std::uint64_t, PendingPtr> pending;  // ordered: redispatch in id order

    /// Serializes writes from concurrent client connections; close() takes
    /// both mutexes, so a write never races the fd teardown.
    std::mutex write_mutex;

    std::atomic<std::size_t> outstanding{0};
    std::atomic<std::uint64_t> routed{0};
    std::thread reader;

    // Maintenance bookkeeping (maintenance thread only).
    std::chrono::steady_clock::time_point next_reconnect{};
    std::chrono::milliseconds backoff{50};

    // Last health-ping answers (state_mutex).
    double last_uptime_s = 0.0;
    std::uint64_t last_queue_depth = 0;
  };

  BalancerOptions options;
  /// Resolved buffer pool (options.buffer_pool or the process-global one);
  /// backs every splitter's input buffer on both sides of the balancer.
  common::BufferPool* pool = nullptr;
  std::vector<std::unique_ptr<Backend>> backends;
  std::atomic<std::size_t> rr_next{0};
  std::chrono::steady_clock::time_point started = std::chrono::steady_clock::now();

  serve::PipelineOptions pipeline;
  std::unique_ptr<serve::ConnectionHost> host;

  std::thread maintenance;
  std::atomic<bool> stopping{false};
  std::once_flag stop_once;

  mutable std::mutex stats_mutex;
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t redispatches = 0;
  std::uint64_t backend_failures = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t peak_message_bytes = 0;

  /// The balancer's own metrics (see BalancerOptions::registry for why the
  /// default is private, not global). Counter pointers are resolved once at
  /// start; gauges are set at scrape time by gather_metrics.
  obs::Registry owned_registry;
  obs::Registry* registry = nullptr;
  obs::Counter* obs_requests = nullptr;
  obs::Counter* obs_dispatches = nullptr;
  obs::Counter* obs_redispatches = nullptr;
  obs::Counter* obs_backend_failures = nullptr;
  obs::Counter* obs_reconnects = nullptr;

  class Connection;
  void serve_connection(int fd);
  void maintenance_loop();
  void count_request();
  void count_protocol_error();

  /// Start the backend's reader thread. When no thread can be had the
  /// connection counts as a failed (re)connect: its fd is closed and the
  /// backend is left dead for maintenance to retry. False in that case.
  bool start_reader(Backend& backend);
  void backend_reader(Backend& backend);
  void teardown_backend(Backend& backend);
  Backend* pick_backend(bool need_binary = false);
  void dispatch(const PendingPtr& pending);
  void fail_pending(const PendingPtr& pending, const common::Error& error);
  void send_health_ping(Backend& backend);
  /// Register + write a balancer-originated request addressed to this one
  /// backend, bypassing pick_backend — health pings and metrics scrapes are
  /// per-backend by nature. Sent as a JSON line (framing is detected per
  /// message, so it interleaves safely with binary traffic). On failure the
  /// entry is reclaimed, the reader is woken to run the teardown, and the
  /// pending promise resolves with a retryable error.
  void send_to_backend(Backend& backend, const PendingPtr& pending);
  /// Where a sent request went: its id on the backend connection and that
  /// connection's generation.
  struct Sent {
    std::uint64_t id = 0;
    std::uint64_t generation = 0;
  };
  /// Register `pending` on `backend` under a fresh backend id and write the
  /// bytes `encode(id)` returns. Empty when the backend is dead or the write
  /// failed; `lost` then says whether the backend's teardown already took
  /// the entry over (it answers or re-dispatches it — hands off).
  template <typename Encode>
  std::optional<Sent> send(Backend& backend, const PendingPtr& pending, bool& lost,
                           Encode&& encode);
  /// Write to the backend connection of `generation`; false once it is gone.
  bool write_to(Backend& backend, std::uint64_t generation, std::string_view bytes);
  /// One bounded round of per-backend "metrics" scrapes, merged with the
  /// balancer's own registry.
  [[nodiscard]] serve::WireMetrics gather_metrics();
  [[nodiscard]] serve::WireStats own_wire_stats();
};

Balancer::Balancer() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<Balancer>> Balancer::start(
    std::vector<BackendEndpoint> backends, const BalancerOptions& options) {
  if (backends.empty()) {
    return common::invalid_argument("Balancer: need at least one backend");
  }
  std::unique_ptr<Balancer> balancer(new Balancer());
  Impl& impl = *balancer->impl_;
  impl.options = options;
  impl.pool = options.buffer_pool != nullptr ? options.buffer_pool
                                             : &common::BufferPool::global();
  impl.registry = options.registry != nullptr ? options.registry : &impl.owned_registry;
  impl.obs_requests = impl.registry->counter("repro_balancer_requests_total");
  impl.obs_dispatches = impl.registry->counter("repro_balancer_dispatches_total");
  impl.obs_redispatches = impl.registry->counter("repro_balancer_redispatches_total");
  impl.obs_backend_failures =
      impl.registry->counter("repro_balancer_backend_failures_total");
  impl.obs_reconnects = impl.registry->counter("repro_balancer_reconnects_total");

  // Backends first: a balancer that cannot reach its fleet should fail
  // loudly at startup, not accept clients it cannot serve. The connect
  // backoff rides out workers that are still binding their sockets.
  for (auto& endpoint : backends) {
    auto backend = std::make_unique<Impl::Backend>();
    backend->endpoint = std::move(endpoint);
    auto conn = connect_endpoint(backend->endpoint, options.connect);
    if (!conn.ok()) return conn.error();
    backend->fd = conn.value().fd;
    backend->binary.store(conn.value().binary, std::memory_order_release);
    backend->generation = 1;
    backend->alive.store(true, std::memory_order_release);
    impl.backends.push_back(std::move(backend));
  }
  for (auto& backend : impl.backends) impl.start_reader(*backend);

  impl.pipeline.name = "Balancer";
  impl.pipeline.max_message_bytes = options.max_line_bytes;
  impl.pipeline.max_inflight = options.max_inflight;
  impl.pipeline.write_timeout = options.io_timeout;
  impl.pipeline.reply_stage = "balancer.reply";
  impl.pipeline.pool = impl.pool;
  auto host = serve::ConnectionHost::start(impl.pipeline.name, options.unix_path,
                                           options.tcp_port,
                                           [&impl](int fd) { impl.serve_connection(fd); });
  if (!host.ok()) return host.error();
  impl.host = std::move(host).take();
  if (!serve::try_spawn(impl.maintenance, [&impl] { impl.maintenance_loop(); })) {
    return common::unavailable("Balancer: cannot start the maintenance thread");
  }
  return balancer;
}

// --- backend side -------------------------------------------------------------

bool Balancer::Impl::start_reader(Backend& backend) {
  if (serve::try_spawn(backend.reader, [this, &backend] { backend_reader(backend); })) {
    return true;
  }
  common::log_warn() << "Balancer: no thread to read backend "
                     << endpoint_name(backend.endpoint) << "; will reconnect";
  // Both mutexes: no dispatcher can be mid-write on the fd.
  std::lock_guard wlock(backend.write_mutex);
  std::lock_guard slock(backend.state_mutex);
  backend.alive.store(false, std::memory_order_release);
  ::close(backend.fd);
  backend.fd = -1;
  return false;
}

void Balancer::Impl::backend_reader(Backend& backend) {
  const int fd = backend.fd;  // stable for this reader's lifetime
  serve::MessageSplitter splitter(options.max_line_bytes, /*accept_binary=*/true,
                                  pool);
  char chunk[4096];
  bool read_loop_done = false;
  // Progress-based liveness: read in short ticks; a backend that stays
  // silent past io_timeout *while it owes replies* is declared dead (its
  // pending re-dispatch via teardown). An idle connection — nothing
  // outstanding — can stay quiet forever; quiet is not dead.
  auto last_progress = std::chrono::steady_clock::now();
  while (!read_loop_done) {
    const auto r = common::net::read_some(fd, chunk, sizeof chunk,
                                          std::chrono::milliseconds(250));
    if (r.status == common::net::IoStatus::kTimeout) {
      if (backend.outstanding.load(std::memory_order_relaxed) == 0) {
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (options.io_timeout.count() > 0 &&
          std::chrono::steady_clock::now() - last_progress >= options.io_timeout) {
        common::log_warn() << "Balancer: backend "
                           << endpoint_name(backend.endpoint)
                           << " silent past io_timeout with requests "
                              "outstanding; tearing down";
        break;
      }
      continue;
    }
    if (r.status != common::net::IoStatus::kOk) break;  // EOF, error, shutdown
    last_progress = std::chrono::steady_clock::now();
    splitter.feed(std::string_view(chunk, r.bytes));

    for (;;) {
      auto next = splitter.next();
      if (!next.ok()) {
        common::log_warn() << "Balancer: framing fault from "
                           << endpoint_name(backend.endpoint) << ": "
                           << next.error().to_string();
        read_loop_done = true;
        break;
      }
      if (!next.value().has_value()) break;  // need more bytes
      const serve::WireMessage& message = *next.value();

      auto response = serve::parse_response(message);
      if (!response.ok()) {
        // A worker speaking gibberish cannot be correlated to a pending
        // entry; drop the connection and let teardown re-dispatch.
        common::log_warn() << "Balancer: unparseable response from "
                           << endpoint_name(backend.endpoint) << ": "
                           << response.error().to_string();
        read_loop_done = true;
        break;
      }
      PendingPtr pending;
      {
        std::lock_guard lock(backend.state_mutex);
        const auto it = backend.pending.find(response.value().id);
        if (it != backend.pending.end()) {
          pending = it->second;
          backend.pending.erase(it);
        }
      }
      if (pending == nullptr) continue;  // stale id; nothing owed
      backend.outstanding.fetch_sub(1, std::memory_order_relaxed);
      if (pending->internal) {
        if (response.value().stats.has_value()) {
          std::lock_guard lock(backend.state_mutex);
          backend.last_uptime_s = response.value().stats->uptime_s;
          backend.last_queue_depth = response.value().stats->queue_depth;
        }
        continue;
      }
      if (response.value().error.has_value() &&
          response.value().error->code == common::ErrorCode::kUnavailable &&
          !pending->streamed && !stopping.load(std::memory_order_acquire)) {
        // The worker is draining for a graceful restart — move the request
        // to a live worker instead of surfacing the refusal. A streamed
        // request cannot move (its chunks were never buffered here): the
        // refusal goes back to the client, which can retry the stream.
        {
          std::lock_guard lock(stats_mutex);
          ++redispatches;
        }
        obs_redispatches->inc();
        dispatch(pending);
        continue;
      }
      pending->promise.set_value(std::move(response.value()));
    }
    if (read_loop_done) break;
  }
  teardown_backend(backend);
}

void Balancer::Impl::teardown_backend(Backend& backend) {
  std::map<std::uint64_t, PendingPtr> orphans;
  {
    std::lock_guard lock(backend.state_mutex);
    backend.alive.store(false, std::memory_order_release);
    orphans.swap(backend.pending);
    if (backend.fd >= 0) ::shutdown(backend.fd, SHUT_RDWR);
    backend.reader_exited = true;
  }
  backend.outstanding.fetch_sub(orphans.size(), std::memory_order_relaxed);
  if (!orphans.empty() || !stopping.load(std::memory_order_acquire)) {
    {
      std::lock_guard lock(stats_mutex);
      ++backend_failures;
      redispatches += orphans.size();
    }
    obs_backend_failures->inc();
    obs_redispatches->inc(orphans.size());
  }
  // Re-dispatch in backend-id (= send) order. Order cannot change reply
  // bytes — each reply depends only on its own request — it just keeps the
  // failover deterministic and easy to reason about. A partially-streamed
  // request is the one thing that can NOT move: its chunks were forwarded,
  // not buffered, so only the client can replay them. It fails retryably.
  for (auto& [id, pending] : orphans) {
    (void)id;
    if (pending->internal) continue;
    if (pending->streamed) {
      fail_pending(pending,
                   common::unavailable("Balancer: backend lost mid-stream"));
      continue;
    }
    dispatch(pending);
  }
}

Balancer::Impl::Backend* Balancer::Impl::pick_backend(bool need_binary) {
  // Least-loaded among the live backends; the rotating scan start makes
  // ties round-robin (the fallback when loads are equal, e.g. all zero).
  // A chunk stream needs a binary-framing backend — its chunks cannot be
  // expressed on a JSON-only connection.
  const std::size_t n = backends.size();
  const std::size_t start = rr_next.fetch_add(1, std::memory_order_relaxed) % n;
  Backend* best = nullptr;
  std::size_t best_load = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Backend* candidate = backends[(start + i) % n].get();
    if (!candidate->alive.load(std::memory_order_acquire)) continue;
    if (need_binary && !candidate->binary.load(std::memory_order_acquire)) continue;
    const std::size_t load = candidate->outstanding.load(std::memory_order_relaxed);
    if (best == nullptr || load < best_load) {
      best = candidate;
      best_load = load;
    }
  }
  return best;
}

void Balancer::Impl::fail_pending(const PendingPtr& pending,
                                  const common::Error& error) {
  if (pending->internal) return;
  serve::WireResponse response;
  response.id = pending->request.id;
  response.error = error;
  pending->promise.set_value(std::move(response));
}

void Balancer::Impl::dispatch(const PendingPtr& pending) {
  for (;;) {
    if (stopping.load(std::memory_order_acquire)) {
      fail_pending(pending, common::unavailable("Balancer: shutting down"));
      return;
    }
    if (pending->attempts >= options.max_dispatch_attempts) {
      fail_pending(pending,
                   common::unavailable("Balancer: request re-dispatched " +
                                       std::to_string(pending->attempts) +
                                       " times without an answer"));
      return;
    }
    // Deadline accounting happens here, once per dispatch attempt: whatever
    // the client's budget was, the backend only gets what is left of it.
    // When nothing is left the request fails *here* — a re-dispatch must
    // not resurrect a deadline the first attempt already spent.
    double remaining_ms = 0.0;
    if (pending->request.deadline_ms.has_value()) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - pending->arrival)
              .count();
      remaining_ms = *pending->request.deadline_ms - elapsed_ms;
      if (remaining_ms <= 0.0) {
        fail_pending(pending, common::deadline_exceeded(
                                  "Balancer: deadline budget exhausted after " +
                                  std::to_string(pending->attempts) +
                                  " dispatch attempt(s)"));
        return;
      }
    }
    Backend* backend = pick_backend();
    if (backend == nullptr) {
      fail_pending(pending, common::unavailable("Balancer: no live workers"));
      return;
    }
    ++pending->attempts;
    obs::stamp(pending->trace, pending->attempts == 1 ? "balancer.dispatch"
                                                      : "balancer.redispatch");

    // Speak the backend's negotiated framing; the request itself is
    // framing-agnostic, so JSON clients ride binary backends and vice versa.
    bool lost = false;
    const auto sent = send(*backend, pending, lost, [&](std::uint64_t backend_id) {
      serve::WireRequest request = pending->request;
      request.id = backend_id;
      if (request.deadline_ms.has_value()) request.deadline_ms = remaining_ms;
      std::string line;
      serve::format_request_into(line,
                                 backend->binary.load(std::memory_order_acquire)
                                     ? serve::Framing::kBinary
                                     : serve::Framing::kJson,
                                 request);
      return line;
    });
    if (sent.has_value()) {
      backend->routed.fetch_add(1, std::memory_order_relaxed);
      obs_dispatches->inc();
      return;
    }
    if (lost) return;  // teardown owns the re-dispatch; must not double it
  }
}

bool Balancer::Impl::write_to(Backend& backend, std::uint64_t generation,
                              std::string_view bytes) {
  // write_mutex serializes concurrent client connections onto the one
  // backend connection; the generation check keeps a writer that lost a
  // race with reconnect off the new connection's fd.
  std::lock_guard wlock(backend.write_mutex);
  std::lock_guard slock(backend.state_mutex);
  if (backend.generation != generation || backend.fd < 0) return false;
  return common::net::write_all(backend.fd, bytes, options.io_timeout).status ==
         common::net::IoStatus::kOk;
}

template <typename Encode>
std::optional<Balancer::Impl::Sent> Balancer::Impl::send(Backend& backend,
                                                         const PendingPtr& pending,
                                                         bool& lost, Encode&& encode) {
  lost = false;
  Sent sent;
  {
    std::lock_guard lock(backend.state_mutex);
    if (!backend.alive.load(std::memory_order_relaxed)) return std::nullopt;
    sent.id = backend.next_id++;
    sent.generation = backend.generation;
    backend.pending.emplace(sent.id, pending);
  }
  backend.outstanding.fetch_add(1, std::memory_order_relaxed);
  if (write_to(backend, sent.generation, encode(sent.id))) return sent;
  // Write failed (worker died between pick and write). Wake the reader so
  // teardown runs, and reclaim the entry unless teardown already took it.
  {
    std::lock_guard lock(backend.state_mutex);
    lost = backend.pending.erase(sent.id) == 0;
    if (backend.generation == sent.generation && backend.fd >= 0) {
      ::shutdown(backend.fd, SHUT_RDWR);
    }
  }
  if (!lost) backend.outstanding.fetch_sub(1, std::memory_order_relaxed);
  return std::nullopt;
}

void Balancer::Impl::send_to_backend(Backend& backend, const PendingPtr& pending) {
  bool lost = false;
  const auto sent = send(backend, pending, lost, [&](std::uint64_t backend_id) {
    serve::WireRequest request = pending->request;
    request.id = backend_id;
    std::string line;
    serve::format_request_into(line, serve::Framing::kJson, request);
    return line;
  });
  if (!sent.has_value() && !lost) {
    fail_pending(pending, common::unavailable("Balancer: backend unreachable"));
  }
}

void Balancer::Impl::send_health_ping(Backend& backend) {
  auto pending = std::make_shared<Pending>();
  pending->internal = true;
  pending->request.kind = serve::RequestKind::kHealth;
  send_to_backend(backend, pending);
}

serve::WireMetrics Balancer::Impl::gather_metrics() {
  // Scrape every live worker over its existing backend connection. The
  // pending entries are marked streamed so they can never re-dispatch — a
  // snapshot is per-backend; moving it would answer for the wrong worker —
  // and a backend lost mid-scrape resolves them with an error via teardown,
  // which the merge below simply skips.
  std::vector<std::future<serve::WireResponse>> probes;
  for (auto& backend : backends) {
    if (!backend->alive.load(std::memory_order_acquire)) continue;
    auto pending = std::make_shared<Pending>();
    pending->streamed = true;
    pending->request.kind = serve::RequestKind::kMetrics;
    pending->arrival = std::chrono::steady_clock::now();
    probes.push_back(pending->promise.get_future());
    send_to_backend(*backend, pending);
  }

  // Merge rule: counters and sums add across workers; per-worker quantile
  // and max expansions take the max (a fleet p99 is at least some worker's
  // p99 — summing them would be meaningless).
  const auto merged_by_max = [](std::string_view name) {
    for (std::string_view suffix : {"_p50_us", "_p95_us", "_p99_us", "_max_us"}) {
      if (name.size() >= suffix.size() &&
          name.substr(name.size() - suffix.size()) == suffix) {
        return true;
      }
    }
    return false;
  };
  std::map<std::string, double> merged;
  const auto merge_value = [&](const std::string& name, double value) {
    auto [it, inserted] = merged.emplace(name, value);
    if (!inserted) {
      it->second =
          merged_by_max(name) ? std::max(it->second, value) : it->second + value;
    }
  };
  // Workers answer metrics inline, so a short budget covers the fleet; one
  // that cannot answer in time is skipped rather than wedging the scrape.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::size_t scraped = 0;
  for (auto& probe : probes) {
    if (probe.wait_until(deadline) != std::future_status::ready) continue;
    serve::WireResponse response = probe.get();
    if (!response.metrics.has_value()) continue;
    ++scraped;
    for (const auto& [name, value] : response.metrics->values) {
      merge_value(name, value);
    }
  }

  // The balancer's own registry rides along (names are disjoint by the
  // repro_balancer_ prefix), with its gauges stamped at scrape time.
  registry->gauge("repro_balancer_uptime_seconds")
      ->set(std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                .count());
  std::size_t outstanding = 0;
  std::size_t alive = 0;
  for (const auto& backend : backends) {
    outstanding += backend->outstanding.load(std::memory_order_relaxed);
    if (backend->alive.load(std::memory_order_acquire)) ++alive;
  }
  registry->gauge("repro_balancer_pending")->set(static_cast<double>(outstanding));
  registry->gauge("repro_balancer_backends_alive")->set(static_cast<double>(alive));
  registry->gauge("repro_balancer_backends_scraped")->set(static_cast<double>(scraped));
  for (const auto& [name, value] : registry->snapshot_values()) {
    merge_value(name, value);
  }

  serve::WireMetrics wire;
  wire.values.assign(merged.begin(), merged.end());
  // Regenerated flat text: per-worker histogram buckets do not survive the
  // merge (scrape a worker directly for its bucket lines).
  std::string text = "# merged across " + std::to_string(scraped) + " worker(s)\n";
  char buffer[64];
  for (const auto& [name, value] : merged) {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    text += name;
    text += ' ';
    text += buffer;
    text += '\n';
  }
  wire.text = std::move(text);
  return wire;
}

void Balancer::Impl::maintenance_loop() {
  auto last_ping = std::chrono::steady_clock::now();
  while (!stopping.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = std::chrono::steady_clock::now();

    for (auto& backend_ptr : backends) {
      Backend& backend = *backend_ptr;
      bool joinable = false;
      {
        std::lock_guard lock(backend.state_mutex);
        joinable = backend.reader_exited && backend.reader.joinable();
      }
      if (joinable) {
        backend.reader.join();
        // Both mutexes: no dispatcher can be mid-write on the fd.
        std::lock_guard wlock(backend.write_mutex);
        std::lock_guard slock(backend.state_mutex);
        if (backend.fd >= 0) ::close(backend.fd);
        backend.fd = -1;
        backend.reader_exited = false;
        backend.next_reconnect = now;  // eligible immediately
      }

      bool want_reconnect = false;
      {
        std::lock_guard lock(backend.state_mutex);
        want_reconnect = backend.fd < 0 && !backend.reader.joinable() &&
                         now >= backend.next_reconnect;
      }
      if (want_reconnect) {
        serve::ConnectOptions one_shot;  // backoff lives in next_reconnect
        auto conn = connect_endpoint(backend.endpoint, one_shot);
        if (conn.ok()) {
          std::lock_guard lock(backend.state_mutex);
          backend.fd = conn.value().fd;
          backend.binary.store(conn.value().binary, std::memory_order_release);
          ++backend.generation;
          backend.alive.store(true, std::memory_order_release);
        }
        if (conn.ok() && start_reader(backend)) {
          backend.backoff = std::chrono::milliseconds(50);
          {
            std::lock_guard lock(stats_mutex);
            ++reconnects;
          }
          obs_reconnects->inc();
          common::log_info() << "Balancer: reconnected to "
                             << endpoint_name(backend.endpoint);
        } else {
          backend.backoff = std::min(backend.backoff * 2,
                                     std::chrono::milliseconds(2000));
          backend.next_reconnect = now + backend.backoff;
        }
      }
    }

    if (options.health_interval.count() > 0 && now - last_ping >= options.health_interval) {
      last_ping = now;
      for (auto& backend : backends) {
        if (backend->alive.load(std::memory_order_acquire)) {
          send_health_ping(*backend);
        }
      }
    }
  }
}

// --- client side --------------------------------------------------------------

void Balancer::Impl::count_request() {
  {
    std::lock_guard lock(stats_mutex);
    ++requests;
  }
  obs_requests->inc();
}

void Balancer::Impl::count_protocol_error() {
  std::lock_guard lock(stats_mutex);
  ++protocol_errors;
}

serve::WireStats Balancer::Impl::own_wire_stats() {
  serve::WireStats wire;
  wire.uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  std::size_t outstanding = 0;
  for (const auto& backend : backends) {
    outstanding += backend->outstanding.load(std::memory_order_relaxed);
  }
  wire.queue_depth = outstanding;
  std::lock_guard lock(stats_mutex);
  wire.requests = requests;
  wire.connections = connections;
  wire.protocol_errors = protocol_errors;
  wire.peak_message_bytes = peak_message_bytes;
  return wire;
}

/// The client side of one connection. A reply comes from a promise
/// fulfilled by whichever backend reader ends up holding the request;
/// chunk streams are forwarded frame by frame, never buffered.
class Balancer::Impl::Connection final : public serve::ConnectionHandler {
 public:
  explicit Connection(Impl& balancer) : balancer_(balancer) {}

  void on_request(serve::WireRequest wire, serve::Framing framing,
                  serve::ReplyQueue& replies) override {
    serve::PendingReply pending(wire.id, framing);
    switch (wire.kind) {
      case serve::RequestKind::kHello:
        // The balancer negotiates for itself: its client-facing connection
        // always speaks both framings, whatever the workers speak.
        format_reply_into(pending.immediate, framing, wire.id,
                          std::min(wire.max_protocol, serve::kProtocolVersion));
        replies.push(std::move(pending));
        return;
      case serve::RequestKind::kHealth:
      case serve::RequestKind::kStats:
        // The balancer answers for itself — a client asking the fleet
        // endpoint for health wants the fleet front, not one worker.
        format_reply_into(pending.immediate, framing, wire.id, wire.kind,
                          balancer_.own_wire_stats());
        replies.push(std::move(pending));
        return;
      case serve::RequestKind::kMetrics:
        // Aggregation runs on this reader thread: scrapes come from
        // dedicated monitoring connections (repro_top), and the gather is
        // bounded, so stalling this connection's decode briefly is fine.
        format_reply_into(pending.immediate, framing, wire.id, balancer_.gather_metrics());
        replies.push(std::move(pending));
        return;
      case serve::RequestKind::kModel:
        // The fleet broker's kind: the balancer answers it as unknown.
        balancer_.count_protocol_error();
        serve::push_error(replies, wire.id, framing, serve::unserved_request(wire.kind));
        return;
      case serve::RequestKind::kPredict:
      case serve::RequestKind::kPredictSource:
        break;
    }
    balancer_.count_request();
    auto forwarded = std::make_shared<Pending>();
    forwarded->request = std::move(wire);
    forwarded->arrival = std::chrono::steady_clock::now();
    if (forwarded->request.trace.has_value()) {
      forwarded->trace = std::make_shared<obs::RequestTrace>(*forwarded->request.trace);
      forwarded->trace->stamp("balancer.parse");
      pending.trace = forwarded->trace;
    }
    pending.forwarded = forwarded->promise.get_future();
    // Push before dispatch: the queue bound is the pipelining window, and
    // it must count this request before the next message is decoded.
    replies.push(std::move(pending));
    balancer_.dispatch(forwarded);
  }

  bool on_source_begin(serve::binary::SourceBegin open,
                       serve::ReplyQueue& replies) override {
    balancer_.count_request();
    auto entry = std::make_shared<Pending>();
    entry->streamed = true;
    entry->request.id = open.id;
    entry->request.kind = serve::RequestKind::kPredictSource;
    entry->request.deadline_ms = open.deadline_ms;
    entry->arrival = std::chrono::steady_clock::now();
    // Route selection retries write failures like dispatch(), but only for
    // the Begin frame — once a chunk has been forwarded the stream is
    // pinned to its backend.
    while (entry->attempts < balancer_.options.max_dispatch_attempts &&
           !balancer_.stopping.load(std::memory_order_acquire)) {
      Backend* backend = balancer_.pick_backend(/*need_binary=*/true);
      if (backend == nullptr) break;
      ++entry->attempts;
      serve::binary::SourceBegin fwd{0, open.kernel, open.deadline_ms};
      bool lost = false;
      const auto sent = balancer_.send(*backend, entry, lost, [&](std::uint64_t backend_id) {
        fwd.id = backend_id;
        return serve::binary::format_source_begin(fwd);
      });
      if (sent.has_value()) {
        backend->routed.fetch_add(1, std::memory_order_relaxed);
        routes_.emplace(open.id, StreamRoute{backend, *sent, entry, false});
        return true;
      }
      if (lost) break;  // teardown failed the entry; it must not be routed again
    }
    serve::push_error(replies, open.id, serve::Framing::kBinary,
                      common::unavailable("Balancer: no stream-capable worker"));
    return false;
  }

  void on_source_chunk(const serve::binary::SourceChunk& chunk) override {
    StreamRoute& route = routes_.at(chunk.id);
    // Backend died mid-stream: the teardown fails the pending entry with a
    // retryable error; stop forwarding, keep the route so the client's End
    // still collects that error in order.
    if (!route.broken &&
        !forward(route, serve::binary::format_source_chunk(route.sent.id, chunk.data))) {
      route.broken = true;
    }
  }

  void on_source_end(std::uint64_t id, serve::ReplyQueue& replies) override {
    const StreamRoute route = std::move(routes_.extract(id).mapped());
    if (!route.broken) (void)forward(route, serve::binary::format_source_end(route.sent.id));
    // The reply slot is taken at End — matching the worker, which also
    // answers streams at End; a broken route's promise is resolved by the
    // backend teardown, never left dangling.
    serve::PendingReply pending(id, serve::Framing::kBinary);
    pending.forwarded = route.pending->promise.get_future();
    replies.push(std::move(pending));
  }

  void on_source_abort(std::uint64_t id) override {
    drop(routes_.extract(id).mapped());
  }

  void on_protocol_error() override { balancer_.count_protocol_error(); }

  void on_close(const serve::ConnectionSummary& summary) override {
    // A connection that dies with open streams: tell their backends to drop
    // the half-streamed requests, so a worker never waits on chunks that
    // can no longer arrive.
    for (auto& [id, route] : routes_) {
      (void)id;
      drop(route);
    }
    std::lock_guard lock(balancer_.stats_mutex);
    balancer_.peak_message_bytes =
        std::max(balancer_.peak_message_bytes, summary.peak_message_bytes);
    if (summary.framing_fault) ++balancer_.protocol_errors;
  }

 private:
  /// One live chunk stream: where its frames are being forwarded.
  struct StreamRoute {
    Backend* backend = nullptr;
    Sent sent;
    PendingPtr pending;
    bool broken = false;  // forwarding failed; End still surfaces the error
  };

  bool forward(const StreamRoute& route, std::string_view bytes) {
    return balancer_.write_to(*route.backend, route.sent.generation, bytes);
  }

  /// Abort a half-streamed request on its backend (best effort) and reclaim
  /// its pending entry: the worker never answers an abort, and backend ids
  /// are never reused, so a stale erase is a harmless no-op.
  void drop(const StreamRoute& route) {
    if (!route.broken) {
      (void)forward(route, serve::binary::format_source_abort(route.sent.id));
    }
    std::lock_guard lock(route.backend->state_mutex);
    if (route.backend->pending.erase(route.sent.id) > 0) {
      route.backend->outstanding.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  Impl& balancer_;
  std::unordered_map<std::uint64_t, StreamRoute> routes_;
};

void Balancer::Impl::serve_connection(int fd) {
  {
    std::lock_guard lock(stats_mutex);
    ++connections;
  }
  Connection connection(*this);
  serve::serve_pipelined(fd, pipeline, connection);
}

// --- lifecycle ----------------------------------------------------------------

Balancer::~Balancer() {
  if (impl_ != nullptr) stop();
}

void Balancer::stop() {
  std::call_once(impl_->stop_once, [this] {
    Impl& impl = *impl_;
    impl.stopping.store(true, std::memory_order_release);
    if (impl.maintenance.joinable()) impl.maintenance.join();

    // Backends first: readers exit, teardown fails whatever is pending with
    // "unavailable" (stopping suppresses re-dispatch), so every client
    // future is resolved before the host drains the connection writers.
    for (auto& backend : impl.backends) {
      std::lock_guard lock(backend->state_mutex);
      if (backend->fd >= 0) ::shutdown(backend->fd, SHUT_RDWR);
    }
    for (auto& backend : impl.backends) {
      if (backend->reader.joinable()) backend->reader.join();
      std::lock_guard wlock(backend->write_mutex);
      std::lock_guard slock(backend->state_mutex);
      if (backend->fd >= 0) ::close(backend->fd);
      backend->fd = -1;
    }
    if (impl.host != nullptr) impl.host->stop();
  });
}

int Balancer::tcp_port() const noexcept { return impl_->host->tcp_port(); }

const std::string& Balancer::unix_path() const noexcept {
  return impl_->host->unix_path();
}

Balancer::Stats Balancer::stats() const {
  Stats out;
  {
    std::lock_guard lock(impl_->stats_mutex);
    out.connections = impl_->connections;
    out.requests = impl_->requests;
    out.protocol_errors = impl_->protocol_errors;
    out.redispatches = impl_->redispatches;
    out.backend_failures = impl_->backend_failures;
    out.reconnects = impl_->reconnects;
    out.peak_message_bytes = impl_->peak_message_bytes;
  }
  out.routed.reserve(impl_->backends.size());
  for (const auto& backend : impl_->backends) {
    out.routed.push_back(backend->routed.load(std::memory_order_relaxed));
  }
  return out;
}

std::size_t Balancer::alive_backends() const {
  std::size_t alive = 0;
  for (const auto& backend : impl_->backends) {
    if (backend->alive.load(std::memory_order_acquire)) ++alive;
  }
  return alive;
}

}  // namespace repro::fleet
