#include "fleet/broker.hpp"

#include <algorithm>
#include <utility>

#include "common/net.hpp"
#include "serve/connection_host.hpp"
#include "serve/protocol.hpp"

namespace repro::fleet {

namespace {

// Replies are small (one JSON line); a worker that cannot absorb one within
// 30s has wedged — drop it, it will retry with backoff.
bool write_all(int fd, std::string_view data) {
  return common::net::write_all(fd, data, std::chrono::milliseconds(30000))
             .status == common::net::IoStatus::kOk;
}

}  // namespace

struct Broker::Impl {
  serve::ServiceConfig config;
  BrokerOptions options;
  std::unique_ptr<serve::ModelCache> cache;
  std::unique_ptr<serve::ConnectionHost> host;

  void serve_connection(int fd);
  [[nodiscard]] std::string answer(const std::string& line);
};

Broker::Broker() : impl_(std::make_unique<Impl>()) {}

common::Result<std::unique_ptr<Broker>> Broker::start(serve::ServiceConfig config,
                                                      const BrokerOptions& options) {
  if (options.unix_path.empty()) {
    return common::invalid_argument("Broker: unix_path is required");
  }
  if (options.cache_dir.empty()) {
    return common::invalid_argument(
        "Broker: cache_dir is required (workers load the write-through copy)");
  }
  std::unique_ptr<Broker> broker(new Broker());
  Impl& impl = *broker->impl_;
  impl.config = std::move(config);
  impl.options = options;
  impl.cache = std::make_unique<serve::ModelCache>(options.cache_capacity, options.cache_dir);
  auto host = serve::ConnectionHost::start("Broker", options.unix_path, -1,
                                           [&impl](int fd) { impl.serve_connection(fd); });
  if (!host.ok()) return host.error();
  impl.host = std::move(host).take();
  return broker;
}

std::string Broker::Impl::answer(const std::string& line) {
  auto doc = serve::parse_json(line);
  const std::uint64_t id = serve::best_effort_id(line);
  if (!doc.ok()) return serve::format_error(id, doc.error());
  const serve::JsonValue* type =
      doc.value().is_object() ? doc.value().find("type") : nullptr;
  if (type == nullptr || !type->is_string()) {
    return serve::format_error(
        id, common::parse_error("broker: request needs a string \"type\""));
  }
  const std::string_view t = type->as_string();
  if (t == "model") {
    // Train-or-load under the cache's own mutex: N workers asking at once
    // block here and the suite is fitted exactly once for the whole fleet.
    auto model = serve::Service::train_or_fetch(config, *cache);
    if (!model.ok()) return serve::format_error(id, model.error());
    const serve::ModelKey key = serve::Service::key_for(config);
    return "{\"id\":" + std::to_string(id) + ",\"status\":\"ok\",\"key\":" +
           serve::json_quote(key.to_string()) +
           ",\"path\":" + serve::json_quote(cache->disk_path(key)) + "}";
  }
  if (t == "health" || t == "stats") {
    const auto cache_stats = cache->stats();
    serve::WireStats wire;
    wire.cache_hits = cache_stats.hits + cache_stats.disk_hits;
    wire.cache_misses = cache_stats.misses;
    return t == "health" ? serve::format_health_response(id, wire)
                         : serve::format_stats_response(id, wire);
  }
  return serve::format_error(
      id, common::parse_error("broker: unknown request type \"" + std::string(t) +
                              "\""));
}

void Broker::Impl::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    // Blocking (timeout 0): workers keep the connection only for the fetch,
    // but a worker mid-backoff between retries may legitimately idle here.
    const auto r = common::net::read_some(fd, chunk, sizeof chunk,
                                          std::chrono::milliseconds(0));
    if (r.status != common::net::IoStatus::kOk) return;  // EOF, error, shutdown
    buffer.append(chunk, r.bytes);

    std::size_t start = 0;
    for (;;) {
      const auto nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string reply = answer(line);
      reply.push_back('\n');
      if (!write_all(fd, reply)) return;
    }
    buffer.erase(0, start);
    if (buffer.size() > (1u << 16)) return;  // no broker request is this long
  }
}

Broker::~Broker() {
  if (impl_ != nullptr) stop();
}

void Broker::stop() {
  if (impl_->host != nullptr) impl_->host->stop();
}

const std::string& Broker::unix_path() const noexcept { return impl_->host->unix_path(); }

const serve::ModelCache& Broker::cache() const noexcept { return *impl_->cache; }

common::Result<BrokerModelReply> fetch_model(const std::string& broker_unix_path,
                                             const serve::ConnectOptions& retry) {
  // Raw fd round trip rather than SocketClient: the reply is a broker
  // message, not a prediction, and SocketClient's typed readers would
  // reject it. Connect retry still comes from the shared backoff helper.
  // The read blocks for the whole training run when this worker is the
  // fleet's first — that can legitimately take minutes, so the fetch gets a
  // much longer io_timeout than a prediction round trip would.
  serve::ConnectOptions options = retry;
  options.io_timeout = std::max(options.io_timeout, std::chrono::milliseconds(300000));
  auto client = serve::SocketClient::connect_unix(broker_unix_path, options);
  if (!client.ok()) return client.error();
  auto reply = client.value().raw_round_trip("{\"id\":1,\"type\":\"model\"}");
  if (!reply.ok()) return reply.error();
  auto doc = serve::parse_json(reply.value());
  if (!doc.ok()) return doc.error();
  if (doc.value().is_object()) {
    if (const serve::JsonValue* error = doc.value().find("error");
        error != nullptr && error->is_object()) {
      const serve::JsonValue* message = error->find("message");
      return common::unavailable(
          "broker: " + (message != nullptr && message->is_string()
                            ? std::string(message->as_string())
                            : std::string("unknown error")));
    }
  }
  const serve::JsonValue* status =
      doc.value().is_object() ? doc.value().find("status") : nullptr;
  const serve::JsonValue* key =
      doc.value().is_object() ? doc.value().find("key") : nullptr;
  const serve::JsonValue* path =
      doc.value().is_object() ? doc.value().find("path") : nullptr;
  if (status == nullptr || !status->is_string() || status->as_string() != "ok" ||
      key == nullptr || !key->is_string() || path == nullptr || !path->is_string()) {
    return common::parse_error("broker: malformed model reply: " + reply.value());
  }
  return BrokerModelReply{std::string(key->as_string()),
                          std::string(path->as_string())};
}

}  // namespace repro::fleet
