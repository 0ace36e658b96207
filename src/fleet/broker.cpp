#include "fleet/broker.hpp"

#include <algorithm>
#include <utility>

#include "serve/connection_host.hpp"
#include "serve/protocol.hpp"

namespace repro::fleet {

struct Broker::Impl {
  serve::ServiceConfig config;
  serve::PipelineOptions pipeline;
  std::unique_ptr<serve::ModelCache> cache;
  std::unique_ptr<serve::ConnectionHost> host;

  class Connection;
};

/// One worker's connection: "model", "health" and "stats" are answered on
/// the reader thread; binary frames never arrive (accept_binary is off).
class Broker::Impl::Connection final : public serve::ConnectionHandler {
 public:
  explicit Connection(Impl& broker) : broker_(broker) {}

  void on_request(serve::WireRequest wire, serve::Framing framing,
                  serve::ReplyQueue& replies) override {
    serve::PendingReply pending(wire.id, framing);
    switch (wire.kind) {
      case serve::RequestKind::kModel: {
        // Train-or-load under the cache's own mutex: N workers asking at
        // once block here and the suite is fitted exactly once for the
        // whole fleet.
        auto model = serve::Service::train_or_fetch(broker_.config, *broker_.cache);
        if (!model.ok()) {
          format_reply_into(pending.immediate, framing, wire.id, model.error());
          break;
        }
        const serve::ModelKey key = serve::Service::key_for(broker_.config);
        format_reply_into(pending.immediate, framing, wire.id,
                          serve::WireModel{key.to_string(), broker_.cache->disk_path(key)});
        break;
      }
      case serve::RequestKind::kHealth:
      case serve::RequestKind::kStats: {
        const auto cache_stats = broker_.cache->stats();
        serve::WireStats wire_stats;
        wire_stats.cache_hits = cache_stats.hits + cache_stats.disk_hits;
        wire_stats.cache_misses = cache_stats.misses;
        format_reply_into(pending.immediate, framing, wire.id, wire.kind, wire_stats);
        break;
      }
      default:
        format_reply_into(pending.immediate, framing, wire.id,
                          serve::unserved_request(wire.kind));
        break;
    }
    replies.push(std::move(pending));
  }

  bool on_source_begin(serve::binary::SourceBegin, serve::ReplyQueue&) override {
    return false;
  }
  void on_source_chunk(const serve::binary::SourceChunk&) override {}
  void on_source_end(std::uint64_t, serve::ReplyQueue&) override {}
  void on_source_abort(std::uint64_t) override {}
  void on_protocol_error() override {}
  void on_close(const serve::ConnectionSummary&) override {}

 private:
  Impl& broker_;
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
  impl.cache = std::make_unique<serve::ModelCache>(options.cache_capacity, options.cache_dir);
  impl.pipeline.name = "Broker";
  impl.pipeline.max_message_bytes = 1 << 16;  // no broker request is this long
  impl.pipeline.accept_binary = false;
  auto host = serve::ConnectionHost::start(impl.pipeline.name, options.unix_path, -1,
                                           [&impl](int fd) {
                                             Impl::Connection connection(impl);
                                             serve::serve_pipelined(fd, impl.pipeline,
                                                                    connection);
                                           });
  if (!host.ok()) return host.error();
  impl.host = std::move(host).take();
  return broker;
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
  // The read blocks for the whole training run when this worker is the
  // fleet's first — that can legitimately take minutes, so the fetch gets a
  // much longer io_timeout than a prediction round trip would.
  serve::ConnectOptions options = retry;
  options.io_timeout = std::max(options.io_timeout, std::chrono::milliseconds(300000));
  auto client = serve::SocketClient::connect_unix(broker_unix_path, options);
  if (!client.ok()) return client.error();
  return client.value().model();
}

}  // namespace repro::fleet
