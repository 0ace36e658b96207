// The fleet's shared model-cache broker: a small JSON-lines socket service
// the workers consult before training, backed by serve::ModelCache's disk
// write-through.
//
// Without it, every worker of an N-process fleet would train the same suite
// at startup — N identical multi-second SVR fits. The broker owns the one
// ModelCache (and its shared disk directory); a worker sends the protocol's
// "model" request (serve/protocol.hpp)
//
//   {"id": 1, "type": "model"}
//
// and the broker trains (or disk-loads) the fleet's configured model —
// concurrent workers block on the same get_or_train mutex, so training
// happens exactly once — then answers with where the write-through copy
// landed:
//
//   {"id": 1, "status": "ok", "key": "<canonical key>", "path": "<file>"}
//
// The worker then points its own ModelCache at the same directory and gets
// a disk hit. Determinism is preserved across this hand-off because
// FrequencyModel's serialization round-trips exactly (asserted in
// tests/serve_test.cpp): a disk-loaded model predicts bit-identically to
// the freshly trained one.
//
// The broker also answers "stats" with its cache counters and "health"
// with a liveness reply — repro_fleet polls that at startup. It runs on
// the shared connection host and pipelined loop (serve/connection_host.hpp)
// with binary framing off; any other request kind is answered as an
// unknown request type.
#pragma once

#include <memory>
#include <string>

#include "common/status.hpp"
#include "serve/client.hpp"
#include "serve/model_cache.hpp"
#include "serve/service.hpp"

namespace repro::fleet {

struct BrokerOptions {
  /// Unix socket the broker listens on.
  std::string unix_path;
  /// Shared write-through directory; workers must use the same one.
  std::string cache_dir;
  std::size_t cache_capacity = 4;
};

class Broker {
 public:
  /// Bind, listen, and serve "model" requests for this one fleet config.
  [[nodiscard]] static common::Result<std::unique_ptr<Broker>> start(
      serve::ServiceConfig config, const BrokerOptions& options);

  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Stop accepting and join all threads. Idempotent; also run by the
  /// destructor.
  void stop();

  [[nodiscard]] const std::string& unix_path() const noexcept;
  [[nodiscard]] const serve::ModelCache& cache() const noexcept;

 private:
  Broker();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Worker-side call: ask the broker (with connect retry — the broker may
/// still be binding when a worker starts) to ensure the fleet's model is
/// trained and persisted. Returns the model's key and on-disk path. Blocks
/// for as long as training takes.
using BrokerModelReply = serve::WireModel;
[[nodiscard]] common::Result<BrokerModelReply> fetch_model(
    const std::string& broker_unix_path, const serve::ConnectOptions& retry = {});

}  // namespace repro::fleet
