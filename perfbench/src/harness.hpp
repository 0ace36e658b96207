// The load generator and its instruments: an open-loop client that sends on
// a schedule over persistent wire connections (or into an in-process
// serve::Service), checks every reply bit-for-bit against a direct
// core::Predictor reference, and times each request from when it was due.
// Also: the in-process serving topology under test, process counters, and
// the traced run's span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/predictor.hpp"
#include "fleet/balancer.hpp"
#include "inputs.hpp"
#include "obs/trace.hpp"
#include "serve/model_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- spans --------------------------------------------------------------------

/// One timed call into a layer: name, start and end (µs since the log's t0),
/// the span that caused it (-1 for none) and the request it served (0 for
/// none). Spans stay in memory and are written out once, at exit.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Record a finished span; returns its index (the parent handle of its
  /// children), or -1 when the log is disabled.
  std::int64_t add(std::string_view name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = -1, std::uint64_t request = 0);
  /// Start a span that ends at close(): for a parent whose children are
  /// recorded before it finishes. -1 (and close() a no-op) when disabled.
  std::int64_t open(std::string_view name, std::int64_t parent = -1);
  void close(std::int64_t span);
  /// Durations (µs) of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  /// One JSON object per line: {"name","start_us","end_us","parent","request"}.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// --- process counters ---------------------------------------------------------

struct ProcUsage {
  double cpu_us = 0.0;   // user + sys
  double ctxsw = 0.0;    // voluntary + involuntary context switches
};
/// RUSAGE_SELF: the whole process.
[[nodiscard]] ProcUsage process_usage();
/// RUSAGE_THREAD: user + sys µs of the calling thread.
[[nodiscard]] double thread_cpu_us();
/// A numeric field of /proc/self/status ("VmHWM" in kB, "Threads"); -1 if absent.
[[nodiscard]] long proc_status_field(const char* key);

/// The machine's CPU time so far from /proc/stat's "cpu" line, in clock
/// ticks: all of it, and the part a hypervisor gave to other guests (steal).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] HostTicks host_ticks();
/// The share of the machine's CPU time stolen between two readings.
[[nodiscard]] double steal_share(const HostTicks& before, const HostTicks& after);

// --- the serving topology -----------------------------------------------------

/// The fleet the benchmark drives, wired the way repro_fleet wires it by
/// default but inside this process: two workers, each a serve::Service
/// (2 shards, 200 µs window, max_batch 16) behind a SocketServer on a Unix
/// socket, and a fleet::Balancer on TCP loopback in front. The model is
/// trained once through a fresh on-disk ModelCache (the broker's role) and
/// shared by both workers.
struct Fleet {
  std::string dir;
  std::unique_ptr<repro::serve::ModelCache> cache;
  std::shared_ptr<const repro::core::FrequencyModel> model;
  std::vector<std::unique_ptr<repro::serve::Service>> services;
  std::vector<std::unique_ptr<repro::serve::SocketServer>> servers;
  std::unique_ptr<repro::fleet::Balancer> balancer;       // TCP loopback
  std::unique_ptr<repro::fleet::Balancer> unix_balancer;  // traced run only

  Fleet() = default;
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// A second balancer over the same workers, listening on a Unix socket:
  /// the traced run's client-hop comparison.
  [[nodiscard]] repro::common::Status start_unix_balancer();
};

/// The workers' service configuration: the paper's default model, or the
/// reduced one (every 4th micro-benchmark, 16 configurations).
[[nodiscard]] repro::serve::ServiceConfig service_config(bool reduced_model);

/// Train through a fresh ModelCache under `dir` (recording a "core.train"
/// span under `parent`), then start the workers and the TCP balancer.
[[nodiscard]] repro::common::Result<std::unique_ptr<Fleet>> start_fleet(
    const repro::serve::ServiceConfig& config, const std::string& dir, SpanLog& spans,
    std::int64_t parent);

// --- wire client ---------------------------------------------------------------

/// What a request carries: feature counts ("predict") or source
/// ("predict_source").
enum class Payload { kFeatures, kSource };

/// A client connection owned by the generator. Connected through the
/// library's SocketClient (its connect and hello negotiation), then driven
/// on the raw descriptor so one thread can send on schedule while another
/// reads replies.
///
/// With `prompt_acks` a TCP connection behaves like a latency-aware RPC
/// client: TCP_NODELAY, and TCP_QUICKACK re-armed after every read. Without
/// it the client keeps the kernel defaults, as SocketClient does; its
/// delayed ACKs then interact with the server side's Nagle (no socket in
/// src/ sets TCP_NODELAY): replies wait for the next request to carry the
/// ACK, p50 at a fixed rate flips between two modes from one step to the
/// next, and ~40 ms stalls land in some steps and not others. The load
/// generator uses prompt ACKs; fleet.tcp_hop_us measures the default client.
class WireConn {
 public:
  /// `unix_path` non-empty → Unix socket, else TCP loopback `tcp_port`.
  [[nodiscard]] static repro::common::Result<std::unique_ptr<WireConn>> connect(
      const std::string& unix_path, int tcp_port, bool binary, bool prompt_acks);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool binary() const noexcept { return binary_; }
  /// Re-arm TCP_QUICKACK (the kernel clears it); call after every read.
  void rearm_ack() const;
  std::uint64_t next_id = 1;
  repro::serve::MessageSplitter splitter{64u << 20, true};

 private:
  WireConn(int fd, bool binary, bool prompt_acks)
      : fd_(fd), binary_(binary), prompt_acks_(prompt_acks) {}
  int fd_;
  bool binary_;
  bool prompt_acks_;
};

/// The direct-Predictor oracle: the expected prediction for each corpus
/// kernel (or offline unit), computed at set-up.
using Reference = std::vector<repro::core::Predictor::KernelPrediction>;

/// Bit-for-bit equality: kernel name, every configuration, both doubles by
/// bit pattern, and the heuristic flag.
[[nodiscard]] bool same_prediction(const repro::core::Predictor::KernelPrediction& a,
                                   const repro::core::Predictor::KernelPrediction& b);

/// Send one request and wait for its reply (a set-up's first request).
/// Returns the reply's payload bytes; `id` receives the request's wire id.
[[nodiscard]] repro::common::Result<std::string> round_trip(WireConn& conn,
                                                            const CorpusKernel& kernel,
                                                            Payload payload,
                                                            std::uint64_t& id);

/// True when a reply payload is the reply `expected` formats to, byte for
/// byte, in the connection's framing.
[[nodiscard]] bool reply_is(std::string_view payload, bool binary, std::uint64_t id,
                            const repro::core::Predictor::KernelPrediction& expected);

struct StepSpec {
  double rate = 0.0;     // requests per second, all connections together
  double seconds = 0.0;  // schedule length
  std::uint64_t seed = 0;
  std::uint64_t stream = 0;  // pick_kernel stream: a distinct one per phase
  Payload payload = Payload::kFeatures;
  bool traced = false;   // ask every hop for its wire trace table
  /// When set, each request is recorded as a span (due → reply) under this
  /// name and `parent`, carrying its wire id.
  SpanLog* spans = nullptr;
  const char* span_name = "request";
  std::int64_t parent = -1;
};

/// Everything a step produced besides its StepResult.
struct StepExtras {
  CpuSample cpu;               // process vs generator-thread CPU during the step
  ProcUsage usage;             // process delta during the step
  double steal_share = 0.0;    // share of the machine's CPU time stolen by its host
  long threads = 0;            // Threads: sampled mid-step
  std::size_t mismatched = 0;  // replies that were predictions but not bit-identical
  std::vector<repro::obs::Trace> traces;  // traced steps only
};

/// Open-loop step over `conns`: request j is due at j / rate and goes to
/// connection j mod conns.size(); one sender and one receiver thread per
/// connection. Every reply is checked against `reference` — untraced
/// replies byte-for-byte against the reply the reference formats to,
/// traced ones field-by-field with the trace removed.
[[nodiscard]] StepResult run_wire_step(const std::vector<WireConn*>& conns,
                                       const StepSpec& spec,
                                       const std::vector<CorpusKernel>& corpus,
                                       const Reference& reference, StepExtras& extras);

/// The same schedule fed into Service::submit / submit_source in-process:
/// one thread submits on schedule, one collects the futures in order.
[[nodiscard]] StepResult run_service_step(repro::serve::Service& service,
                                          const StepSpec& spec,
                                          const std::vector<CorpusKernel>& corpus,
                                          const Reference& reference, StepExtras& extras);

/// Offline compile-time calls in-process, closed loop: for `spec.seconds`,
/// one caller thread — the compile driver, part of the system under test —
/// passes `batch_size` units (drawn by the seed) to
/// Predictor::predict_source_batch, call after call. latency_ms holds one
/// entry per call; ok/failed count units; offered_rps is the units per
/// second achieved. With a span log each call is an "offline.batch" span.
[[nodiscard]] StepResult run_offline_batches(const repro::core::Predictor& predictor,
                                             const std::vector<OfflineUnit>& units,
                                             const Reference& reference, const StepSpec& spec,
                                             std::size_t batch_size, StepExtras& extras);

/// Closed-loop saturation over `conns`: each connection keeps `window`
/// requests in flight for `seconds`. Returns completed requests per second;
/// counts go to `ok`/`failed`.
[[nodiscard]] double run_wire_saturation(const std::vector<WireConn*>& conns,
                                         double seconds, std::size_t window,
                                         std::uint64_t seed, std::uint64_t stream,
                                         Payload payload,
                                         const std::vector<CorpusKernel>& corpus,
                                         const Reference& reference, std::size_t& ok,
                                         std::size_t& failed, std::size_t& mismatched);

}  // namespace perfbench
