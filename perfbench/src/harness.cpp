#include "harness.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "benchgen/benchgen.hpp"
#include "common/net.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace rc = repro::common;
namespace rs = repro::serve;
using repro::core::Predictor;

// --- spans --------------------------------------------------------------------

std::int64_t SpanLog::add(std::string_view name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::uint64_t request) {
  if (!enabled_) return -1;
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  };
  std::lock_guard lock(mutex_);
  spans_.push_back({std::string(name), us(start), us(end), parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanLog::open(std::string_view name, std::int64_t parent) {
  const auto now = Clock::now();
  return add(name, now, now, parent);
}

void SpanLog::close(std::int64_t span) {
  if (span < 0) return;
  const double end_us = std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_us = end_us;
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans_) {
    std::fprintf(f,
                 "{\"name\":%s,\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%lld,"
                 "\"request\":%llu}\n",
                 rs::json_quote(s.name).c_str(), s.start_us, s.end_us,
                 static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// --- process counters ---------------------------------------------------------

namespace {

double rusage_cpu_us(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e6 +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace

ProcUsage process_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return {rusage_cpu_us(ru), static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double thread_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return rusage_cpu_us(ru);
}

long proc_status_field(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtol(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return -1;
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  HostTicks out;
  if (!in || cpu != "cpu") return out;
  for (double f : field) out.total += f;
  out.steal = field[7];
  return out;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

// --- the serving topology -----------------------------------------------------

Fleet::~Fleet() {
  // Front to back, the way repro_fleet shuts down: clients' entry points
  // first, then the socket servers, then the services they submit into.
  unix_balancer.reset();
  balancer.reset();
  servers.clear();
  services.clear();
}

rc::Status Fleet::start_unix_balancer() {
  std::vector<repro::fleet::BackendEndpoint> backends;
  for (const auto& server : servers) backends.push_back({server->unix_path(), -1});
  repro::fleet::BalancerOptions options;
  options.unix_path = dir + "/front.sock";
  auto started = repro::fleet::Balancer::start(std::move(backends), options);
  if (!started.ok()) return started.error();
  unix_balancer = std::move(started).take();
  return rc::Status::Ok();
}

rs::ServiceConfig service_config(bool reduced_model) {
  rs::ServiceConfig config;
  config.options.shards = 2;
  config.options.batch_window = std::chrono::microseconds(200);
  config.options.max_batch = 16;
  if (reduced_model) {
    // What `repro_fleet --suite-stride 4 --num-configs 16` trains.
    config.training.num_configs = 16;
    auto full = repro::benchgen::generate_training_suite();
    if (full.ok()) {
      std::vector<repro::benchgen::MicroBenchmark> subset;
      for (std::size_t i = 0; i < full.value().size(); i += 4) {
        subset.push_back(full.value()[i]);
      }
      config.suite = std::move(subset);
    }
  }
  return config;
}

rc::Result<std::unique_ptr<Fleet>> start_fleet(const rs::ServiceConfig& config,
                                               const std::string& dir, SpanLog& spans,
                                               std::int64_t parent) {
  auto fleet = std::make_unique<Fleet>();
  fleet->dir = dir;
  std::error_code ec;
  std::filesystem::create_directories(dir + "/model-cache", ec);
  if (ec) return rc::internal_error("perfbench: cannot create " + dir + ": " + ec.message());
  fleet->cache = std::make_unique<rs::ModelCache>(2, dir + "/model-cache");

  const auto t0 = Clock::now();
  auto model = rs::Service::train_or_fetch(config, *fleet->cache);
  spans.add("core.train", t0, Clock::now(), parent);
  if (!model.ok()) return model.error();
  fleet->model = model.value();

  std::vector<repro::fleet::BackendEndpoint> backends;
  for (int w = 0; w < 2; ++w) {
    auto service = rs::Service::create(config, *fleet->cache);
    if (!service.ok()) return service.error();
    rs::ServerOptions options;
    options.unix_path = dir + "/w" + std::to_string(w) + ".sock";
    auto server = rs::SocketServer::start(*service.value(), options);
    if (!server.ok()) return server.error();
    backends.push_back({options.unix_path, -1});
    fleet->services.push_back(std::move(service).take());
    fleet->servers.push_back(std::move(server).take());
  }
  repro::fleet::BalancerOptions options;
  options.tcp_port = 0;
  auto balancer = repro::fleet::Balancer::start(std::move(backends), options);
  if (!balancer.ok()) return balancer.error();
  fleet->balancer = std::move(balancer).take();
  return fleet;
}

// --- wire client ---------------------------------------------------------------

rc::Result<std::unique_ptr<WireConn>> WireConn::connect(const std::string& unix_path,
                                                        int tcp_port, bool binary,
                                                        bool prompt_acks) {
  rs::ConnectOptions options;
  options.attempts = 8;
  auto client = unix_path.empty() ? rs::SocketClient::connect_tcp(tcp_port, options)
                                  : rs::SocketClient::connect_unix(unix_path, options);
  if (!client.ok()) return client.error();
  if (binary) {
    auto protocol = client.value().negotiate_binary();
    if (!protocol.ok()) return protocol.error();
    if (protocol.value() < 2) {
      return rc::internal_error("perfbench: peer did not negotiate binary protocol 2");
    }
  }
  const int fd = client.value().release_fd();
  auto conn = std::unique_ptr<WireConn>(new WireConn(fd, binary, prompt_acks && unix_path.empty()));
  if (conn->prompt_acks_) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conn->rearm_ack();
  }
  return conn;
}

void WireConn::rearm_ack() const {
  if (!prompt_acks_) return;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool same_prediction(const Predictor::KernelPrediction& a,
                     const Predictor::KernelPrediction& b) {
  if (a.kernel != b.kernel || a.pareto.size() != b.pareto.size()) return false;
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    const auto& x = a.pareto[i];
    const auto& y = b.pareto[i];
    if (!(x.config == y.config) || x.heuristic != y.heuristic ||
        std::memcmp(&x.speedup, &y.speedup, sizeof(double)) != 0 ||
        std::memcmp(&x.energy, &y.energy, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

constexpr auto kIoTimeout = std::chrono::milliseconds(10000);
/// How long a step waits for its last replies after the schedule ends.
constexpr double kDrainSeconds = 10.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

void fill_request(rs::WireRequest& request, std::uint64_t id, const CorpusKernel& kernel,
                  Payload payload, bool traced) {
  request.id = id;
  request.kernel = kernel.name;
  if (payload == Payload::kFeatures) {
    request.kind = rs::RequestKind::kPredict;
    request.features = kernel.features.counts;
    request.source.reset();
  } else {
    request.kind = rs::RequestKind::kPredictSource;
    request.features.reset();
    request.source = kernel.source;
  }
  request.trace = traced ? std::optional<std::uint64_t>(id) : std::nullopt;
}

void encode(std::string& out, const rs::WireRequest& request, bool binary) {
  if (binary) {
    rs::binary::format_request_frame_into(out, request);
  } else {
    rs::format_request_into(out, request);
    out.push_back('\n');
  }
}

enum class Verdict { kOk, kFailed, kMismatch };

/// Check one reply message against the reference prediction for its request.
Verdict check_reply(const rs::WireMessage& message, bool binary, std::uint64_t id,
                    const Predictor::KernelPrediction& expected, bool traced,
                    std::string& scratch, std::vector<repro::obs::Trace>* traces) {
  if (message.binary != binary) return Verdict::kFailed;
  if (!traced) {
    scratch.clear();
    if (binary) {
      rs::binary::format_prediction_frame_into(scratch, id, expected);
      if (scratch.size() >= rs::binary::kHeaderBytes &&
          std::string_view(scratch).substr(rs::binary::kHeaderBytes) == message.payload) {
        return Verdict::kOk;
      }
    } else {
      rs::format_response_into(scratch, id, expected);
      if (scratch == message.payload) return Verdict::kOk;
    }
  }
  // An untraced reply is correct only when byte-identical; parsing tells an
  // error reply (failed) from a prediction that differs (mismatch). Traced
  // replies are compared field by field, with the trace removed.
  auto parsed = binary ? rs::binary::parse_response(message.payload)
                       : rs::parse_response(message.payload);
  if (!parsed.ok() || parsed.value().id != id || !parsed.value().prediction) {
    return Verdict::kFailed;
  }
  if (!traced || !same_prediction(*parsed.value().prediction, expected)) {
    return Verdict::kMismatch;
  }
  if (traces != nullptr && parsed.value().trace) {
    traces->push_back(*parsed.value().trace);
  }
  return Verdict::kOk;
}

/// Per-request bookkeeping shared by a step's threads; each slot is written
/// by exactly one thread before the threads are joined.
struct Slots {
  explicit Slots(std::size_t n)
      : latency_ms(n, kFailedLatency), lag_ms(n, 0.0), sent(n, 0), verdict(n, 2) {}
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<char> sent;
  std::vector<char> verdict;  // 0 ok, 1 mismatch, 2 failed / never answered
};

StepResult collect(const StepSpec& spec, const Slots& slots, double last_reply_s,
                   StepExtras& extras) {
  StepResult step;
  step.offered_rps = spec.rate;
  step.seconds = spec.seconds;
  step.scheduled = slots.latency_ms.size();
  step.latency_ms = slots.latency_ms;
  step.last_reply_s = last_reply_s;
  for (std::size_t j = 0; j < step.scheduled; ++j) {
    if (slots.sent[j] != 0) {
      ++step.sent;
      step.gen_lag_ms.push_back(slots.lag_ms[j]);
    }
    if (slots.verdict[j] == 0) {
      ++step.ok;
    } else {
      ++step.failed;
      step.latency_ms[j] = kFailedLatency;
      if (slots.verdict[j] == 1) ++extras.mismatched;
    }
  }
  return step;
}

std::size_t scheduled_count(const StepSpec& spec) {
  return static_cast<std::size_t>(std::max(1.0, std::round(spec.rate * spec.seconds)));
}

Clock::time_point due_at(Clock::time_point start, const StepSpec& spec, std::size_t j) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(j) / spec.rate));
}

/// Samples Threads: halfway through the schedule, then process and
/// generator CPU at the end.
class StepMeter {
 public:
  explicit StepMeter(StepExtras& extras)
      : extras_(extras), before_(process_usage()), host_before_(host_ticks()) {}
  void add_generator_cpu(double us) {
    std::lock_guard lock(mutex_);
    extras_.cpu.generator_us += us;
  }
  void sample_threads_at(Clock::time_point when) {
    std::this_thread::sleep_until(when);
    extras_.threads = proc_status_field("Threads");
  }
  void finish() {
    const ProcUsage after = process_usage();
    extras_.usage = {after.cpu_us - before_.cpu_us, after.ctxsw - before_.ctxsw};
    extras_.cpu.process_us = extras_.usage.cpu_us;
    extras_.steal_share = steal_share(host_before_, host_ticks());
  }

 private:
  StepExtras& extras_;
  ProcUsage before_;
  HostTicks host_before_;
  std::mutex mutex_;
};

}  // namespace

rc::Result<std::string> round_trip(WireConn& conn, const CorpusKernel& kernel,
                                   Payload payload, std::uint64_t& id) {
  rs::WireRequest request;
  id = conn.next_id++;
  fill_request(request, id, kernel, payload, false);
  std::string buf;
  encode(buf, request, conn.binary());
  if (rc::net::write_all(conn.fd(), buf, kIoTimeout).status != rc::net::IoStatus::kOk) {
    return rc::internal_error("perfbench: write to the fleet failed");
  }
  std::vector<char> in(64 * 1024);
  for (;;) {
    auto message = conn.splitter.next();
    if (!message.ok()) return message.error();
    if (message.value()) return std::string(message.value()->payload);
    const auto io = rc::net::read_some(conn.fd(), in.data(), in.size(), kIoTimeout);
    if (io.status != rc::net::IoStatus::kOk) {
      return rc::internal_error("perfbench: no reply from the fleet");
    }
    conn.splitter.feed(std::string_view(in.data(), io.bytes));
  }
}

bool reply_is(std::string_view payload, bool binary, std::uint64_t id,
              const Predictor::KernelPrediction& expected) {
  std::string scratch;
  const rs::WireMessage message{binary, rs::binary::FrameType::kResponse, payload};
  return check_reply(message, binary, id, expected, false, scratch, nullptr) == Verdict::kOk;
}

StepResult run_wire_step(const std::vector<WireConn*>& conns, const StepSpec& spec,
                         const std::vector<CorpusKernel>& corpus, const Reference& reference,
                         StepExtras& extras) {
  const std::size_t n = scheduled_count(spec);
  const std::size_t c_count = conns.size();
  Slots slots(n);
  std::vector<std::uint64_t> first_id(c_count);
  for (std::size_t c = 0; c < c_count; ++c) {
    first_id[c] = conns[c]->next_id;
    conns[c]->next_id += (n + c_count - 1 - c) / c_count;
  }
  std::vector<double> last_reply(c_count, 0.0);
  std::vector<std::vector<repro::obs::Trace>> traces(c_count);  // one per receiver
  StepMeter meter(extras);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < c_count; ++c) {
    WireConn& conn = *conns[c];
    threads.emplace_back([&, c] {  // sender
      const double cpu0 = thread_cpu_us();
      rs::WireRequest request;
      std::string buf;
      Clock::time_point free_at = start;
      std::size_t j = c;
      while (j < n) {
        std::this_thread::sleep_until(due_at(start, spec, j));
        const Clock::time_point begin = Clock::now();
        buf.clear();
        std::vector<std::size_t> batch;
        for (; j < n && due_at(start, spec, j) <= begin; j += c_count) {
          const auto& kernel = corpus[pick_kernel(spec.seed, spec.stream, j, corpus.size())];
          fill_request(request, first_id[c] + j / c_count, kernel, spec.payload, spec.traced);
          encode(buf, request, conn.binary());
          batch.push_back(j);
        }
        for (std::size_t k : batch) {
          slots.lag_ms[k] = std::max(0.0, ms_between(std::max(due_at(start, spec, k), free_at),
                                                     begin));
        }
        if (rc::net::write_all(conn.fd(), buf, kIoTimeout).status != rc::net::IoStatus::kOk) {
          break;
        }
        for (std::size_t k : batch) slots.sent[k] = 1;
        free_at = Clock::now();
      }
      meter.add_generator_cpu(thread_cpu_us() - cpu0);
    });
    threads.emplace_back([&, c] {  // receiver
      const double cpu0 = thread_cpu_us();
      std::string scratch;
      std::vector<char> buf(64 * 1024);
      const std::size_t expected = (n + c_count - 1 - c) / c_count;
      std::size_t received = 0;
      const auto deadline =
          due_at(start, spec, n) +
          std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kDrainSeconds));
      while (received < expected && Clock::now() < deadline) {
        const auto io = rc::net::read_some(conn.fd(), buf.data(), buf.size(),
                                           std::chrono::milliseconds(50));
        if (io.status == rc::net::IoStatus::kTimeout) continue;
        if (io.status != rc::net::IoStatus::kOk) break;
        const Clock::time_point now = Clock::now();
        conn.rearm_ack();
        conn.splitter.feed(std::string_view(buf.data(), io.bytes));
        while (received < expected) {
          auto message = conn.splitter.next();
          if (!message.ok() || !message.value()) break;
          const std::size_t j = c + received * c_count;
          const auto& expected_reply =
              reference[pick_kernel(spec.seed, spec.stream, j, corpus.size())];
          const Verdict verdict =
              check_reply(*message.value(), conn.binary(), first_id[c] + received,
                          expected_reply, spec.traced, scratch, &traces[c]);
          slots.verdict[j] = verdict == Verdict::kOk ? 0 : verdict == Verdict::kMismatch ? 1 : 2;
          slots.latency_ms[j] = ms_between(due_at(start, spec, j), now);
          last_reply[c] = seconds_between(start, now);
          if (spec.spans != nullptr) {
            spec.spans->add(spec.span_name, due_at(start, spec, j), now, spec.parent,
                            first_id[c] + received);
          }
          ++received;
        }
      }
      meter.add_generator_cpu(thread_cpu_us() - cpu0);
    });
  }
  meter.sample_threads_at(due_at(start, spec, n / 2));
  for (auto& t : threads) t.join();
  meter.finish();
  for (auto& t : traces) extras.traces.insert(extras.traces.end(), t.begin(), t.end());
  return collect(spec, slots, *std::max_element(last_reply.begin(), last_reply.end()), extras);
}

StepResult run_service_step(rs::Service& service, const StepSpec& spec,
                            const std::vector<CorpusKernel>& corpus,
                            const Reference& reference, StepExtras& extras) {
  const std::size_t n = scheduled_count(spec);
  Slots slots(n);
  double last_reply = 0.0;
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::pair<std::size_t, std::future<rs::Service::Response>>> pending;
  bool done_sending = false;
  StepMeter meter(extras);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);

  std::thread sender([&] {
    const double cpu0 = thread_cpu_us();
    Clock::time_point free_at = start;
    for (std::size_t j = 0; j < n; ++j) {
      std::this_thread::sleep_until(due_at(start, spec, j));
      const Clock::time_point begin = Clock::now();
      slots.lag_ms[j] = std::max(0.0, ms_between(std::max(due_at(start, spec, j), free_at), begin));
      const auto& kernel = corpus[pick_kernel(spec.seed, spec.stream, j, corpus.size())];
      auto future = spec.payload == Payload::kFeatures
                        ? service.submit(kernel.features)
                        : service.submit_source(kernel.source, kernel.name);
      slots.sent[j] = 1;
      free_at = Clock::now();
      std::lock_guard lock(mutex);
      pending.emplace_back(j, std::move(future));
      ready.notify_one();
    }
    meter.add_generator_cpu(thread_cpu_us() - cpu0);
    std::lock_guard lock(mutex);
    done_sending = true;
    ready.notify_one();
  });
  std::thread collector([&] {
    const double cpu0 = thread_cpu_us();
    for (;;) {
      std::unique_lock lock(mutex);
      ready.wait(lock, [&] { return !pending.empty() || done_sending; });
      if (pending.empty()) break;
      auto [j, future] = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      const auto response = future.get();
      const Clock::time_point now = Clock::now();
      const auto& expected = reference[pick_kernel(spec.seed, spec.stream, j, corpus.size())];
      slots.verdict[j] = !response.ok() ? 2 : same_prediction(response.value(), expected) ? 0 : 1;
      slots.latency_ms[j] = ms_between(due_at(start, spec, j), now);
      last_reply = seconds_between(start, now);
    }
    meter.add_generator_cpu(thread_cpu_us() - cpu0);
  });
  meter.sample_threads_at(due_at(start, spec, n / 2));
  sender.join();
  collector.join();
  meter.finish();
  return collect(spec, slots, last_reply, extras);
}

namespace {

/// Predict one batch of units and score each against the reference; returns
/// per-unit verdicts (0 ok, 1 mismatch, 2 failed).
std::vector<char> predict_units(const Predictor& predictor,
                                const std::vector<OfflineUnit>& units,
                                const Reference& reference,
                                const std::vector<std::size_t>& picked,
                                std::vector<OfflineUnit>& batch) {
  batch.clear();
  for (std::size_t u : picked) batch.push_back(units[u]);
  const auto result = predictor.predict_source_batch(batch);
  std::vector<char> verdicts(picked.size(), 2);
  if (!result.ok() || result.value().size() != picked.size()) return verdicts;
  for (std::size_t i = 0; i < picked.size(); ++i) {
    verdicts[i] = same_prediction(result.value()[i], reference[picked[i]]) ? 0 : 1;
  }
  return verdicts;
}

}  // namespace

StepResult run_offline_batches(const Predictor& predictor,
                               const std::vector<OfflineUnit>& units,
                               const Reference& reference, const StepSpec& spec,
                               std::size_t batch_size, StepExtras& extras) {
  StepResult step;
  StepMeter meter(extras);
  const Clock::time_point start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(spec.seconds));
  std::thread caller([&] {
    std::vector<OfflineUnit> batch;
    std::vector<std::size_t> picked;
    std::uint64_t j = 0;
    do {
      picked.clear();
      for (std::size_t i = 0; i < batch_size; ++i) {
        picked.push_back(pick_kernel(spec.seed, spec.stream, j++, units.size()));
      }
      const Clock::time_point begin = Clock::now();
      const auto verdicts = predict_units(predictor, units, reference, picked, batch);
      const Clock::time_point done = Clock::now();
      if (spec.spans != nullptr) {
        spec.spans->add(spec.span_name, begin, done, spec.parent, j - batch_size);
      }
      bool all_ok = true;
      for (char v : verdicts) {
        all_ok = all_ok && v == 0;
        if (v == 0) ++step.ok;
        if (v != 0) ++step.failed;
        if (v == 1) ++extras.mismatched;
      }
      step.latency_ms.push_back(all_ok ? ms_between(begin, done) : kFailedLatency);
    } while (Clock::now() < stop);
  });
  meter.sample_threads_at(start + (stop - start) / 2);
  caller.join();
  meter.finish();
  step.seconds = seconds_between(start, Clock::now());
  step.scheduled = step.sent = step.ok + step.failed;
  step.offered_rps = static_cast<double>(step.ok) / step.seconds;
  step.last_reply_s = step.seconds;
  return step;
}

double run_wire_saturation(const std::vector<WireConn*>& conns, double seconds,
                           std::size_t window, std::uint64_t seed, std::uint64_t stream,
                           Payload payload, const std::vector<CorpusKernel>& corpus,
                           const Reference& reference, std::size_t& ok, std::size_t& failed,
                           std::size_t& mismatched) {
  std::atomic<std::size_t> n_ok{0};
  std::atomic<std::size_t> n_failed{0};
  std::atomic<std::size_t> n_mismatched{0};
  const Clock::time_point start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      WireConn& conn = *conns[c];
      rs::WireRequest request;
      std::string buf;
      std::string scratch;
      std::vector<char> in(64 * 1024);
      std::deque<std::pair<std::uint64_t, std::size_t>> inflight;  // id, kernel
      std::uint64_t i = 0;
      bool healthy = true;
      const auto send_one = [&] {
        const std::size_t k = pick_kernel(seed, stream * 16 + c, i++, corpus.size());
        const std::uint64_t id = conn.next_id++;
        fill_request(request, id, corpus[k], payload, false);
        buf.clear();
        encode(buf, request, conn.binary());
        inflight.emplace_back(id, k);
        return rc::net::write_all(conn.fd(), buf, kIoTimeout).status == rc::net::IoStatus::kOk;
      };
      for (std::size_t w = 0; w < window && healthy; ++w) healthy = send_one();
      while (healthy && !inflight.empty()) {
        const auto io = rc::net::read_some(conn.fd(), in.data(), in.size(), kIoTimeout);
        if (io.status != rc::net::IoStatus::kOk) break;
        conn.rearm_ack();
        conn.splitter.feed(std::string_view(in.data(), io.bytes));
        std::size_t replies = 0;
        for (;;) {
          auto message = conn.splitter.next();
          if (!message.ok() || !message.value() || inflight.empty()) break;
          const auto [id, k] = inflight.front();
          inflight.pop_front();
          const Verdict v = check_reply(*message.value(), conn.binary(), id, reference[k],
                                        false, scratch, nullptr);
          (v == Verdict::kOk ? n_ok : v == Verdict::kMismatch ? n_mismatched : n_failed)++;
          ++replies;
        }
        if (Clock::now() < stop) {
          for (std::size_t r = 0; r < replies && healthy; ++r) healthy = send_one();
        }
      }
      n_failed += inflight.size();
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = seconds_between(start, Clock::now());
  ok += n_ok;
  failed += n_failed + n_mismatched;
  mismatched += n_mismatched;
  return static_cast<double>(n_ok.load()) / elapsed;
}

}  // namespace perfbench
